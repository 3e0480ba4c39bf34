#!/usr/bin/env python3
"""colsym benchmark: one workload per process, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-cold --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, op_s, peak_rss_mb,
output_bytes); --trace 1 alternates untraced and traced ops and reports
the per-layer metrics.  setup_s and op_s are wall times rescaled to a
reference CPU speed (speed.py), so that drift in the speed a shared
machine gives the process does not show as a change in colsym.  A
summary goes to stdout and the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md
for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from speed import Timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_MIN_S have passed
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fresh_import() -> None:
    """A new interpreter imports colsym: part of set-up, as every user pays it first."""
    subprocess.run([sys.executable, "-c", "import colsym"], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def _measure(workload, seconds: float, tracer, error_type):
    """Ops until the time is up; with a tracer every second op is traced.

    An untraced op is timed by speed.Timed; a traced op by the clock alone,
    as its wrappers' spans are wall times too.
    """
    ops = []  # (wall s, reference s or None, traced, Outcome or None, layer metrics or None)
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        ctx = workload.prepare(n)
        gc.collect()  # every op starts from the same heap, not the last op's garbage
        result, error = None, None
        timer = Timed()
        with tracer.installed(n) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if traced else timer:
                    result = workload.op(ctx)
            except error_type as e:
                error = e
            t1 = time.perf_counter()
        layers = tracer.op_metrics(n) if traced else None
        outcome = None
        if error is None:
            outcome = workload.check(result, ctx, layers)
        else:
            print(f"op {n}: {type(error).__name__}: {error}", file=sys.stderr)
        if traced:
            ops.append((t1 - t0, None, True, outcome, layers))
        else:
            ops.append((timer.wall_s, timer.ref_s, False, outcome, layers))
        n += 1
        if time.perf_counter() >= deadline and (tracer is None or len({o[2] for o in ops}) == 2):
            return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "colsym" / "__init__.py").is_file():
        print(f"error: no colsym sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("COLSYM_CACHE_DIR", None)  # every cache dir is passed explicitly
    sys.path[:0] = [str(SRC), str(HERE)]

    import colsym
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(colsym.__file__).resolve().parent != SRC / "colsym":
        print(f"error: imported colsym from {colsym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    scratch = RUN_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or (
                sum(t.wall_s for t in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
            i = len(setups)
            with Timed() as timer:
                _fresh_import()
                (scratch / f"setup{i}").mkdir()
                workload.setup(scratch / f"setup{i}", args.seed)
            setups.append(timer)
        workload.warm()
        tracer = Tracer() if args.trace else None
        ops = _measure(workload, args.seconds, tracer, colsym.ColsymError)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for *_, o, _ in ops if o is None or o.problems)
    correct = all(o is None or o.answers_ok for *_, o, _ in ops)
    plain = [(wall, ref) for wall, ref, traced, _, _ in ops if not traced]
    out_bytes = [o.output_bytes for *_, o, _ in ops if o is not None]
    op_wall_s = statistics.median(wall for wall, _ in plain)
    summary = {
        "setup_s": statistics.median(t.ref_s for t in setups),
        "op_s": statistics.median(ref for _, ref in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": statistics.median(out_bytes) if out_bytes else 0,
    }

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"({len(plain)} untraced), failed_ratio {failed / len(ops):.3f}, correct {correct}")
    print("  op wall times: " + " ".join(f"{t:.3f}{'T' if traced else ''}" for t, _, traced, _, _ in ops))
    print(f"  wall medians: setup {statistics.median(t.wall_s for t in setups):.6g} s "
          f"({len(setups)} set-ups), untraced op {op_wall_s:.6g} s")
    problems = Counter(p for *_, o, _ in ops for p in (o.problems if o else ["raised ColsymError"]))
    for p, k in problems.items():
        print(f"  FAILED x{k}: {p}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {summary[m['name']]:.6g} {m['unit']}")
    if args.trace:
        traced = [layers for _, _, is_traced, _, layers in ops if is_traced]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.untraced_op_s":
                value = op_wall_s
            elif name == "trace.overhead_s":
                value = statistics.median(t["trace.op_s"] for t in traced) - op_wall_s
            else:
                value = statistics.median(t[name] for t in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name:<28} {value:.6g} {m['unit']}")
        if tracer.missing:
            print(f"  hooks not found: {sorted(tracer.missing)}")
        tracer.dump(str(RUN_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
