"""The three workloads: their set-up, the timed op, and the checks on it.

Every call into colsym goes through a module attribute looked up at
call time, so the wrappers of a traced run see it.  `colsym.census` the
package attribute is the census function, which shadows the submodule,
so the submodules are taken from sys.modules.

Each op returns an Outcome.  Its `answers_ok` covers the checks on the
answers a user reads (census lines, selftest verdict and transcript,
verify words, well-formed SVG); `problems` also lists layer-oracle and
workload-shape guard misses, and any problem fails the op.
"""
from __future__ import annotations

import io
import os
import random
import shutil
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import colsym  # noqa: F401  (loads every submodule below)
from growth import ball_size

cache_mod = sys.modules["colsym.cache"]
census_mod = sys.modules["colsym.census"]
geometry_mod = sys.modules["colsym.geometry"]
render_mod = sys.modules["colsym.render"]
selftest_mod = sys.modules["colsym.selftest"]
goldens = sys.modules["colsym.goldens"]
Scope, TilingKind = census_mod.Scope, census_mod.TilingKind

EXPECTED = Path(__file__).resolve().parent / "expected"
KINDS = (TilingKind.PQ, TilingKind.QP, TilingKind.LAVES)


@dataclass
class Outcome:
    output_bytes: int = 0
    answers_ok: bool = True
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str, answer: bool = True) -> None:
        if not ok:
            self.problems.append(problem)
            if answer:
                self.answers_ok = False


def _cache_files(d: Path) -> dict[str, tuple[int, int]]:
    return {
        fn: (st.st_size, st.st_mtime_ns)
        for fn in sorted(os.listdir(d))
        if fn.endswith(".json")
        for st in (os.stat(d / fn),)
    }


class CensusCold:
    """Six (7,3) censuses against an empty cache: L1 search plus cache writes."""

    FULL_BOUND, ROTATION_BOUND = 64, 32

    def __init__(self):
        self.expected = (EXPECTED / "census_cold.txt").read_text(encoding="ascii").splitlines()

    def setup(self, scratch: Path, seed: int) -> None:
        self.scratch = scratch

    def warm(self) -> None:
        self._censuses(self.scratch / "warm", 12, 6)

    def _censuses(self, cache_dir: Path, full: int, rotation: int):
        census = census_mod.census
        provider = cache_mod.cached_provider(str(cache_dir))
        reports = [census(7, 3, k, Scope.FULL, full, classes_provider=provider) for k in KINDS]
        reports += [
            census(7, 3, k, Scope.ROTATION, rotation, strategy="both", classes_provider=provider)
            for k in KINDS
        ]
        return reports

    def prepare(self, n: int) -> Path:
        d = self.scratch / f"op{n}"
        d.mkdir()
        return d

    def op(self, cache_dir: Path):
        return self._censuses(cache_dir, self.FULL_BOUND, self.ROTATION_BOUND)

    def check(self, reports, cache_dir: Path, counts) -> Outcome:
        lines = [census_mod.format_census(r) for r in reports]
        out = Outcome(len("\n".join(lines).encode("ascii")) + 1)
        out.check(lines == self.expected, "census lines differ from expected/census_cold.txt")
        for r in reports:
            rows = goldens.FULL_ROWS if r.scope is Scope.FULL else goldens.ROTATION_ROWS
            ok, detail = goldens.matches_row(r, *rows[(7, 3, r.kind)])
            out.check(ok, f"golden row {r.kind.value} {r.scope.value}: {detail}")
        if counts is None:
            out.check(bool(_cache_files(cache_dir)), "guard: op wrote no class list", answer=False)
        else:
            out.check(counts["lowindex.calls"] == 2 and counts["cache.hits"] == 0,
                      f"guard: lowindex.calls={counts['lowindex.calls']:g} "
                      f"cache.hits={counts['cache.hits']:g}, want 2 and 0", answer=False)
        shutil.rmtree(cache_dir)
        return out


class SelftestWarm:
    """run_selftest("full") against a cache set-up filled: L2 assembly and cache reads."""

    def __init__(self):
        self.expected = (EXPECTED / "selftest_full.txt").read_text(encoding="ascii")

    def _run(self):
        out = io.StringIO()
        ok = selftest_mod.run_selftest("full", cache_dir=str(self.cache_dir), out=out, err=io.StringIO())
        return ok, out.getvalue()

    def setup(self, scratch: Path, seed: int) -> None:
        self.cache_dir = scratch / "cache"
        ok, transcript = self._run()
        if not ok or transcript != self.expected:
            raise RuntimeError("cold selftest failed or its transcript differs from expected/selftest_full.txt")

    def warm(self) -> None:
        self._run()

    def prepare(self, n: int):
        return _cache_files(self.cache_dir)

    def op(self, before):
        return self._run()

    def check(self, result, before, counts) -> Outcome:
        ok, transcript = result
        out = Outcome(len(transcript.encode("ascii")))
        out.check(ok, "run_selftest returned False")
        out.check(transcript == self.expected, "selftest transcript differs from expected/selftest_full.txt")
        if counts is None:
            out.check(_cache_files(self.cache_dir) == before, "guard: op changed the cache", answer=False)
        else:
            out.check(counts["lowindex.calls"] == 0 and counts["cache.hits"] == counts["cache.loads"],
                      f"guard: lowindex.calls={counts['lowindex.calls']:g} cache.hits="
                      f"{counts['cache.hits']:g} cache.loads={counts['cache.loads']:g}", answer=False)
        return out


class RenderD34:
    """(7^3) full, 8 colours, at depth 34: L4 patch, L5 colouring and verification, L6 SVG."""

    P, Q, DEPTH, COLOURS, WORDS = 7, 3, 34, 8, 4

    def setup(self, scratch: Path, seed: int) -> None:
        provider = cache_mod.cached_provider(str(scratch / "cache"))
        rep = census_mod.census(self.P, self.Q, TilingKind.PQ, Scope.FULL, self.COLOURS,
                                classes_provider=provider)
        (entry,) = [e for e in rep.entries if e.colours == self.COLOURS]
        self.table = entry.representatives[0].table
        self.exact = ball_size(self.P, self.Q, self.DEPTH)
        rng = random.Random(seed)
        self.words = []
        for _ in range(self.WORDS):
            w: list[int] = []
            length = rng.randint(1, 6)
            while len(w) < length:
                g = rng.randrange(3)
                if not w or g != w[-1]:
                    w.append(g)
            self.words.append(tuple(w))

    def warm(self) -> None:
        self._draw(12)

    def prepare(self, n: int):
        return None

    def _draw(self, depth: int):
        patch = geometry_mod.generate_patch(self.P, self.Q, depth)
        cp = render_mod.colour_patch(patch, self.table, TilingKind.PQ)
        verdicts = [render_mod.verify_perfect_on_patch(cp, w) for w in self.words]
        return patch, cp, verdicts, render_mod.emit_svg(cp)

    def op(self, _):
        return self._draw(self.DEPTH)

    def check(self, result, _, counts) -> Outcome:
        patch, cp, verdicts, svg = result
        out = Outcome(len(svg))
        out.check(all(verdicts), f"verify words failed: {verdicts}")
        try:
            ET.fromstring(svg)
        except ET.ParseError as e:
            out.check(False, f"SVG is not XML: {e}")
        excess = len(patch.tiles) - self.exact
        out.check(excess == 0, f"oracle: {len(patch.tiles)} triangles, exact {self.exact}", answer=False)
        oversize = sum(len(g) > cp.polygon_size for g in cp.polygons)
        out.check(oversize == 0, f"oracle: {oversize} polygons exceed {cp.polygon_size} triangles",
                  answer=False)
        return out


WORKLOADS = {
    "census-cold": CensusCold,
    "selftest-warm": SelftestWarm,
    "render-d34": RenderD34,
}
