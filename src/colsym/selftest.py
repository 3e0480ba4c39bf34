"""End-to-end self-verification against the frozen expected values.

Recomputes censuses and compares them with goldens.py, then exercises
the checkerboard colouring down to the permutation and pixel level.
All result lines go to `out` (stdout by default) and are a pure
function of the inputs, so a cold run and a warm one on the same cache
must agree byte for byte; timing chatter goes to `err` only.
"""
from __future__ import annotations

import sys
import time

from . import goldens
from .cache import cached_provider
from .census import Scope, TilingKind, census, colour_permutation, format_census
from .errors import DomainError
from .geometry import generate_patch
from .presentations import triangle_group
from .render import colour_patch, emit_svg, verify_perfect_on_patch
from .words import A, B, C

HYPERBOLIC_PAIRS = ((7, 3), (8, 3), (5, 4))
KINDS = (TilingKind.PQ, TilingKind.LAVES, TilingKind.QP)


def run_selftest(
    level: str = "fast",
    *,
    cache_dir: str | None = None,
    out=None,
    err=None,
) -> bool:
    if level not in ("fast", "full"):
        raise DomainError(f"unknown selftest level {level!r}")
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    provider = cached_provider(cache_dir)
    started = time.perf_counter()
    checks: list[tuple[str, bool, str]] = []

    def row_check(p: int, q: int, kind: TilingKind, scope: Scope) -> None:
        if scope is Scope.FULL:
            row, last = goldens.FULL_ROWS[(p, q, kind)]
            bound = goldens.FULL_BOUNDS[(p, q, kind)]
        else:
            row, last = goldens.ROTATION_ROWS[(p, q, kind)]
            bound = goldens.ROTATION_BOUNDS[(p, q, kind)]
        # "both" cross-checks the two rotation routes; the full scope has one route
        rep = census(
            p, q, kind, scope, bound,
            strategy="both", classes_provider=provider,
        )
        print(format_census(rep), file=out)
        ok, detail = goldens.matches_row(rep, row, last)
        checks.append((f"{scope.value} {kind.display(p, q)}", ok, detail))

    pairs = HYPERBOLIC_PAIRS if level == "full" else ((7, 3),)
    # the provider serves a request from any list it holds to a bound at
    # least as large, so asking each group for its largest bound first
    # searches it once; route a needs twice the rotation bound, and the
    # reflection group's list brings its von Dyck list to half its bound
    for p, q in pairs:
        full = max(goldens.FULL_BOUNDS[(p, q, kind)] for kind in KINDS)
        rotation = max(goldens.ROTATION_BOUNDS[(p, q, kind)] for kind in KINDS)
        provider(triangle_group(p, q), max(full, 2 * rotation))
    for p, q in pairs:
        for kind in KINDS:
            row_check(p, q, kind, Scope.FULL)
    for p, q in pairs:
        for kind in KINDS:
            row_check(p, q, kind, Scope.ROTATION)

    for p, q, expect in ((4, 3, goldens.CUBE_FULL_PQ), (3, 5, goldens.ICOSAHEDRON_FULL_PQ)):
        rep = census(p, q, TilingKind.PQ, Scope.FULL, 30, classes_provider=provider)
        print(format_census(rep), file=out)
        got = rep.multiplicities()
        checks.append(
            (f"full {TilingKind.PQ.display(p, q)} complete", got == expect,
             f"computed {got}, expected {expect}")
        )

    # the two-coloured square tiling, checked all the way to the picture
    rep = census(4, 4, TilingKind.PQ, Scope.FULL, 2, classes_provider=provider)
    print(format_census(rep), file=out)
    two = [e for e in rep.entries if e.colours == 2]
    ok = len(two) == 1 and two[0].count == 1
    checks.append(("one two-colouring of (4^4)", ok, f"entries {rep.multiplicities()}"))
    if ok:
        t = two[0].representatives[0].table
        pa = colour_permutation(t, (A,))
        pb = colour_permutation(t, (B,))
        pc = colour_permutation(t, (C,))
        checks.append(
            ("checkerboard reflection action",
             pa == (1, 0) and pb == (0, 1) and pc == (0, 1),
             f"a:{pa} b:{pb} c:{pc}")
        )
        patch = generate_patch(4, 4, 4)
        cp = colour_patch(patch, t, TilingKind.PQ)
        alternates = True
        for i, links in enumerate(patch.neighbours):
            for g, same in ((A, False), (B, True), (C, True)):
                j = links[g]
                if j >= 0 and (cp.colours[i] == cp.colours[j]) != same:
                    alternates = False
        checks.append(
            ("checkerboard alternation on patch", alternates,
             f"{patch.ends[-1]} triangles")
        )
        words = ((A,), (B,), (C,), (A, B), (B, C), (A, C), (A, B, C), (A, B, A, C))
        perfect = all(verify_perfect_on_patch(cp, w) for w in words)
        checks.append(("checkerboard perfectness sample", perfect, f"{len(words)} words"))
        svg = emit_svg(cp)
        checks.append(
            ("svg reproducibility", svg == emit_svg(cp), f"{len(svg)} bytes")
        )

    failed = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    print(
        f"selftest {level}: {'FAIL' if failed else 'PASS'}"
        f" ({len(checks) - failed}/{len(checks)} checks)",
        file=out,
    )
    print(f"# selftest wall time {time.perf_counter() - started:.1f}s", file=err)
    return failed == 0
