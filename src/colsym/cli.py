"""Command line front end.

    colsym census   --p 7 --q 3 --tiling laves --max-colours 42
    colsym render   --p 4 --q 4 --tiling pq --colours 2 --out board.svg
    colsym verify   --p 7 --q 3 --tiling pq --scope rotation --colours 22
    colsym selftest --level full --cache-dir ~/.cache/colsym

verify checks the symmetry group's generators on every triangle of a
patch.  Searched class lists are kept on disk only in the directory
--cache-dir names; without it a run reads and writes no file but
--out.  Exit codes: 0 success, 1 a verification or internal consistency
check failed, 2 bad usage, parameters outside the supported domain or
output that cannot be written, 3 a resource budget was exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys

from .cache import cached_provider
from .census import Scope, TilingKind, census, format_census
from .errors import ColsymError, DomainError, ResourceLimit
from .geometry import generate_patch
from .presentations import Geometry, classify_geometry
from .render import colour_patch, emit_svg, verify_perfect_on_patch
from .selftest import run_selftest
from .words import A, B, C


def _common_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="gon size of the base tiling")
    sp.add_argument("--q", type=int, required=True, help="gons meeting at a vertex")
    sp.add_argument(
        "--tiling",
        choices=[k.value for k in TilingKind],
        default="pq",
        help="which of the three associated tilings to colour",
    )
    sp.add_argument(
        "--scope",
        choices=[s.value for s in Scope],
        default="full",
        help="count symmetries among all isometries or only rotations",
    )


def _provider_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cache-dir", default=None, help="read and write class lists in this "
                    "directory; without it no file is read or written")


def _budget_options(sp: argparse.ArgumentParser) -> None:
    _provider_options(sp)
    sp.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="abort a subgroup search after this many search nodes, counted "
        "over all the seed walks of the search; a reflection group's two "
        "searches, its mirror walks and its rotation half, each get the budget",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="colsym",
        description="perfect colourings of regular and Laves tilings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("census", help="count colourings by number of colours")
    _common_options(sp)
    sp.add_argument("--max-colours", type=int, required=True)
    sp.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    sp.add_argument("--out", default=None, help="write to this file instead of stdout")
    _budget_options(sp)

    sp = sub.add_parser("render", help="draw one colouring as an SVG")
    _common_options(sp)
    sp.add_argument("--colours", type=int, required=True, help="number of colours k")
    sp.add_argument(
        "--pick", type=int, default=0,
        help="index among the non-equivalent k-colourings, in census order",
    )
    sp.add_argument("--depth", type=int, default=None, help="patch radius in triangles")
    sp.add_argument(
        "--projection",
        choices=["auto", "disk", "stereographic", "orthographic", "identity"],
        default="auto",
    )
    sp.add_argument(
        "--subdiv", type=int, default=12,
        help="most segments per triangle side: each side gets the fewest, a divisor "
        "of this, that keep its chord within 2 px a segment (at least 1)",
    )
    sp.add_argument("--palette-seed", type=int, default=0)
    sp.add_argument(
        "--size", type=int, default=700, help="image width in pixels (at least 1)"
    )
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    _budget_options(sp)

    sp = sub.add_parser("verify", help="recheck one colouring on a geometric patch")
    _common_options(sp)
    sp.add_argument("--colours", type=int, required=True)
    sp.add_argument("--pick", type=int, default=0)
    sp.add_argument(
        "--depth",
        type=int,
        default=16,
        help="patch radius in triangles (default 16, at least 1, or 2 in "
        "rotation scope); each generator is checked on every triangle it "
        "maps into the patch",
    )
    _budget_options(sp)

    sp = sub.add_parser("selftest", help="recompute and compare the frozen results")
    sp.add_argument(
        "--level",
        choices=["fast", "full"],
        default="fast",
        help="fast: one hyperbolic group; full: every frozen table row",
    )
    _provider_options(sp)

    return ap


def _provider(args):
    return cached_provider(args.cache_dir, node_budget=args.max_nodes)


def _coloured_patch(args, depth: int):
    """The census representative selected by --colours/--pick, coloured on a patch."""
    kind = TilingKind(args.tiling)
    scope = Scope(args.scope)
    report = census(args.p, args.q, kind, scope, args.colours, classes_provider=_provider(args))
    for e in report.entries:
        if e.colours == args.colours:
            if not 0 <= args.pick < len(e.representatives):
                raise DomainError(
                    f"--pick {args.pick} out of range: {len(e.representatives)} "
                    f"colourings with {args.colours} colours"
                )
            table = e.representatives[args.pick].table
            return colour_patch(generate_patch(args.p, args.q, depth), table, kind, scope)
    raise DomainError(
        f"no perfect colouring of {kind.display(args.p, args.q)} "
        f"({scope.value} scope) with {args.colours} colours"
    )


def _note(text: str) -> None:
    """Write text to stderr; one that cannot be written loses the text, not the exit code."""
    with contextlib.suppress(OSError):
        sys.stderr.write(text)


def _write(path: str | None, data: bytes) -> None:
    """Write data to the file at path, or to stdout without one."""
    try:
        with open(path, "wb") if path else contextlib.nullcontext(sys.stdout.buffer) as fh:
            fh.write(data)
            fh.flush()
    except OSError as e:
        raise DomainError(f"cannot write {path or 'stdout'}: {e.strerror}") from None


# the mirrors, or in rotation scope the rotations gh, generate the symmetries;
# as l(g.x) = l(x) +- 1, checking them on every triangle they map into the
# patch checks every word w on the triangles within depth - len(w)
GENERATORS = {
    Scope.FULL: ((A,), (B,), (C,)),
    Scope.ROTATION: tuple((g, h) for g in (A, B, C) for h in (A, B, C) if g != h),
}


def cmd_census(args) -> int:
    report = census(args.p, args.q, TilingKind(args.tiling), Scope(args.scope), args.max_colours,
                    classes_provider=_provider(args))
    _write(args.out, f"{format_census(report, args.format)}\n".encode())
    _note(f"# {report.elapsed:.2f}s, strategy {report.strategy}\n")
    return 0


def cmd_render(args) -> int:
    # a spherical patch stops growing once the group is exhausted, so a
    # generous depth just means "the whole tiling" there
    default = 40 if classify_geometry(args.p, args.q) is Geometry.SPHERICAL else 5
    cp = _coloured_patch(args, default if args.depth is None else args.depth)
    data = emit_svg(
        cp,
        projection=args.projection,
        palette_seed=args.palette_seed,
        subdivision=args.subdiv,
        size=args.size,
    )
    _write(args.out, data)
    if args.out:
        _note(f"# wrote {args.out}: {len(data)} bytes, {len(cp.polygons)} tiles\n")
    return 0


def cmd_verify(args) -> int:
    scope = Scope(args.scope)
    generators = GENERATORS[scope]
    step = len(generators[0])
    if args.depth < step:
        raise DomainError(f"--depth must be at least {step} in {scope.value} scope")
    cp = _coloured_patch(args, args.depth)
    lines = [f"FAIL generator {g} does not permute colours consistently"
             for g in generators if not verify_perfect_on_patch(cp, g)]
    good = len(generators) - len(lines)
    lines.append(
        f"{'FAIL' if lines else 'PASS'} {TilingKind(args.tiling).display(args.p, args.q)} "
        f"{scope.value} k={cp.k}: {good}/{len(generators)} generators consistent "
        f"on {len(cp.polygons)} tiles, each checked on at least "
        f"{cp.patch.ends[args.depth - step + 1]} of {cp.patch.ends[-1]} triangles"
    )
    _write(None, "".join(f"{line}\n" for line in lines).encode())
    return 0 if good == len(generators) else 1


def cmd_selftest(args) -> int:
    out, err = io.StringIO(), io.StringIO()
    ok = run_selftest(args.level, cache_dir=args.cache_dir, out=out, err=err)
    _write(None, out.getvalue().encode())
    _note(err.getvalue())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "census": cmd_census,
        "render": cmd_render,
        "verify": cmd_verify,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except DomainError as e:
        _note(f"error: {e}\n")
        return 2
    except ResourceLimit as e:
        _note(f"resource limit: {e}\n")
        return 3
    except ColsymError as e:
        _note(f"consistency failure: {e}\n")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
