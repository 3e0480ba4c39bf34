"""Command line front end.

    colsym census   --p 7 --q 3 --tiling laves --max-colours 42
    colsym render   --p 4 --q 4 --tiling pq --colours 2 --out board.svg
    colsym verify   --p 7 --q 3 --tiling pq --scope rotation --colours 22
    colsym selftest --level full
    colsym cache ls

Exit codes: 0 success, 1 a verification or internal consistency check
failed, 2 bad usage or parameters outside the supported domain,
3 a resource budget was exceeded.
"""
from __future__ import annotations

import argparse
import random
import sys

from .cache import cache_clear, cache_entries, cached_provider, default_cache_dir
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
    sp.add_argument("--jobs", type=int, default=1, help="parallel search processes, at most one "
                    "per CPU this process may use, and one where the platform cannot fork: all "
                    "walk the shared top of the search tree, and the subtrees below a fixed depth "
                    "are dealt out in turn")
    sp.add_argument("--no-cache", action="store_true", help="skip the disk cache")
    sp.add_argument("--cache-dir", default=None, help="cache directory override")


def _budget_options(sp: argparse.ArgumentParser) -> None:
    _provider_options(sp)
    sp.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="abort the subgroup search after this many search nodes, counted "
        "per search process over all the seed walks of a group, shared top "
        "included, so the total grows with --jobs",
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
    sp.add_argument(
        "--strategy",
        choices=["a", "b", "both"],
        default="b",
        help="rotation scope route: via the reflection group (a), via the "
        "rotation group with mirror fusion (b, the default, which searches "
        "least), or both with a cross-check",
    )
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
    sp.add_argument("--subdiv", type=int, default=12, help="points per drawn edge")
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
        help="patch radius in triangles (default 16); words are 1 to "
        "min(12, depth) letters long, even in rotation scope",
    )
    sp.add_argument(
        "--words", type=int, default=50, help="random symmetries to test (at least 1)"
    )
    sp.add_argument("--seed", type=int, default=0)
    _budget_options(sp)

    sp = sub.add_parser("selftest", help="recompute and compare the frozen results")
    sp.add_argument(
        "--level",
        choices=["fast", "full"],
        default="fast",
        help="fast: one hyperbolic group; full: every frozen table row",
    )
    _provider_options(sp)

    sp = sub.add_parser("cache", help="inspect or clear the enumeration cache")
    sp.add_argument("action", choices=["ls", "clear"])
    sp.add_argument("--cache-dir", default=None)

    return ap


def _provider(args):
    return cached_provider(
        args.cache_dir,
        enabled=not args.no_cache,
        jobs=args.jobs,
        node_budget=args.max_nodes,
    )


def _representative(args, k: int):
    """The census representative selected by --colours/--pick."""
    kind = TilingKind(args.tiling)
    scope = Scope(args.scope)
    report = census(args.p, args.q, kind, scope, k, classes_provider=_provider(args))
    for e in report.entries:
        if e.colours == k:
            if not 0 <= args.pick < len(e.representatives):
                raise DomainError(
                    f"--pick {args.pick} out of range: {len(e.representatives)} "
                    f"colourings with {k} colours"
                )
            return report, e.representatives[args.pick].table
    raise DomainError(
        f"no perfect colouring of {kind.display(args.p, args.q)} "
        f"({scope.value} scope) with {k} colours"
    )


def _default_depth(p: int, q: int) -> int:
    # a spherical patch stops growing once the group is exhausted, so a
    # generous depth just means "the whole tiling" there
    return 40 if classify_geometry(p, q) is Geometry.SPHERICAL else 5


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e.strerror}") from None


def cmd_census(args) -> int:
    report = census(
        args.p,
        args.q,
        TilingKind(args.tiling),
        Scope(args.scope),
        args.max_colours,
        strategy=args.strategy,
        classes_provider=_provider(args),
    )
    text = format_census(report, args.format)
    if args.out:
        _write(args.out, (text + "\n").encode("ascii"))
    else:
        print(text)
    print(f"# {report.elapsed:.2f}s, strategy {report.strategy}", file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    _, table = _representative(args, args.colours)
    depth = args.depth if args.depth is not None else _default_depth(args.p, args.q)
    patch = generate_patch(args.p, args.q, depth)
    cp = colour_patch(patch, table, TilingKind(args.tiling), Scope(args.scope))
    data = emit_svg(
        cp,
        projection=args.projection,
        palette_seed=args.palette_seed,
        subdivision=args.subdiv,
        size=args.size,
    )
    if args.out:
        _write(args.out, data)
        print(f"# wrote {args.out}: {len(data)} bytes, {len(cp.polygons)} tiles",
              file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_verify(args) -> int:
    if args.words < 1:
        raise DomainError("--words must be at least 1")
    kind = TilingKind(args.tiling)
    scope = Scope(args.scope)
    # a word is checkable when it is no longer than the patch depth, and
    # only even words are colour symmetries in rotation scope
    step = 2 if scope is Scope.ROTATION else 1
    longest = min(12, args.depth) // step
    if longest < 1:
        raise DomainError(
            f"--depth must be at least {step} to check {scope.value}-scope words"
        )
    _, table = _representative(args, args.colours)
    patch = generate_patch(args.p, args.q, args.depth)
    cp = colour_patch(patch, table, kind, scope)
    rng = random.Random(args.seed)

    def random_word():
        w = []
        for _ in range(step * rng.randint(1, longest)):
            w.append(rng.choice([g for g in (A, B, C) if not w or g != w[-1]]))
        return tuple(w)

    words = [random_word() for _ in range(args.words)]
    bad = 0
    for w in words:
        if not verify_perfect_on_patch(cp, w):
            bad += 1
            print(f"FAIL word {w} does not permute colours consistently")
    # each word w is checked on every triangle within depth - len(w)
    reach = args.depth - max(map(len, words))
    checked = sum(len(t.word) <= reach for t in patch.tiles)
    status = "PASS" if bad == 0 else "FAIL"
    print(
        f"{status} {kind.display(args.p, args.q)} {scope.value} "
        f"k={cp.k}: {args.words - bad}/{args.words} words consistent "
        f"on {len(cp.polygons)} tiles, each checked on at least "
        f"{checked} of {len(patch.tiles)} triangles"
    )
    return 0 if bad == 0 else 1


def cmd_selftest(args) -> int:
    ok = run_selftest(
        args.level,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    return 0 if ok else 1


def cmd_cache(args) -> int:
    directory = args.cache_dir or default_cache_dir()
    if args.action == "ls":
        entries = cache_entries(args.cache_dir)
        print(f"# cache at {directory}")
        for e in entries:
            if e["classes"] is None:
                print(f"{e['name']:14s} corrupt or stale")
            else:
                print(f"{e['name']:14s} max_index={e['max_index']:3d} classes={e['classes']}")
        if not entries:
            print("# empty")
    else:
        removed = cache_clear(args.cache_dir)
        print(f"# removed {removed} files from {directory}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "census": cmd_census,
        "render": cmd_render,
        "verify": cmd_verify,
        "selftest": cmd_selftest,
        "cache": cmd_cache,
    }[args.command]
    try:
        return handler(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except ColsymError as e:
        print(f"consistency failure: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
