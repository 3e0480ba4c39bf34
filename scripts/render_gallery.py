#!/usr/bin/env python3
"""Render a small gallery of perfect colourings to out/ as SVG files.

Usage: python3 scripts/render_gallery.py [--out DIR] [--depth N]

Picks one representative for a handful of showcase tilings: the
two-coloured square tiling, the coloured cube and icosahedron, and a
few hyperbolic censuses in both scopes.
"""
import argparse
import os
import sys
import time

from colsym.cache import cached_provider
from colsym.census import Scope, TilingKind, census
from colsym.geometry import generate_patch
from colsym.presentations import Geometry, classify_geometry
from colsym.render import colour_patch, emit_svg

SHOWCASE = [
    # p, q, kind, scope, colours, pick
    (4, 4, TilingKind.PQ, Scope.FULL, 2, 0),
    (4, 3, TilingKind.PQ, Scope.FULL, 3, 0),
    (4, 3, TilingKind.PQ, Scope.FULL, 6, 0),
    (3, 5, TilingKind.PQ, Scope.FULL, 10, 0),
    (3, 5, TilingKind.PQ, Scope.FULL, 20, 0),
    (7, 3, TilingKind.PQ, Scope.FULL, 8, 0),
    (7, 3, TilingKind.LAVES, Scope.FULL, 9, 0),
    (7, 3, TilingKind.QP, Scope.FULL, 22, 0),
    (7, 3, TilingKind.PQ, Scope.ROTATION, 9, 0),
    (7, 3, TilingKind.LAVES, Scope.ROTATION, 14, 2),
    (5, 4, TilingKind.LAVES, Scope.FULL, 10, 1),
    (8, 3, TilingKind.PQ, Scope.ROTATION, 10, 0),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument(
        "--depth", type=int, default=7,
        help="patch radius of the plane tilings; spheres are drawn whole",
    )
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    provider = cached_provider()

    patches = {}
    for p, q, kind, scope, k, pick in SHOWCASE:
        t0 = time.perf_counter()
        report = census(p, q, kind, scope, k, classes_provider=provider)
        entry = next(e for e in report.entries if e.colours == k)
        table = entry.representatives[pick].table
        key = (p, q)
        if key not in patches:
            # a spherical patch stops growing once it is the whole tiling
            spherical = classify_geometry(p, q) is Geometry.SPHERICAL
            depth = 40 if spherical else args.depth
            patches[key] = generate_patch(p, q, depth)
        cp = colour_patch(patches[key], table, kind, scope)
        name = (
            f"{kind.display(p, q).strip('()[]').replace('.', '_').replace('^', 'e')}"
            f"_{scope.value}_k{k}_{pick}.svg"
        )
        path = os.path.join(args.out, name)
        data = emit_svg(cp)
        with open(path, "wb") as fh:
            fh.write(data)
        print(
            f"{path}: {kind.display(p, q)} {scope.value} k={k}, "
            f"{len(cp.polygons)} tiles, {len(data)} bytes "
            f"({time.perf_counter() - t0:.2f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
