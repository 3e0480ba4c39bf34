"""Colouring tiling patches and drawing them as SVG.

colour_patch pulls a colouring (a coset table of a qualifying subgroup)
onto a geometric patch: triangles are grouped into the tiles of the
chosen tiling by the stabilizer mirrors, each group gets one colour,
and a subgroup that does not actually contain the stabilizer gets
caught red-handed when a group straddles two colours.

The drawing pipeline is deliberately dumb: subdivide geodesic edges,
project, format floats at fixed precision, emit polygons in tile order.
Equal inputs give byte-equal SVG.
"""
from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass

import numpy as np

from .census import Scope, TilingKind, required_words
from .coset import CosetTable
from .errors import DomainError, MergeInconsistency
from .geometry import TrianglePatch, form_matrix
from .presentations import Geometry
from .subgroups import orientation_sides
from .words import A, B, C, Word


@dataclass(frozen=True, eq=False)
class ColouredPatch:
    patch: TrianglePatch
    table: CosetTable
    kind: TilingKind
    scope: Scope
    k: int  # number of colours
    colours: tuple[int, ...]  # per triangle, 1-based
    polygons: tuple[tuple[int, ...], ...]  # triangle ids per merged tile
    polygon_size: int  # triangles in a complete merged tile


def _coset_colours(t: CosetTable, scope: Scope) -> list[int]:
    """The colour of each coset, 1-based, or 0 for a coset with no colour.

    Full scope: each coset is a colour.  Rotation scope: the colours are
    the orientation-preserving cosets, reached by words of even length,
    in increasing order; that is well defined only for an orientation
    subgroup.
    """
    if scope is Scope.FULL:
        return list(range(1, t.n + 1))
    side = orientation_sides(t)
    if side is None:
        raise DomainError("rotation-scope colouring needs an orientation subgroup")
    ranks = iter(range(1, t.n + 1))
    return [0 if s else next(ranks) for s in side]


def colour_patch(
    patch: TrianglePatch,
    table: CosetTable,
    kind: TilingKind,
    scope: Scope = Scope.FULL,
) -> ColouredPatch:
    """Colour the patch by the subgroup of the (reflection) coset table.

    The table's base coset must literally be fixed by the stabilizer
    words of the tiling kind (census representatives are stored that
    way).  Full scope: the colour of triangle f(F) is the coset of
    f^-1.  Rotation scope: the subgroup lies in the rotation half and
    colours are its cosets there; an odd triangle word reaches a coset
    with no colour and is completed to an even one by a stabilizer
    mirror, which lands in the same merged tile by construction.
    """
    words = required_words(kind, Scope.FULL)
    r1, r2 = words[0][0], words[1][0]
    alphabet = table.alphabet
    n_tiles = len(patch.tiles)
    colour_of = _coset_colours(table, scope)

    colours: list[int] = []
    for t in patch.tiles:
        iw = alphabet.inverse_word(t.word)
        cos = table.apply(0, iw)
        if not colour_of[cos]:
            cos = table.apply(0, (r2,) + iw)
        colours.append(colour_of[cos])

    # group triangles into merged tiles: stepping inward across the two
    # stabilizer mirrors ends at the tile's nearest triangle, the coset's
    # minimal element and so the first of its group in patch order
    nbrs = patch.neighbours
    root = list(range(n_tiles))
    groups: dict[int, list[int]] = {}
    for i in range(n_tiles):
        for g in (r1, r2):
            j = nbrs[i][g]
            if 0 <= j < i:
                root[i] = root[j]
                break
        groups.setdefault(root[i], []).append(i)
    polygons = tuple(tuple(g) for g in groups.values())

    for poly in polygons:
        first = colours[poly[0]]
        for i in poly[1:]:
            if colours[i] != first:
                raise MergeInconsistency(
                    f"merged tile {poly} got colours {first} and {colours[i]}: "
                    "the subgroup does not contain this tile stabilizer"
                )

    size = {TilingKind.PQ: 2 * patch.p, TilingKind.QP: 2 * patch.q, TilingKind.LAVES: 4}[
        kind
    ]
    return ColouredPatch(
        patch, table, kind, scope, max(colour_of), tuple(colours), polygons, size
    )


def verify_perfect_on_patch(cp: ColouredPatch, w: Word) -> bool:
    """Does the symmetry w permute the patch colours as the table says?

    Maps the triangles through w (see TrianglePatch.image; w may be no
    longer than the patch depth, so the centre triangle is always
    mapped) and checks that each triangle's image has the colour the
    table sends its colour to (see colour_permutation).  An odd word
    carries a rotation-scope colour to a coset with no colour, so it
    fails there: only rotations are colour symmetries of such a colouring.
    """
    table = cp.table
    image = cp.patch.image(w)
    colour_of = _coset_colours(table, cp.scope)
    iw = table.alphabet.inverse_word(w)
    moved = {c: colour_of[table.apply(i, iw)] for i, c in enumerate(colour_of) if c}
    colours = cp.colours
    return all(moved.get(colours[i]) == colours[j] for i, j in enumerate(image) if j >= 0)


# ---------------------------------------------------------------- SVG

# triangle sides as corner pairs, with the mirror each lies on
_SIDES = (((0, 1), C), ((1, 2), A), ((2, 0), B))

# fixed small tilt so no tiling vertex sits at the projection pole
_TILT = np.array(
    [
        [1.0, 0, 0],
        [0, math.cos(0.37), -math.sin(0.37)],
        [0, math.sin(0.37), math.cos(0.37)],
    ]
)


def _project(points: np.ndarray, projection: str) -> np.ndarray:
    if projection == "identity":
        return points[:, :2]
    if projection != "disk":
        points = points @ _TILT.T
    if projection == "orthographic":
        return points[:, :2]
    return points[:, :2] / (1.0 + points[:, 2:3])


_DEFAULT_PROJECTION = {
    Geometry.HYPERBOLIC: "disk",
    Geometry.SPHERICAL: "stereographic",
    Geometry.EUCLIDEAN: "identity",
}

_ALLOWED = {
    Geometry.HYPERBOLIC: {"disk"},
    Geometry.SPHERICAL: {"stereographic", "orthographic"},
    Geometry.EUCLIDEAN: {"identity"},
}


def _geodesic(
    u: np.ndarray, v: np.ndarray, geometry: Geometry, J: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Points along the geodesic from u to v at the fractions ts of its length.

    J is the geometry's form_matrix.
    """
    if geometry is Geometry.EUCLIDEAN:
        return np.outer(1 - ts, u) + np.outer(ts, v)
    if geometry is Geometry.SPHERICAL:
        dot = float(np.clip(u @ v, -1.0, 1.0))
        om = math.acos(dot)
        if om < 1e-12:
            return np.outer(1 - ts, u) + np.outer(ts, v)
        return (
            np.outer(np.sin((1 - ts) * om), u) + np.outer(np.sin(ts * om), v)
        ) / math.sin(om)
    dot = float(u @ J @ v)
    d = math.acosh(max(1.0, -dot))
    if d < 1e-12:
        return np.outer(1 - ts, u) + np.outer(ts, v)
    return (
        np.outer(np.sinh((1 - ts) * d), u) + np.outer(np.sinh(ts * d), v)
    ) / math.sinh(d)


def palette(k: int, seed: int = 0) -> tuple[str, ...]:
    """k well-spread fill colours; the seed rotates the hue wheel."""
    offset = (seed * 0.6180339887498949) % 1.0
    out = []
    for i in range(k):
        h = (i / k + offset) % 1.0
        r, g, b = colorsys.hls_to_rgb(h, 0.57, 0.65)
        out.append(f"#{round(r*255):02x}{round(g*255):02x}{round(b*255):02x}")
    return tuple(out)


def _fmt(v: float) -> str:
    s = f"{v:.5f}"
    return "0.00000" if s == "-0.00000" else s


def emit_svg(
    cp: ColouredPatch,
    out=None,
    *,
    projection: str = "auto",
    palette_seed: int = 0,
    subdivision: int = 12,
    size: int = 700,
) -> bytes:
    """Draw the coloured patch; returns the SVG bytes, optionally writing.

    out may be a path or a binary file object.  The output is a pure
    function of the arguments: rendering twice gives identical bytes.
    """
    geometry = cp.patch.triangle.geometry
    if projection == "auto":
        projection = _DEFAULT_PROJECTION[geometry]
    if projection not in _ALLOWED[geometry]:
        raise DomainError(
            f"projection {projection!r} does not fit {geometry.value} geometry"
        )
    if subdivision < 1:
        raise DomainError("subdivision must be at least 1")
    if size < 1:
        raise DomainError("size must be at least 1")

    patch = cp.patch
    fills = palette(cp.k, palette_seed)
    J = form_matrix(geometry)
    ts = np.linspace(0.0, 1.0, subdivision + 1)

    def normalized(pt: np.ndarray) -> np.ndarray:
        # guard drift so points sit exactly on their surface before projecting
        if geometry is Geometry.SPHERICAL:
            return pt / np.linalg.norm(pt)
        if geometry is Geometry.EUCLIDEAN:
            return pt / pt[2]
        return pt / math.sqrt(max(1e-300, -float(pt @ J @ pt)))

    # one pass in tile order: each drawn triangle's sides are computed,
    # projected and formatted once; the fill path is built at once, and
    # the sides on merged-tile boundaries (the triangle across lies in
    # another merged tile or outside the patch) are kept for the strokes
    owner = {i: k for k, poly in enumerate(cp.polygons) for i in poly}
    fill_paths: list[str] = []
    edges: dict[int, list[str]] = {}
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for i, links in enumerate(patch.neighbours):
        corners = patch.corners_of(i)
        if projection == "orthographic" and not (_TILT @ (sum(corners) / 3.0))[2] > 0.0:
            continue  # on the far side of the sphere
        cs = [normalized(c) for c in corners]
        segs = [_geodesic(cs[a_], cs[b_], geometry, J, ts) for (a_, b_), _ in _SIDES]
        xy = _project(np.vstack(segs), projection).reshape(3, subdivision + 1, 2)
        ring = xy[:, :-1].reshape(-1, 2)
        lo, hi = np.minimum(lo, ring.min(axis=0)), np.maximum(hi, ring.max(axis=0))
        sides = [[f"{_fmt(x)} {_fmt(y)}" for x, y in side] for side in xy.tolist()]
        d = "M" + "L".join(pt for side in sides for pt in side[:-1]) + "Z"
        fill_paths.append(f'<path d="{d}" fill="{fills[cp.colours[i] - 1]}" stroke="none"/>')
        edges[i] = [
            "M" + "L".join(side)
            for side, (_, g) in zip(sides, _SIDES)
            if links[g] < 0 or owner[links[g]] != owner[i]
        ]

    if projection in ("disk", "orthographic"):
        x0 = y0 = -1.05
        span = 2.1
    else:
        if projection == "stereographic":
            lo = np.maximum(lo, -3.0)
            hi = np.minimum(hi, 3.0)
        span = float(max(hi - lo)) * 1.07
        cx, cy = (lo + hi) / 2.0
        x0, y0 = float(cx) - span / 2, float(cy) - span / 2
    stroke = span * 0.003
    stroke_attrs = (
        f'fill="none" stroke="#1a1a1a" stroke-width="{_fmt(stroke)}" stroke-linecap="round"'
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span)} {_fmt(span)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(span)}" height="{_fmt(span)}" fill="#ffffff"/>',
    ]
    parts += fill_paths
    for poly in cp.polygons:
        for i in poly:
            parts += (f'<path d="{d}" {stroke_attrs}/>' for d in edges.get(i, ()))
    if projection == "disk":
        parts.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    parts.append("</svg>")
    data = "\n".join(parts).encode("ascii")

    if out is not None:
        if hasattr(out, "write"):
            out.write(data)
        else:
            with open(out, "wb") as fh:
                fh.write(data)
    return data
