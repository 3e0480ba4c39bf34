"""Colouring tiling patches and drawing them as SVG.

colour_patch pulls a colouring (a coset table of a qualifying subgroup)
onto a geometric patch: triangles are grouped into the tiles of the
chosen tiling by the stabilizer mirrors, each group gets one colour,
and a subgroup that does not actually contain the stabilizer gets
caught red-handed when a group straddles two colours.

The drawing pipeline is deliberately dumb: subdivide geodesic edges,
project, format floats at fixed precision, emit polygons in tile order,
doing the arithmetic for a block of triangles at a time.
Equal inputs give byte-equal SVG.
"""
from __future__ import annotations

import colorsys
import io
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

# triangles drawn per batch of array arithmetic
_BLOCK = 256

# the mirror each triangle side lies on; side s runs from corner s to
# corner s + 1 (mod 3)
_SIDE_MIRRORS = [C, A, B]

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


def _form(u: np.ndarray, v: np.ndarray, geometry: Geometry) -> np.ndarray:
    """<u, v> of form_matrix, negated on the hyperboloid: cos (cosh) of a distance."""
    dot = (u * form_matrix(geometry).diagonal() * v).sum(axis=-1)
    return -dot if geometry is Geometry.HYPERBOLIC else dot


def _geodesics(
    u: np.ndarray, v: np.ndarray, geometry: Geometry, ts: np.ndarray
) -> np.ndarray:
    """Points along the geodesics from u to v at the fractions ts of their length.

    u and v are (..., 3) arrays of points on the geometry's surface; the
    result is (..., len(ts), 3).  A side shorter than 1e-12 is drawn
    straight.
    """
    w0, w1, div = 1 - ts, ts, np.ones(1)
    if geometry is not Geometry.EUCLIDEAN:
        cos = _form(u, v, geometry)
        if geometry is Geometry.SPHERICAL:
            f, om = np.sin, np.arccos(np.clip(cos, -1.0, 1.0))[..., None]
        else:
            f, om = np.sinh, np.arccosh(np.maximum(1.0, cos))[..., None]
        straight = om < 1e-12
        w0, w1 = np.where(straight, w0, f(w0 * om)), np.where(straight, w1, f(w1 * om))
        div = np.where(straight, 1.0, f(om))
    return (w0[..., None] * u[..., None, :] + w1[..., None] * v[..., None, :]) / div[..., None]


def _drawn_blocks(patch: TrianglePatch, projection: str, ts: np.ndarray):
    """Yield (ids, sides) for each block of triangles drawn in projection.

    sides is (len(ids), 3, len(ts), 2): side s of a triangle, projected,
    runs from its corner s to corner s + 1 (mod 3).  The orthographic
    projection leaves out triangles on the far side of the sphere.
    """
    geometry, tiles, n = patch.triangle.geometry, patch.tiles, len(patch.tiles)
    corners = np.array(patch.triangle.corners)  # one corner per row
    for start in range(0, n, _BLOCK):
        ids = np.arange(start, min(start + _BLOCK, n))
        mats = np.array([t.matrix for t in tiles[start : start + _BLOCK]])
        pts = np.einsum("nij,kj->nki", mats, corners)  # (triangle, corner, xyz)
        if projection == "orthographic":
            near = (pts.sum(axis=1) / 3.0) @ _TILT[2] > 0.0
            pts, ids = pts[near], ids[near]
        # guard drift so points sit exactly on their surface before projecting
        if geometry is Geometry.EUCLIDEAN:
            pts = pts / pts[..., 2:]
        else:
            pts = pts / np.sqrt(np.maximum(1e-300, _form(pts, pts, geometry)))[..., None]
        arcs = _geodesics(pts, np.roll(pts, -1, axis=1), geometry, ts)
        yield ids, _project(arcs.reshape(-1, 3), projection).reshape(len(ids), 3, len(ts), 2)


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

    patch, n, s = cp.patch, len(cp.patch.tiles), subdivision
    ts = np.linspace(0.0, 1.0, s + 1)
    if projection in ("disk", "orthographic"):
        x0 = y0 = -1.05
        span = 2.1
    else:
        # frame every drawn point: one pass over the geometry before drawing
        lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
        for _, xy in _drawn_blocks(patch, projection, ts):
            ring = xy[:, :, :-1].reshape(-1, 2)
            lo, hi = np.minimum(lo, ring.min(axis=0)), np.maximum(hi, ring.max(axis=0))
        if projection == "stereographic":
            lo = np.maximum(lo, -3.0)
            hi = np.minimum(hi, 3.0)
        span = float(max(hi - lo)) * 1.07
        cx, cy = (lo + hi) / 2.0
        x0, y0 = float(cx) - span / 2, float(cy) - span / 2
    stroke = _fmt(span * 0.003).encode("ascii")

    # a side is on a merged-tile boundary when the triangle across lies
    # in another merged tile or outside the patch; strokes are drawn in
    # polygon order, triangle by triangle, sides in order
    order = np.fromiter((i for poly in cp.polygons for i in poly), int, n)
    owner, rank = np.empty(n, int), np.empty(n, int)
    owner[order] = np.repeat(np.arange(len(cp.polygons)), list(map(len, cp.polygons)))
    rank[order] = np.arange(n)
    across = np.array(patch.neighbours)[:, _SIDE_MIRRORS]
    boundary = (across < 0) | (owner[across] != owner[:, None])

    pair = b"%.5f %.5f"
    fill_templates = [
        b'\n<path d="M' + b"L".join([pair] * (3 * s)) + b'Z" fill="'
        + f.encode("ascii") + b'" stroke="none"/>'
        for f in palette(cp.k, palette_seed)
    ]
    stroke_template = (
        b'\n<path d="M' + b"L".join([pair] * (s + 1)) + b'" fill="none" stroke="#1a1a1a" '
        b'stroke-width="' + stroke + b'" stroke-linecap="round"/>'
    )
    colours = np.array(cp.colours) - 1
    strokes: list[bytes | None] = [None] * (3 * n)
    svg = io.BytesIO()
    svg.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span)} {_fmt(span)}">\n'
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(span)}" height="{_fmt(span)}" '
        f'fill="#ffffff"/>'.encode("ascii")
    )
    for ids, xy in _drawn_blocks(patch, projection, ts):
        ring = xy[:, :, :-1].reshape(len(ids), 6 * s).tolist()
        svg.write(
            b"".join(
                fill_templates[c] % tuple(row) for c, row in zip(colours[ids].tolist(), ring)
            ).replace(b"-0.00000", b"0.00000")
        )
        edge = boundary[ids]
        keys = (rank[ids][:, None] * 3 + np.arange(3))[edge]
        for key, row in zip(keys.tolist(), xy[edge].reshape(len(keys), 2 * s + 2).tolist()):
            strokes[key] = (stroke_template % tuple(row)).replace(b"-0.00000", b"0.00000")
    svg.writelines(d for d in strokes if d is not None)
    if projection == "disk":
        svg.write(b'\n<circle cx="0" cy="0" r="1" fill="none" stroke="#1a1a1a" '
                  b'stroke-width="%s"/>' % stroke)
    svg.write(b"\n</svg>")
    data = svg.getvalue()

    if out is not None:
        if hasattr(out, "write"):
            out.write(data)
        else:
            with open(out, "wb") as fh:
                fh.write(data)
    return data
