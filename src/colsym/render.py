"""Colouring tiling patches and drawing them as SVG.

colour_patch pulls a colouring (a coset table of a qualifying subgroup)
onto a geometric patch: triangles are grouped into the tiles of the
chosen tiling by the stabilizer mirrors, and each group gets one colour,
as the table's base coset is fixed by the tile stabilizer; a table whose
base coset is not is refused before the patch is read.

The drawing pipeline is deliberately dumb: the base triangle's geodesic
sides are subdivided once, moved onto a block of triangles at a time by
their matrices and projected, and each point is formatted once.  Each
triangle is filled, then the tile edges are stroked from the same
points, both in patch order.  Equal inputs give byte-equal SVG.

Every number is written as "%.5f" writes it, except that -0.00000 is
written 0.00000.  _decimal_fields formats a block of points at a time:
integer arithmetic builds the digits in a character array, and only a
number that arithmetic might round differently (a scaled fraction at one
half, or a magnitude of about 21,475 or more) is formatted by Python.  A
non-finite coordinate raises InternalError instead of writing nan or inf.
numpy is imported inside the functions, so a census never loads it.
"""
from __future__ import annotations

import colorsys
import io
import math
from dataclasses import dataclass

from .census import TILE_MIRRORS, Scope, TilingKind, colour_permutation, required_words
from .coset import CosetTable, fixed_cosets, orientation_sides
from .errors import DomainError, InternalError, check_count
from .geometry import TrianglePatch, form_matrix
from .presentations import Geometry
from .words import A, B, C, REFLECTIONS, Word


@dataclass(frozen=True, eq=False)
class ColouredPatch:
    patch: TrianglePatch
    table: CosetTable
    kind: TilingKind
    scope: Scope
    k: int  # number of colours
    colours: np.ndarray  # per triangle, 1-based
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

    The table must be over the reflection alphabet with its base coset
    fixed by the tile stabilizer words (census representatives are
    stored that way), or the call raises DomainError.  Full
    scope: the colour of triangle f(F) is the coset of f^-1, one per
    merged tile as S.s = S for each stabilizer element s.  Rotation
    scope: the subgroup lies in the rotation half and colours are its
    cosets there; an odd triangle x gets the coset S.r2.x^-1 of its even
    tile-mate x.r2, as the tile rotation r1.r2 lies in S.

    The cosets come a level at a time: a triangle x whose word starts
    with g, as its parent's does, has coset(x) = rows[coset(g.x)][g],
    and g.x is g.parent stepped across x's last mirror, one level nearer
    the centre.  In rotation scope the cosets also run from the second
    root rows[0][r2].  A merged tile's root is its triangle nearest the
    centre: the root of x is that of x's inward r1 neighbour, failing
    that of its inward r2 neighbour, or else x itself.
    """
    import numpy as np
    words = required_words(kind, scope)
    if table.alphabet != REFLECTIONS or 0 not in fixed_cosets(table, words):
        raise DomainError(
            f"coset 0 of the table is not fixed by the {kind.value} {scope.value} tile stabilizer")
    r1, r2 = TILE_MIRRORS[kind]
    rows = np.array(table.rows)
    colour_of = np.array(_coset_colours(table, scope))
    nbrs, last, parent = patch.neighbours, patch.last, patch.parents
    n = len(last)

    cosets = np.empty((n, 1 if scope is Scope.FULL else 2), np.intp)
    cosets[0] = 0 if scope is Scope.FULL else (0, rows[0, r2])
    first, shorter = last.copy(), np.zeros(n, np.intp)  # right on level 1
    root = np.arange(n)
    for a, b in zip(patch.ends[1:], patch.ends[2:]):
        if a > 1:
            up = parent[a:b]
            first[a:b] = first[up]
            shorter[a:b] = nbrs[shorter[up], last[a:b]]
        cosets[a:b] = rows[cosets[shorter[a:b]], first[a:b, None]]
        inward = (0 <= nbrs[a:b]) & (nbrs[a:b] < a)
        root[a:b] = np.where(inward[:, r1], root[nbrs[a:b, r1]],
                             np.where(inward[:, r2], root[nbrs[a:b, r2]], root[a:b]))
    # in full scope both columns are the one column, whose cosets all have colours
    by_root = colour_of[cosets]
    colours = np.where(by_root[:, 0] > 0, by_root[:, 0], by_root[:, -1])
    order = np.argsort(root, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(root[order])) + 1).tolist(), n]
    members = order.tolist()
    polygons = tuple(tuple(members[s:e]) for s, e in zip(cuts, cuts[1:]))

    size = {TilingKind.PQ: 2 * patch.p, TilingKind.QP: 2 * patch.q, TilingKind.LAVES: 4}[
        kind
    ]
    return ColouredPatch(
        patch, table, kind, scope, int(colour_of.max()), colours, polygons, size
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
    import numpy as np
    table = cp.table
    image = cp.patch.image(w)
    colour_of = np.array(_coset_colours(table, cp.scope))
    moved = np.zeros(cp.k + 1, np.intp)  # colour c goes to moved[c]; 0 is no colour
    moved[colour_of] = colour_of[list(colour_permutation(table, w))]
    colours = np.asarray(cp.colours)
    inside = image >= 0
    return bool((moved[colours[inside]] == colours[image[inside]]).all())


# ---------------------------------------------------------------- SVG

# triangles drawn per batch of array arithmetic
_BLOCK = 256

# the mirror each triangle side lies on; side s runs from corner s to
# corner s + 1 (mod 3)
_SIDE_MIRRORS = [C, A, B]

# fixed small tilt so no tiling vertex sits at the projection pole
_TILT = (
    (1.0, 0.0, 0.0),
    (0.0, math.cos(0.37), -math.sin(0.37)),
    (0.0, math.sin(0.37), math.cos(0.37)),
)


def _project(points: np.ndarray, projection: str) -> np.ndarray:
    import numpy as np
    if projection == "identity":
        return points[:, :2]
    if projection != "disk":
        points = points @ np.transpose(_TILT)
    if projection == "orthographic":
        return points[:, :2]
    return points[:, :2] / (1.0 + points[:, 2:3])


# the projections that fit each geometry; the first is its default
_PROJECTIONS = {
    Geometry.HYPERBOLIC: ("disk",),
    Geometry.SPHERICAL: ("stereographic", "orthographic"),
    Geometry.EUCLIDEAN: ("identity",),
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
    import numpy as np
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

    sides is (len(ids), 3, len(ts), 2): side s of a triangle, the base
    triangle's side s moved by its matrix (an isometry keeps geodesics and
    arc length) and projected, runs from corner s to corner s + 1 (mod 3).
    The orthographic projection leaves out triangles on the far side.
    """
    import numpy as np
    tri, n = patch.triangle, len(patch.last)
    base = _geodesics(tri.corners, np.roll(tri.corners, -1, axis=0), tri.geometry, ts)
    for start in range(0, n, _BLOCK):
        ids = np.arange(start, min(start + _BLOCK, n))
        pts = (patch.matrices[start : start + _BLOCK] @ base.reshape(-1, 3).T).transpose(0, 2, 1)
        if projection == "orthographic":  # by the corners, each side's first point
            near = (pts[:, :: len(ts)].sum(axis=1) / 3.0) @ _TILT[2] > 0.0
            pts, ids = pts[near], ids[near]
        # guard drift so points sit exactly on their surface before projecting
        if tri.geometry is Geometry.EUCLIDEAN:
            pts = pts / pts[..., 2:]
        else:
            pts = pts / np.sqrt(np.maximum(1e-300, _form(pts, pts, tri.geometry)))[..., None]
        yield ids, _project(pts.reshape(-1, 3), projection).reshape(len(ids), 3, len(ts), 2)


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


def _decimal_fields(values: np.ndarray) -> np.ndarray:
    """Each number of values written as _fmt writes it, in a uint8 field.

    The fields are values.shape + (h + 7,): h slots for the sign and the
    digits before the point, right-aligned, then the point, five digits
    and a slot for the separator _joined_rows writes; the rest are 0.
    Each number is k = rint(|x| * 1e5) hundred-thousandths, put digit by
    digit into its field.  "%.5f" rounds the exact value of x.  The
    product |x| * 1e5 is correctly rounded and every half n + 1/2 is a
    double, so the product can land on a half but never crosses one: off
    a half, rint rounds as "%.5f" does.  Only numbers whose scaled
    fraction lies within a few ulps of one half, or whose scaled magnitude
    reaches 2^31, are written one at a time, by _fmt.  A non-finite
    number is an InternalError.
    """
    import numpy as np
    if not np.isfinite(values).all():
        raise InternalError("non-finite coordinate in SVG path data")
    # scaled magnitudes from top up go to _fmt, so k fits int32, whose
    # digit arithmetic runs four times faster than int64's
    top = 2.0**31
    a = np.minimum(np.abs(values), top) * 1e5  # clipped only where slow: no overflow
    r = np.rint(a)
    slow = (r >= top) | (np.abs(np.abs(a - r) - 0.5) <= a * 2.0**-50)
    k = np.where(slow, 0.0, r).astype(np.int32)
    neg = (values < 0) & (k > 0)
    one_by_one = [_fmt(x).encode("ascii") for x in values[slow].tolist()]
    whole = len(str(int(k.max(initial=0)) // 100_000))  # most digits before the point
    h = max([whole + 1] + [len(s) - 6 for s in one_by_one])

    field = np.zeros((*values.shape, h + 7), np.uint8)
    for slot in [*range(h + 5, h, -1), h - 1]:  # the digits always shown
        q = k // 10
        field[..., slot] = k - 10 * q + 48
        k = q
    # a higher digit shows while some remain; the sign goes just before them
    signed = neg
    for slot in range(h - 2, -1, -1):
        q = k // 10
        more = k > 0
        field[..., slot] = np.where(more, k - 10 * q + 48, 45 * signed)  # 45 is "-"
        k, signed = q, more & neg
    field[..., h] = 46  # "."
    for i, s in zip(np.flatnonzero(slow).tolist(), one_by_one):  # k is 0: s covers all shown
        field.reshape(-1, h + 7)[i, h + 6 - len(s) : h + 6] = np.frombuffer(s, np.uint8)
    return field


def _joined_rows(fields: np.ndarray, seps: bytes, prefix: bytes, suffixes: np.ndarray) -> bytes:
    """Rows of (rows, n, width) _decimal_fields joined, less their 0 bytes.

    Row i is prefix, its n numbers with seps[j] after number j, then
    suffixes[i], a row of the uint8 array suffixes; none holds a 0 byte.
    """
    import numpy as np
    rows, n, width = fields.shape
    text = np.concatenate(
        [np.broadcast_to(np.frombuffer(prefix, np.uint8), (rows, len(prefix))),
         fields.reshape(rows, n * width), suffixes], axis=1)
    at = len(prefix) + width - 1  # each field's separator slot, 0 after the row's last
    text[:, at : at + n * width : width] = np.frombuffer(seps + b"\0", np.uint8)
    return text[text != 0].tobytes()


def emit_svg(
    cp: ColouredPatch,
    *,
    projection: str = "auto",
    palette_seed: int = 0,
    subdivision: int = 12,
    size: int = 700,
) -> bytes:
    """Draw the coloured patch as SVG bytes.  The output is a pure
    function of the arguments: rendering twice gives identical bytes.
    """
    import numpy as np
    geometry = cp.patch.triangle.geometry
    if projection == "auto":
        projection = _PROJECTIONS[geometry][0]
    if projection not in _PROJECTIONS[geometry]:
        raise DomainError(
            f"projection {projection!r} does not fit {geometry.value} geometry"
        )
    check_count(subdivision, "subdivision", 1)
    check_count(size, "size", 1)

    patch, s = cp.patch, subdivision
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

    # a tile's triangles form a coset of the stabilizer, so a side is a tile
    # edge unless its mirror is a stabilizer mirror and the triangle across is in the patch
    across = patch.neighbours[:, _SIDE_MIRRORS]
    boundary = (across < 0) | ~np.isin(_SIDE_MIRRORS, TILE_MIRRORS[cp.kind])

    fill_tails = np.frombuffer(
        b"".join(b'Z" fill="' + f.encode("ascii") + b'" stroke="none"/>'
                 for f in palette(cp.k, palette_seed)), np.uint8
    ).reshape(cp.k, -1)  # every palette colour is #rrggbb
    stroke_tail = np.frombuffer(
        b'" fill="none" stroke="#1a1a1a" stroke-width="' + stroke
        + b'" stroke-linecap="round"/>', np.uint8
    )
    fill_seps, stroke_seps = (b" L" * (3 * s))[:-1], (b" L" * (s + 1))[:-1]
    colours = np.asarray(cp.colours) - 1
    # each block's tile edges, formatted, to be joined after every fill:
    # held that long as bytes, they would fragment the heap the SVG grows in
    strokes: list[np.ndarray] = []
    svg = io.BytesIO()
    svg.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span)} {_fmt(span)}">\n'
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(span)}" height="{_fmt(span)}" '
        f'fill="#ffffff"/>'.encode("ascii")
    )
    for ids, xy in _drawn_blocks(patch, projection, ts):
        field = _decimal_fields(xy)  # each point formatted once
        ring = field[:, :, :-1].reshape(len(ids), 6 * s, -1)  # each side but its end
        svg.write(_joined_rows(ring, fill_seps, b'\n<path d="M', fill_tails[colours[ids]]))
        strokes.append(field[boundary[ids]].reshape(-1, 2 * s + 2, field.shape[-1]))
    for edges in strokes:
        svg.write(_joined_rows(edges, stroke_seps, b'\n<path d="M',
                               np.broadcast_to(stroke_tail, (len(edges), stroke_tail.size))))
    if projection == "disk":
        svg.write(b'\n<circle cx="0" cy="0" r="1" fill="none" stroke="#1a1a1a" '
                  b'stroke-width="%s"/>' % stroke)
    svg.write(b"\n</svg>")
    return svg.getvalue()
