"""Colouring tiling patches and drawing them as SVG.

colour_patch pulls a colouring (a coset table of a qualifying subgroup)
onto a geometric patch: triangles are grouped into the tiles of the
chosen tiling by the stabilizer mirrors, and each group gets one colour,
as the table's base coset is fixed by the tile stabilizer; a table whose
base coset is not is refused before the patch is read.

The drawing pipeline is deliberately dumb: the base triangle's geodesic
sides are subdivided once into `subdivision` equal arcs.  Each
triangle's corners are moved by its matrix and projected first, and
each side is drawn with the fewest of those arcs, a divisor of
`subdivision`, that keep its chord on screen within 2 px an arc (at the
default 12, a side longer than 12 px keeps all 12).  Only the points so
drawn are moved onto a block of triangles at a time, put back on their
surface, projected and formatted, each once.  Each triangle is filled,
then the tile edges are stroked from the same points, both in patch
order.  Equal inputs give byte-equal SVG.

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
from .coset import CosetTable, least_fixed_coset, orientation_sides
from .errors import DomainError, InternalError, check_count
from .geometry import TrianglePatch
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
    if table.alphabet != REFLECTIONS or least_fixed_coset(table, words) != 0:
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

# the most triangles drawn per batch of array arithmetic
_BLOCK = 1024

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
    """(3, ...) coordinates of points on their surface projected to (2, ...)."""
    import numpy as np
    if projection == "identity":
        return points[:2]
    if projection != "disk":
        points = (np.array(_TILT) @ points.reshape(3, -1)).reshape(points.shape)
    if projection == "orthographic":
        return points[:2]
    return points[:2] / (1.0 + points[2])


# the projections that fit each geometry; the first is its default
_PROJECTIONS = {
    Geometry.HYPERBOLIC: ("disk",),
    Geometry.SPHERICAL: ("stereographic", "orthographic"),
    Geometry.EUCLIDEAN: ("identity",),
}


def _form(u: np.ndarray, v: np.ndarray, geometry: Geometry) -> np.ndarray:
    """<u, v> of (3, ...) coordinates, negated on the hyperboloid: cos (cosh) of a distance."""
    plane = u[0] * v[0] + u[1] * v[1]
    return plane + u[2] * v[2] if geometry is Geometry.SPHERICAL else -(plane - u[2] * v[2])


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
        cos = _form(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0), geometry)
        if geometry is Geometry.SPHERICAL:
            f, om = np.sin, np.arccos(np.clip(cos, -1.0, 1.0))[..., None]
        else:
            f, om = np.sinh, np.arccosh(np.maximum(1.0, cos))[..., None]
        straight = om < 1e-12
        w0, w1 = np.where(straight, w0, f(w0 * om)), np.where(straight, w1, f(w1 * om))
        div = np.where(straight, 1.0, f(om))
    return (w0[..., None] * u[..., None, :] + w1[..., None] * v[..., None, :]) / div[..., None]


def _on_surface(points: np.ndarray, geometry: Geometry) -> np.ndarray:
    """(3, ...) coordinates of points scaled back exactly onto their surface, against drift."""
    import numpy as np
    if geometry is Geometry.EUCLIDEAN:
        return points / points[2]
    return points / np.sqrt(np.maximum(1e-300, _form(points, points, geometry)))


def _drawn_blocks(patch: TrianglePatch, projection: str, base: np.ndarray, scale: float | None):
    """Yield (ids, xy, d) for each block of triangles drawn in projection.

    base[k] is side k of the base triangle, from corner k to corner k + 1
    (mod 3), at the s + 1 points that split it into s equal arcs.  Side
    k of a triangle is drawn with d[:, k] of those arcs: all s when scale
    is None, else as emit_svg says, its chord in pixels being the
    distance between its projected corners times scale.  xy holds each
    triangle's sides in order, d + 1 points each, from start to end: its
    matrix times base points (an isometry keeps geodesics and arc
    length), put back on their surface and projected, and only those.
    The orthographic projection leaves out triangles on the far side.
    """
    import numpy as np
    s, tri, after = base.shape[1] - 1, patch.triangle, [1, 2, 0]
    # each matrix's rows, coordinate first: corners[l, i, k] is coordinate l
    # of triangle i's corner k, as drawn (the first point of side k)
    rows = np.transpose(patch.matrices, (1, 0, 2))
    corners = (rows.reshape(-1, 3) @ base[:, 0].T).reshape(3, -1, 3)
    drawn = np.arange(len(patch.last))
    if projection == "orthographic":
        depth = np.tensordot(_TILT[2], corners, 1)
        drawn = np.flatnonzero(depth.sum(axis=1) / 3.0 > 0.0)
        rows, corners, depth = rows[:, drawn], corners[:, drawn], depth[drawn]
    if scale is None:
        d = np.full((len(drawn), 3), s)
    else:
        divisors = np.array([d for d in range(1, s + 1) if s % d == 0])
        x, y = _project(_on_surface(corners, tri.geometry), projection)
        chord = np.hypot(x[:, after] - x, y[:, after] - y) * scale
        if projection == "orthographic":
            # an open half-sphere holds the arc between two of its points; a
            # side over the rim may fold back there, whatever its chord
            far = depth <= 0.0
            chord[far | far[:, after]] = np.inf
        d = divisors[np.minimum(np.searchsorted(2 * divisors, chord), len(divisors) - 1)]
    start = 0
    while start < len(drawn):
        # each side's points at the block's coarsest common step (s over the lcm of its
        # d, plus 1), then the drawn ones; a block of a finer subdivision than the
        # default 12 moves no more points than _BLOCK triangles drawn whole at 12
        end = _BLOCK
        if s > 12:
            lcm = np.lcm.accumulate(d[start : start + _BLOCK], axis=0)
            moved = np.arange(1, len(lcm) + 1) * (lcm.sum(axis=1) + 3)
            end = max(1, int(np.searchsorted(moved, _BLOCK * 3 * 13, side="right")))
        block, step, start = slice(start, start + end), s // d[start : start + end], start + end
        side, at = np.nonzero(np.arange(s + 1) % np.gcd.reduce(step, axis=0)[:, None] == 0)
        keep = np.flatnonzero(at % step[:, side] == 0)
        pts = (rows[:, block].reshape(-1, 3) @ base[side, at].T).reshape(3, -1)[:, keep]
        xy = _project(_on_surface(pts, tri.geometry), projection)
        yield drawn[block], np.ascontiguousarray(xy.T), d[block]


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
    and a slot for the separator _joined_paths writes; the rest are 0.
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


def _joined_paths(
    fields: np.ndarray, rows: np.ndarray, lengths: np.ndarray, seps: bytes, prefix: bytes,
    suffixes: np.ndarray,
) -> bytes:
    """Paths of (n, c, w) _decimal_fields rows joined, less their 0 bytes.

    Path i is prefix, the points fields[rows] taken lengths[i] at a time
    (each point's number j followed by seps[j], but the path's last
    number), then suffixes[i], a row of the uint8 array suffixes; none
    holds a 0 byte.  The points are taken into one text of rows c * w
    bytes wide, after whole rows that hold the last path's suffix and
    this path's prefix.
    """
    import numpy as np
    n, c, w = fields.shape
    k, width = len(lengths), c * w
    if not k:
        return b""
    tail = suffixes.shape[1]
    joint = -(-(len(prefix) + tail) // width)  # rows between two paths
    starts = np.arange(k + 1) * joint + np.concatenate(([0], np.cumsum(lengths)))
    joints = (starts[:, None] + np.arange(joint)).ravel()
    taken = np.ones(starts[-1] + joint, bool)
    taken[joints] = False
    source = np.zeros(len(taken), np.intp)
    source[taken] = rows
    text = fields.reshape(n, width).take(source, axis=0)
    for j, sep in enumerate(seps):
        text.reshape(-1, c, w)[:, j, w - 1] = sep
    text[starts[1:] - 1, width - 1] = 0  # each path's last number
    between = np.zeros((k + 1, joint * width), np.uint8)
    between[1:, :tail] = suffixes
    between[:-1, joint * width - len(prefix) :] = np.frombuffer(prefix, np.uint8)
    text[joints] = between.reshape(-1, width)
    return text.tobytes().translate(None, b"\0")


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

    subdivision is the most segments a triangle side is drawn with.  A
    side gets d of them, the least divisor d of subdivision with c <= 2 d,
    where c is the distance in pixels between the side's projected
    corners (their distance times size over the picture's span), or
    subdivision if none is that large.  So a side longer than
    2 * subdivision / p px, p the least prime factor of subdivision (12 px
    at the default 12), keeps every point.  Seen orthographically, a side
    with a corner on the far half of the sphere keeps every point too.
    The frame of a stereographic or identity picture is that of every
    point of every side, as at full subdivision.
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

    patch, s, tri = cp.patch, subdivision, cp.patch.triangle
    ts = np.linspace(0.0, 1.0, s + 1)
    base = _geodesics(tri.corners, tri.corners[[1, 2, 0]], tri.geometry, ts)
    if projection in ("disk", "orthographic"):
        x0 = y0 = -1.05
        span = 2.1
    else:
        # frame every point of every side: one pass over the geometry before drawing
        lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
        for ids, xy, _ in _drawn_blocks(patch, projection, base, None):
            ring = xy.reshape(len(ids), 3, s + 1, 2)[:, :, :-1].reshape(-1, 2)
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
    colours = np.asarray(cp.colours) - 1
    # each block's tile edges, to be written after every fill
    strokes: list[bytes] = []
    svg = io.BytesIO()
    svg.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span)} {_fmt(span)}">\n'
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(span)}" height="{_fmt(span)}" '
        f'fill="#ffffff"/>'.encode("ascii")
    )
    for ids, xy, d in _drawn_blocks(patch, projection, base, size / span):
        field = _decimal_fields(xy)  # each drawn point formatted once
        ends = np.cumsum(d + 1).reshape(d.shape) - 1  # the row of each side's end
        ring = np.ones(len(xy), bool)
        ring[ends] = False  # each side but its end
        svg.write(_joined_paths(field, np.flatnonzero(ring), d.sum(axis=1), b" L",
                                b'\n<path d="M', fill_tails[colours[ids]]))
        edge = boundary[ids]
        points = d[edge] + 1
        rows = np.repeat(ends[edge] + 1 - np.cumsum(points), points) + np.arange(points.sum())
        strokes.append(_joined_paths(field, rows, points, b" L", b'\n<path d="M',
                                     np.broadcast_to(stroke_tail, (len(points), stroke_tail.size))))
    for text in strokes:
        svg.write(text)
    if projection == "disk":
        svg.write(b'\n<circle cx="0" cy="0" r="1" fill="none" stroke="#1a1a1a" '
                  b'stroke-width="%s"/>' % stroke)
    svg.write(b"\n</svg>")
    return svg.getvalue()
