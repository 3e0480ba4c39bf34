import hashlib
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colsym.census import Scope, TilingKind, census
from colsym.errors import DomainError, InternalError, MergeInconsistency
from colsym.geometry import generate_patch
from colsym.presentations import Geometry
from colsym.render import (
    _decimal_rows, _geodesics, colour_patch, emit_svg, palette, verify_perfect_on_patch
)
from colsym.words import A, B, C
from oracle import colour_histogram, emit_svg_per_triangle


def rep_table(provider, p, q, kind, scope, k, pick=0):
    report = census(p, q, kind, scope, k, classes_provider=provider)
    for e in report.entries:
        if e.colours == k:
            return e.representatives[pick].table
    raise AssertionError(f"no entry with {k} colours")


@pytest.fixture(scope="module")
def board(provider):
    t = rep_table(provider, 4, 4, TilingKind.PQ, Scope.FULL, 2)
    return colour_patch(generate_patch(4, 4, 4), t, TilingKind.PQ)


def test_board_colours(board):
    assert board.k == 2
    assert set(board.colours) == {1, 2}
    assert board.polygon_size == 8  # 2p triangles per square
    # triangle 0 and its a-neighbour lie in different squares
    assert board.colours[0] == 1


def test_board_polygons_partition(board):
    seen = set()
    for poly in board.polygons:
        cols = {board.colours[i] for i in poly}
        assert len(cols) == 1  # merged tiles are monochrome
        assert len(poly) <= board.polygon_size
        seen.update(poly)
    assert seen == set(range(len(board.patch.tiles)))


def test_verify_perfect_words(board):
    for w in ((A,), (B,), (C,), (A, B), (B, C), (A, C), (A, B, C), (C, B, A, B)):
        assert verify_perfect_on_patch(board, w)
    # the board is a depth-4 patch: a word one letter longer could map no
    # triangle at all, so it is an error rather than a vacuous pass
    with pytest.raises(DomainError):
        verify_perfect_on_patch(board, (C, B, A, B, C))


def test_verify_detects_scrambled_colours(board):
    bad_colours = list(board.colours)
    # recolour the tile containing triangle 0 inconsistently
    poly = next(p for p in board.polygons if 0 in p)
    for i in poly:
        bad_colours[i] = 3 - bad_colours[i]
    bad = replace(board, colours=tuple(bad_colours))
    assert not all(
        verify_perfect_on_patch(bad, w) for w in ((A,), (B,), (C,), (A, B))
    )


def test_wrong_kind_merge_fails(provider):
    # a subgroup containing a, b (a vertex colouring) cannot colour the
    # face tiling: triangles merged across the b, c mirrors clash
    t = rep_table(provider, 4, 4, TilingKind.QP, Scope.FULL, 2)
    with pytest.raises(MergeInconsistency):
        colour_patch(generate_patch(4, 4, 3), t, TilingKind.PQ)


def test_histogram(board):
    hist = colour_histogram(board)
    assert set(hist) == {1, 2}
    # the checkerboard has equally many complete squares of each colour
    assert hist[1] + hist[2] == sum(
        1 for p in board.polygons if len(p) == board.polygon_size
    )
    total = colour_histogram(board, complete_only=False)
    assert sum(total.values()) == len(board.polygons)


def test_rotation_scope_colouring(provider):
    t = rep_table(provider, 7, 3, TilingKind.PQ, Scope.ROTATION, 8)
    cp = colour_patch(generate_patch(7, 3, 5), t, TilingKind.PQ, Scope.ROTATION)
    assert cp.k == 8
    assert verify_perfect_on_patch(cp, (A, B))
    assert verify_perfect_on_patch(cp, (B, C))
    assert verify_perfect_on_patch(cp, (A, B, C, B))
    # odd words reverse orientation and are not colour symmetries here
    assert not verify_perfect_on_patch(cp, (A,))
    assert not verify_perfect_on_patch(cp, (A, B, C))


def test_rotation_scope_needs_orientation_subgroup(provider):
    t = rep_table(provider, 7, 3, TilingKind.PQ, Scope.FULL, 8)
    with pytest.raises(DomainError):
        colour_patch(generate_patch(7, 3, 3), t, TilingKind.PQ, Scope.ROTATION)


def test_svg_well_formed_and_deterministic(board):
    data = emit_svg(board)
    assert data == emit_svg(board)
    assert data.startswith(b"<svg")
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    fills = {f for el in paths if (f := el.get("fill")) and f != "none"}
    assert len(fills) == 2  # two colours on the board
    # a square's boundary is the a-side of each of its triangles, plus
    # the b- and c-sides that the patch rim cuts off
    rim = sum(links[g] < 0 for links in board.patch.neighbours for g in (B, C))
    strokes = [el for el in paths if el.get("fill") == "none"]
    assert len(strokes) == len(board.patch.tiles) + rim
    assert emit_svg(board, palette_seed=3) != data
    assert emit_svg(board, subdivision=2) != data


def test_svg_projections(provider):
    sphere = colour_patch(
        generate_patch(4, 3, 12),
        rep_table(provider, 4, 3, TilingKind.PQ, Scope.FULL, 3),
        TilingKind.PQ,
    )
    assert emit_svg(sphere, projection="stereographic") != emit_svg(
        sphere, projection="orthographic"
    )
    with pytest.raises(DomainError):
        emit_svg(sphere, projection="disk")

    hyp = colour_patch(
        generate_patch(7, 3, 4),
        rep_table(provider, 7, 3, TilingKind.PQ, Scope.FULL, 8),
        TilingKind.PQ,
    )
    emit_svg(hyp)  # disk is the default and only choice
    with pytest.raises(DomainError):
        emit_svg(hyp, projection="identity")
    with pytest.raises(DomainError):
        emit_svg(hyp, subdivision=0)
    for size in (0, -5):
        with pytest.raises(DomainError):
            emit_svg(hyp, size=size)


F, R = Scope.FULL, Scope.ROTATION
PQ, QP, LV = TilingKind.PQ, TilingKind.QP, TilingKind.LAVES

# p, q, kind, scope, colours, pick, depth, emit_svg options, bytes, sha256.
# The first twelve are the scripts/render_gallery.py showcase at its
# default depths (7, and 40 for the whole sphere); then both spheres seen
# orthographically, a Euclidean identity projection with non-default
# options, and a (7^3) picture of 2,195 triangles, which emit_svg draws
# in more than one block.
PINNED_SVGS = [
    (4, 4, PQ, F, 2, 0, 7, {}, 78670,
     "fab57fd46a483600a9493afee1f8c58d930e0bbe45d24e9869ba8ecaa4e263df"),
    (4, 3, PQ, F, 3, 0, 40, {}, 46354,
     "d1ca3d2bb3404f9d3bafc6df173a397e2f3da146c9977025f1aab0808a707ea6"),
    (4, 3, PQ, F, 6, 0, 40, {}, 46354,
     "8e40d95b2be588c02a87c55642a34bcdc1e18e8d66c56694512176cfb94bd26c"),
    (3, 5, PQ, F, 10, 0, 40, {}, 115912,
     "4fb5dc77025cf4fb05a3a3ce2ea6db9942c4232067ba7bf2e10ab062bf64232f"),
    (3, 5, PQ, F, 20, 0, 40, {}, 115912,
     "00cd663e099c675f8e120b90512816eda64dfec496694fa8a6707f774cb4b6af"),
    (7, 3, PQ, F, 8, 0, 7, {}, 76164,
     "c6b712fb674ea119f5a044e16f4f0b396a5338a7be4768347818b725dcffb249"),
    (7, 3, LV, F, 9, 0, 7, {}, 76168,
     "43069c1c5582d2b91ad23c710b3699ba79bfcc2680b12152e1caf02cd4013f77"),
    (7, 3, QP, F, 22, 0, 7, {}, 76178,
     "8f253e3c8be0606a85e4d2ae9b5cb9faffc334c1c5b97f5a0aa596e34217b983"),
    (7, 3, PQ, R, 9, 0, 7, {}, 76164,
     "e59c7d5bde6edc3d79d6dae0155fbb18f31b79a2249e6d7f259ef76ec3c93bd1"),
    (7, 3, LV, R, 14, 2, 7, {}, 76168,
     "1aaafce23dd6680d98d30e7c26ffc3815c3d6a6d0e700816350a54b9f581038a"),
    (5, 4, LV, F, 10, 1, 7, {}, 99268,
     "ebc1b63a237d7382ee4ca464b88b18024910e0585f0f77d1276bb1fb8e521fa2"),
    (8, 3, PQ, R, 10, 0, 7, {}, 77522,
     "32ebdd7ee4c0ecf6af6799076b873d57fd05300729fc21765cf35cda458c68db"),
    (4, 3, PQ, F, 6, 0, 40, {"projection": "orthographic"}, 23302,
     "37cc68f715b7e100a2be428d737c433a930d9f21d061ca4b71390671a960e9af"),
    (3, 5, PQ, F, 20, 0, 40, {"projection": "orthographic"}, 58040,
     "43208371ef39e4364f88b4b469dc9fa3486cc9c17408c32059ab901888ca9c9d"),
    (3, 6, QP, F, 3, 0, 8, {"palette_seed": 2, "subdivision": 5, "size": 320}, 46647,
     "00fc1d2a46f4a351d8acb5f4ae754172d64b592367298e4371b5cf8278255f6e"),
    (7, 3, PQ, F, 8, 0, 24, {}, 2209381,
     "200c86e5a28aa363ff73ae55d8efa6b62722222b0cbf45e6a081195ad6914ef9"),
]


@pytest.mark.parametrize(
    "p, q, kind, scope, k, pick, depth, options, length, digest",
    PINNED_SVGS,
    ids=[f"{p}-{q}-{kind.value}-{scope.value}-k{k}-{i}"
         for i, (p, q, kind, scope, k, *_) in enumerate(PINNED_SVGS)],
)
def test_svg_bytes_pinned(
    provider, p, q, kind, scope, k, pick, depth, options, length, digest
):
    t = rep_table(provider, p, q, kind, scope, k, pick)
    data = emit_svg(colour_patch(generate_patch(p, q, depth), t, kind, scope), **options)
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)


# p, q, kind, scope, colours, depth, projections, other emit_svg options:
# every geometry and projection, both scopes, all three tilings, depth-0
# patches, and two patches of more than one block of triangles ((7^3)
# depth 24: 2,195; (4^4) depth 30: 1,241)
ORACLE_GRID = [
    (4, 3, LV, R, 4, 40, ("stereographic", "orthographic"), {}),
    (3, 5, QP, F, 6, 40, ("stereographic", "orthographic"), {}),
    (4, 3, QP, F, 8, 0, ("stereographic", "orthographic"), {}),
    (7, 3, PQ, R, 9, 0, ("disk",), {}),
    (7, 3, LV, F, 9, 9, ("disk",), {"palette_seed": 1}),
    (5, 4, QP, R, 5, 8, ("disk",), {}),
    (4, 4, LV, R, 6, 0, ("identity",), {}),
    (3, 6, PQ, F, 4, 10, ("identity",), {"palette_seed": 2, "size": 320}),
    (7, 3, PQ, F, 8, 24, ("disk",), {}),
    (4, 4, QP, R, 5, 30, ("identity",), {}),
]


@pytest.mark.parametrize("subdivision", [1, 5, 12])
@pytest.mark.parametrize(
    "p, q, kind, scope, k, depth, projections, options",
    ORACLE_GRID,
    ids=[f"{p}-{q}-{kind.value}-{scope.value}-k{k}-d{depth}"
         for p, q, kind, scope, k, depth, *_ in ORACLE_GRID],
)
def test_svg_matches_per_triangle_route(
    provider, p, q, kind, scope, k, depth, projections, options, subdivision
):
    t = rep_table(provider, p, q, kind, scope, k)
    cp = colour_patch(generate_patch(p, q, depth), t, kind, scope)
    for projection in projections:
        args = dict(options, projection=projection, subdivision=subdivision)
        assert emit_svg(cp, **args) == emit_svg_per_triangle(cp, **args), projection


@pytest.mark.parametrize("geometry, points", [
    (Geometry.SPHERICAL, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]]),
    (Geometry.HYPERBOLIC, [[0.0, 0.0, 1.0], [np.sinh(0.7), 0.0, np.cosh(0.7)]]),
])
def test_degenerate_side_is_its_end_point(geometry, points):
    # a side of length zero has no direction to interpolate along; every
    # point drawn on it is its end point, not 0/0
    u = np.array(points)
    arcs = _geodesics(u, u, geometry, np.linspace(0.0, 1.0, 5))
    assert np.isfinite(arcs).all()
    assert np.allclose(arcs, u[:, None, :], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p, q, triangles", [(3, 3, 24), (4, 3, 48), (3, 5, 120)])
def test_orthographic_draws_the_near_hemisphere(provider, p, q, triangles):
    # these sphere tilings are symmetric under x -> -x, so their triangle
    # centroids pair off across the picture plane and exactly half lie in
    # front; the (3,3) tiling has a pair within 0.005 of the plane
    t = rep_table(provider, p, q, TilingKind.PQ, Scope.FULL, 1)
    cp = colour_patch(generate_patch(p, q, 40), t, TilingKind.PQ)
    assert len(cp.patch.tiles) == triangles
    svg = emit_svg(cp, projection="orthographic")
    assert svg.count(b'stroke="none"') == triangles // 2


def test_svg_write_to_path(tmp_path, board):
    out = tmp_path / "board.svg"
    data = emit_svg(board, out=str(out))
    assert out.read_bytes() == data


def test_palette():
    assert palette(1) == palette(1)
    assert len(palette(12)) == 12
    assert len(set(palette(12))) == 12
    assert all(c.startswith("#") and len(c) == 7 for c in palette(5))
    assert palette(5, seed=1) != palette(5, seed=2)


def decimal_rows_one_by_one(values, seps, prefix, suffixes):
    """The rows _decimal_rows writes, each number by b"%.5f"."""
    rows = []
    for row, suffix in zip(values.tolist(), suffixes.tolist()):
        nums = [b"0.00000" if b == b"-0.00000" else b for b in (b"%.5f" % x for x in row)]
        body = nums[0] + b"".join(bytes([c]) + b for c, b in zip(seps, nums[1:]))
        rows.append(prefix + body + bytes(suffix))
    return rows


def check_decimal_rows(rows, n):
    values = np.array(rows, float).reshape(len(rows), n)
    seps = (b" L" * n)[: n - 1]
    suffixes = (np.arange(len(rows))[:, None] % 26 + np.array([65, 97])).astype(np.uint8)
    data = _decimal_rows(values, seps, b"M", suffixes)
    assert data == b"".join(decimal_rows_one_by_one(values, seps, b"M", suffixes))


def nudge(x, steps):
    """The float steps ulps above x, or below it for negative steps."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


# each value and its three neighbours on either side, of both signs
HAND_PICKED = [
    nudge(sign * x, steps)
    for x in [
        *((j + 0.5) / 1e5 for j in (0, 1, 2, 7, 12, 99, 1562, 4687, 12345, 99999, 1234567)),
        *((2 * j + 1) / 64 for j in (0, 1, 2, 63, 1000)),  # ties exact in binary
        0.000015, 0.999995, 9.999995, 99.999995, 21474.83647, 21474.836475, 21474.83648,
        0.0, 4e-6, 1e-7, 5e-324, 1.0, 3.14159, 27.18281, 314.15926, 2718.28182,
        31415.92654, 271828.18284, 2.0**53, 1e20, 1e300,
    ]
    for sign in (1, -1)
    for steps in range(-3, 4)
]


def test_decimal_rows_hand_picked():
    check_decimal_rows([HAND_PICKED], len(HAND_PICKED))
    check_decimal_rows([[v] for v in HAND_PICKED], 1)
    check_decimal_rows([[0.0, -0.0, -1e-7, -0.0000049, -0.000005]], 5)
    check_decimal_rows([], 4)


# picture-sized numbers, any finite float, and numbers a few ulps from a
# rounding tie, where rint and "%.5f" part unless the tie is caught
coordinates = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda j, steps: nudge((j + 0.5) / 1e5, steps),
              st.integers(-3 * 10**9, 3 * 10**9), st.integers(-4, 4)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(coordinates, min_size=n, max_size=n),
                                             max_size=5))))
def test_decimal_rows_match_percent_format(case):
    n, rows = case
    check_decimal_rows(rows, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decimal_rows_reject_non_finite(bad):
    with pytest.raises(InternalError):
        _decimal_rows(np.array([[0.5, bad]]), b" ", b"M", np.zeros((1, 0), np.uint8))
