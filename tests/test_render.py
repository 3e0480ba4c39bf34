import hashlib
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from colsym.census import Scope, TilingKind, census
from colsym.errors import DomainError, MergeInconsistency
from colsym.geometry import generate_patch
from colsym.presentations import Geometry
from colsym.render import _geodesics, colour_patch, emit_svg, palette, verify_perfect_on_patch
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
     "f765e91092b9a317d5a9357ba568c515ac0bd9273dfec5656bf143045e736118"),
    (4, 3, PQ, F, 3, 0, 40, {}, 46354,
     "ecc18990b6edfb760396c6d1c7e03743d6f67aa4552d283769abc0d2e1bb07f7"),
    (4, 3, PQ, F, 6, 0, 40, {}, 46354,
     "c287105a8e2e136d53a5012a487b069719e514e6ce73313e89be30a721353aa1"),
    (3, 5, PQ, F, 10, 0, 40, {}, 115912,
     "5608a3cfa330a28aaa2b6d752c108a9bbaf05a84be209871aef77943f365a709"),
    (3, 5, PQ, F, 20, 0, 40, {}, 115912,
     "587502ca306aad3981e7ab7d0918a0f1229c7ad40a0fdc05b779de6aed32a773"),
    (7, 3, PQ, F, 8, 0, 7, {}, 76164,
     "48b94a91a22e9870c74966b9591eb9991c992003b9fba134fa3da72fadb01394"),
    (7, 3, LV, F, 9, 0, 7, {}, 76168,
     "2636f2fe7de125e5a984604cc84d147c234db970b9f0fcf076a2b000ac3f5eed"),
    (7, 3, QP, F, 22, 0, 7, {}, 76178,
     "84432dd225d1bf5a89fd8f960cf9b3214b938cdf75e612698779350c457757d3"),
    (7, 3, PQ, R, 9, 0, 7, {}, 76164,
     "8b180e4c97c69265ebd27d31d1bf4816c3c1d0832844852e03135c6722c53f3c"),
    (7, 3, LV, R, 14, 2, 7, {}, 76168,
     "1937b80ac013e836e00f0e4920c017ab8e6026b1637e3e3b1aa4f8805d653c42"),
    (5, 4, LV, F, 10, 1, 7, {}, 99268,
     "f6ae36b1a131c32838ff9bf720319468ea364d0baed1b23986de892afbeaec5e"),
    (8, 3, PQ, R, 10, 0, 7, {}, 77522,
     "6f01b7bd5e0605a4e45eb2d62b0eb0755010edde5b6f11351d73189b6b2519e0"),
    (4, 3, PQ, F, 6, 0, 40, {"projection": "orthographic"}, 23302,
     "982d0826bdcf0d4651f3991bfea69d5ff70bd68e3036741102967709afa7f315"),
    (3, 5, PQ, F, 20, 0, 40, {"projection": "orthographic"}, 58040,
     "ed8a653d2e889986fc7c20907105dffd6ee0a4d503548e86365bc09c693c8056"),
    (3, 6, QP, F, 3, 0, 8, {"palette_seed": 2, "subdivision": 5, "size": 320}, 46647,
     "3be94dd0e79c4a36f78e31b1f60fc577c6f320d84d2869877781f9c8ed785adc"),
    (7, 3, PQ, F, 8, 0, 24, {}, 2209381,
     "e3d654b3803a27629cdea0eb0f8676cbe269fce0941c9de9854872463b57a1ca"),
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
