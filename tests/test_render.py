import hashlib
import itertools
import random
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colsym.census import TILE_MIRRORS, Scope, TilingKind, census, required_words
from colsym.cli import GENERATORS
from colsym.coset import reroot
from colsym.errors import DomainError, InternalError
from colsym.geometry import generate_patch
from colsym.lowindex import low_index_classes
from colsym.presentations import Geometry, triangle_group, von_dyck_group
from colsym.render import (
    _TILT, _decimal_fields, _geodesics, _joined_paths, colour_patch, emit_svg, palette,
    verify_perfect_on_patch,
)
from colsym.words import A, B, C
from oracle import (
    colour_histogram, colours_by_words, emit_svg_per_triangle, fixed_cosets,
    merged_tiles_per_triangle, random_words,
)

NOT_FIXED = "coset 0 of the table is not fixed"


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


def test_generators_imply_every_word_and_catch_a_recoloured_tile(provider):
    # l(g.x) = l(x) +- 1, so the generators, checked on every triangle they
    # map into the patch, check every word w on the triangles within
    # depth - len(w): on every census colouring they pass, and so does each
    # random word, and a merged tile recoloured by one step fails them
    rng = random.Random(0)
    cases = caught = 0
    for p, q in ((7, 3), (5, 4), (4, 4), (3, 5), (8, 3), (4, 3)):
        patches = [generate_patch(p, q, depth) for depth in (2, 5, 9)]
        for scope, kind in itertools.product(Scope, TilingKind):
            report = census(p, q, kind, scope, 12, classes_provider=provider)
            for rec in (r for e in report.entries for r in e.representatives[:2]):
                for patch in patches:
                    cp = colour_patch(patch, rec.table, kind, scope)
                    assert all(verify_perfect_on_patch(cp, g) for g in GENERATORS[scope])
                    words = random_words(rng, scope, patch.depth, 50)
                    assert all(verify_perfect_on_patch(cp, w) for w in words)
                    cases += 1
                    if cp.k == 1:
                        continue
                    colours = np.array(cp.colours)
                    tile = list(next(t for t in cp.polygons if 0 in t))
                    colours[tile] = colours[tile] % cp.k + 1
                    bad = replace(cp, colours=tuple(colours.tolist()))
                    caught += not all(verify_perfect_on_patch(bad, g) for g in GENERATORS[scope])
    # the k = 1 colourings, one per group, scope, tiling and depth, have no
    # other colour to take
    assert (cases, caught) == (561, 561 - 6 * 2 * 3 * 3)


def test_wrong_kind_merge_fails(provider):
    # a subgroup containing a, b (a vertex colouring) cannot colour the
    # face tiling: triangles merged across the b, c mirrors clash
    t = rep_table(provider, 4, 4, TilingKind.QP, Scope.FULL, 2)
    with pytest.raises(DomainError, match=NOT_FIXED):
        colour_patch(generate_patch(4, 4, 3), t, TilingKind.PQ)


def test_a_table_whose_coset_0_the_stabilizer_does_not_fix_is_refused(provider):
    # colour_patch decides from the table's coset 0, before it reads the
    # patch, so a single triangle is refused as a deeper patch is
    PQ = TilingKind.PQ
    tables = low_index_classes(triangle_group(7, 3), 8).tables
    fixed = {t: fixed_cosets(t, required_words(PQ, Scope.FULL)) for t in tables}
    # the index-2 class fixes no coset, an index-8 one only coset 3
    bad = [t for t in tables if t.n == 2] + [t for t in tables if fixed[t] == {3}]
    assert [(t.n, sorted(fixed[t])) for t in bad] == [(2, []), (8, [3])]
    for t, depth in itertools.product(bad, (0, 3)):
        with pytest.raises(DomainError, match=NOT_FIXED):
            colour_patch(generate_patch(7, 3, depth), t, PQ)
    # von Dyck tables are over the rotation alphabet, not the reflections
    von_dyck = [t for t in low_index_classes(von_dyck_group(4, 4), 2).tables if t.n == 2]
    assert von_dyck
    for t, kind in itertools.product(von_dyck, (TilingKind.QP, PQ)):
        with pytest.raises(DomainError, match=NOT_FIXED):
            colour_patch(generate_patch(4, 4, 4), t, kind)
    # a census representative re-rooted at a coset its stabilizer words move
    moved = 0
    for scope, kind in itertools.product(Scope, TilingKind):
        words = required_words(kind, scope)
        for rep in census(7, 3, kind, scope, 12, classes_provider=provider).entries:
            for t in (r.table for r in rep.representatives):
                outside = min(set(range(t.n)) - fixed_cosets(t, words), default=None)
                if outside is None:
                    continue
                moved += 1
                for depth in (0, 3):
                    with pytest.raises(DomainError, match=NOT_FIXED):
                        colour_patch(generate_patch(7, 3, depth), reroot(t, outside), kind, scope)
    assert moved == 8  # the index-1 classes fix every coset


def test_colour_patch_refuses_a_kind_or_scope_that_is_not_one(provider):
    # a name, not the enum member: "pq" raised KeyError, and "full" as the
    # scope gave a rotation representative's 2-colouring 4 colours
    t = rep_table(provider, 4, 4, TilingKind.PQ, Scope.ROTATION, 2)
    patch = generate_patch(4, 4, 3)
    with pytest.raises(DomainError, match="bad tiling kind"):
        colour_patch(patch, t, "pq", Scope.ROTATION)
    with pytest.raises(DomainError, match="bad scope"):
        colour_patch(patch, t, TilingKind.PQ, "full")


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


# p, q, the deepest patch and the colour bound of the cross-check grid:
# two hyperbolic tilings, two whole spheres and two Euclidean ones
COLOURING_GRID = [(7, 3, 12, 14), (5, 4, 10, 12), (4, 3, 40, 12), (3, 5, 40, 20),
                  (4, 4, 14, 10), (6, 3, 14, 10)]


@pytest.mark.parametrize("p, q, depth, k", COLOURING_GRID, ids=str)
def test_colours_match_the_per_word_route(provider, p, q, depth, k):
    # the first-letter recurrence against each triangle's reversed word
    # walked through the table, and the merged tiles a level at a time
    # against one triangle at a time, for every representative up to k colours
    patches = [generate_patch(p, q, d) for d in (0, 1, depth)]
    for kind in TilingKind:
        for scope in Scope:
            entries = census(p, q, kind, scope, k, classes_provider=provider).entries
            assert entries
            for rep in (r for e in entries for r in e.representatives):
                for patch in patches:
                    cp = colour_patch(patch, rep.table, kind, scope)
                    want = colours_by_words(patch, rep.table, kind, scope)
                    assert cp.colours.tolist() == list(want), (kind, scope, patch.depth)
                    _, polygons = merged_tiles_per_triangle(patch.neighbours.tolist(), kind)
                    assert cp.polygons == polygons, (kind, scope, patch.depth)


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
    # a float, a string or a bool is refused as a bad value, not left to numpy or <
    for subdivision in (0, 2.5, True):
        with pytest.raises(DomainError):
            emit_svg(hyp, subdivision=subdivision)
    for size in (0, -5, "7", True):
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
    (7, 3, PQ, F, 8, 0, 24, {}, 1426411,
     "7a0bbb18c451c6c9852f464de7329ee24ea9bbddd4a4726d905931cf0515930f"),
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


# p, q, colours, depth, subdivision, bytes, sha256 of a PQ full-scope
# picture: at 1,200, the identity and stereographic ones framed from every
# point of every side and the disk one of 2,195 triangles; at 14,000, one
# triangle with more points than a block holds
FINE_SVGS = [
    (4, 4, 2, 20, 1200, 790863,
     "a35aa4b65c3d1037449e8d7b948ad4006187ff3f30eaa668b9bfd4a63c298ed1"),
    (3, 5, 20, 40, 1200, 673020,
     "0aaf52a25ddd52922298883fa1a33a0016a46085ed4b3cc14ae7da5decfc657e"),
    (7, 3, 8, 24, 1200, 1582021,
     "c5a05a468eb58fc20df22c655d9683cbad2905f57967814eab0318074ae3452f"),
    (3, 5, 20, 0, 14000, 34011,
     "471166e9bcbbf165544dcea25e810a134eb09778145f45e06fd124120cd3d375"),
]


@pytest.mark.parametrize("p, q, k, depth, subdivision, length, digest", FINE_SVGS,
                         ids=[f"{p}-{q}-d{depth}-s{s}" for p, q, _, depth, s, *_ in FINE_SVGS])
def test_fine_subdivision_is_drawn_in_blocks_of_bounded_points(
    provider, p, q, k, depth, subdivision, length, digest
):
    # a block holds no more points than 1,024 triangles drawn whole at the
    # default 12, or one triangle, whatever the subdivision, so these pictures
    # peak at a few MB; the (4^4) one would take some 170 MB in blocks of
    # 1,024 triangles
    cp = colour_patch(generate_patch(p, q, depth), rep_table(provider, p, q, PQ, F, k), PQ)
    tracemalloc.start()
    try:
        data = emit_svg(cp, subdivision=subdivision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)
    assert peak < 20e6


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


@pytest.mark.parametrize("subdivision", [1, 5, 12, 24])
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


def svg_paths(data):
    """(fill, points) of each path of an SVG, in order; points is (n, 2)."""
    return [(el.get("fill"), np.array([[float(v) for v in xy.split()]
                                       for xy in el.get("d").strip("MZ").split("L")]))
            for el in ET.fromstring(data).iter() if el.tag.endswith("path")]


@pytest.mark.parametrize("p, q, k, depth, projection, size", [
    (7, 3, 8, 24, "disk", 700), (3, 5, 20, 40, "orthographic", 700),
    (3, 5, 20, 40, "orthographic", 90),
])
def test_each_side_is_drawn_with_the_fewest_points_that_keep_2px_steps(
    provider, p, q, k, depth, projection, size
):
    # the corners of each triangle, put on the sphere or the hyperboloid and
    # projected here; the disk and the orthographic sphere span 2.1
    cp = colour_patch(generate_patch(p, q, depth), rep_table(provider, p, q, PQ, F, k), PQ)
    corners = np.einsum("nij,kj->nki", cp.patch.matrices, cp.patch.triangle.corners)
    if projection == "disk":
        on = corners / np.sqrt(corners[..., 2:] ** 2 - (corners[..., :2] ** 2).sum(-1, keepdims=True))
        xy = on[..., :2] / (1.0 + on[..., 2:])
        drawn, far = np.arange(len(corners)), np.zeros(corners.shape[:2], bool)
    else:
        tilted = (corners / np.linalg.norm(corners, axis=-1, keepdims=True)) @ np.transpose(_TILT)
        xy, far = tilted[..., :2], tilted[..., 2] <= 0.0
        drawn = np.flatnonzero(corners.sum(axis=1) @ _TILT[2] > 0.0)
    px = size / 2.1
    chords = np.linalg.norm(np.roll(xy, -1, axis=1) - xy, axis=-1) * px

    paths = svg_paths(emit_svg(cp, projection=projection, size=size))
    fills = [(fill, points) for fill, points in paths if fill != "none"]
    strokes = [points for fill, points in paths if fill == "none"]
    # the fills carry their triangles' colours, in patch order
    assert [fill for fill, _ in fills] == [palette(k)[c - 1] for c in cp.colours[drawn]]
    edges = (cp.patch.neighbours[:, [C, A, B]] < 0) | ~np.isin([C, A, B], TILE_MIRRORS[PQ])
    expected_strokes, thinned, over_the_rim = [], 0, 0
    for i, (_, ring) in zip(drawn, fills):
        # each corner is a point of the ring, side 0 starting at the first
        at = [int(np.argmin(np.linalg.norm(ring - c, axis=1))) for c in xy[i]]
        assert at[0] == 0 and np.allclose(ring[at], xy[i], rtol=0.0, atol=2e-5)
        for side, (start, stop) in enumerate(zip(at, at[1:] + [len(ring)])):
            d, chord = stop - start, chords[i, side]
            points = np.vstack([ring[start:stop], ring[stop % len(ring)]])
            assert 12 % d == 0 and len(points) == d + 1
            if far[i, side] or far[i, (side + 1) % 3]:
                # the arc may fold back over the rim: all 13 points
                over_the_rim += 1
                assert d == 12
            else:
                # d is the least divisor of 12 with chord / d <= 2 px
                assert d == 12 or chord <= 2 * d
                assert all(chord > 2 * e for e in range(1, d) if 12 % e == 0)
            if chord > 12:
                assert len(points) == 13
            if d < 12:  # each step is its chord's, give or take the arc's bend
                thinned += 1
                assert (np.linalg.norm(np.diff(points, axis=0), axis=1) * px <= 3.0).all()
            if edges[i, side]:
                expected_strokes.append(points)
    assert thinned > 0 or size == 700 and projection == "orthographic"
    assert over_the_rim > 0 or projection == "disk"
    assert len(strokes) == len(expected_strokes)
    for got, want in zip(strokes, expected_strokes):
        assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=2e-5)


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


@pytest.mark.parametrize("p, q, projection", [
    (7, 3, "disk"), (4, 3, "stereographic"), (4, 3, "orthographic"), (4, 4, "identity"),
])
def test_drawn_points_are_put_back_on_their_surface(provider, p, q, projection):
    # matrices that drift off the isometries, here all by a common factor,
    # draw the same picture: every point is put back on its surface before
    # it is projected
    t = rep_table(provider, p, q, TilingKind.PQ, Scope.FULL, 1)
    patch = generate_patch(p, q, 8)
    cp = colour_patch(patch, t, TilingKind.PQ)
    drifted = replace(cp, patch=replace(patch, matrices=patch.matrices * 1.001))
    assert emit_svg(drifted, projection=projection) == emit_svg(cp, projection=projection)


def test_drawing_builds_no_tile_words(provider):
    # the words are built only when read, and nothing on the way from a
    # patch to its picture reads them
    t = rep_table(provider, 7, 3, TilingKind.PQ, Scope.FULL, 8)
    patch = generate_patch(7, 3, 12)
    cp = colour_patch(patch, t, TilingKind.PQ)
    assert all(verify_perfect_on_patch(cp, w) for w in ((A,), (B, C), (C, A, B)))
    emit_svg(cp)
    assert "tiles" not in patch.__dict__
    assert len(patch.tiles) == patch.ends[-1] and "tiles" in patch.__dict__


def test_palette():
    assert palette(1) == palette(1)
    assert len(palette(12)) == 12
    assert len(set(palette(12))) == 12
    assert all(c.startswith("#") and len(c) == 7 for c in palette(5))
    assert palette(5, seed=1) != palette(5, seed=2)


def decimal_paths_one_by_one(values, lengths, seps, prefix, suffixes):
    """The paths _joined_paths writes from _decimal_fields, each number by b"%.5f"."""
    points, paths = iter(values.tolist()), []
    for length, suffix in zip(lengths, suffixes.tolist()):
        nums = [b"0.00000" if b == b"-0.00000" else b
                for point in itertools.islice(points, length) for b in (b"%.5f" % x for x in point)]
        body = b"".join(b + bytes([seps[j % len(seps)]]) for j, b in enumerate(nums))[:-1]
        paths.append(prefix + body + bytes(suffix))
    return b"".join(paths)


def check_decimal_rows(rows, n):
    values = np.array(rows, float).reshape(len(rows), n)
    seps = (b" L" * n)[:n]
    suffixes = (np.arange(len(rows))[:, None] % 26 + np.array([65, 97])).astype(np.uint8)
    fields = _decimal_fields(values)
    # each row a path of one point
    one = np.ones(len(rows), np.intp)
    data = _joined_paths(fields, np.arange(len(rows)), one, seps, b"M", suffixes)
    assert data == decimal_paths_one_by_one(values, one, seps, b"M", suffixes)
    # a gather of the fields formatted up front, as emit_svg joins a fill
    # ring and its strokes: the rows backwards, every other number
    pick = (slice(None, None, -1), slice(None, None, 2))
    part, part_seps = values[pick], seps[: (n + 1) // 2]
    data = _joined_paths(fields[pick], np.arange(len(rows)), one, part_seps, b"M", suffixes[::-1])
    assert data == decimal_paths_one_by_one(part, one, part_seps, b"M", suffixes[::-1])
    # paths of 2, 1 and 3 points taken backwards, between suffixes and a
    # prefix longer than a row of fields
    lengths, left = [], len(rows)
    for m in itertools.cycle((2, 1, 3)):
        if left <= 0:
            break
        lengths.append(min(m, left))
        left -= m
    back, prefix = np.arange(len(rows))[::-1], b'\n<path d="M'
    long = np.repeat(suffixes[: len(lengths)], 15, axis=1)
    data = _joined_paths(fields, back, np.array(lengths, np.intp), seps, prefix, long)
    assert data == decimal_paths_one_by_one(values[back], lengths, seps, prefix, long)


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
        _decimal_fields(np.array([[0.5, bad]]))
