import random
import sys
from pathlib import Path

import numpy as np
import pytest

import colsym.geometry
from colsym.census import Scope, TilingKind, census
from colsym.errors import DomainError, ResourceLimit
from colsym.geometry import form_matrix, fundamental_triangle, generate_patch
from colsym.presentations import Geometry, classify_geometry, triangle_group
from colsym.render import colour_patch
from colsym.words import A, B, C
from oracle import form_residual, image_per_triangle, patches_per_triangle, word_matrix

# Steinberg's growth series, the benchmark's exact oracle of patch sizes
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from growth import ball_size  # noqa: E402

PAIRS = [(4, 3), (3, 5), (4, 4), (3, 6), (7, 3), (5, 4), (8, 3)]


@pytest.mark.parametrize("pq", PAIRS, ids=str)
def test_relator_matrices_are_identity(pq):
    tri = fundamental_triangle(*pq)
    for rel in triangle_group(*pq).relators:
        assert np.max(np.abs(word_matrix(tri, rel) - np.eye(3))) < 1e-9


@pytest.mark.parametrize("pq", PAIRS, ids=str)
def test_mirrors_preserve_the_form(pq):
    tri = fundamental_triangle(*pq)
    for M in tri.mirrors:
        assert form_residual(M, tri.geometry) < 1e-12
        assert abs(np.linalg.det(M) + 1) < 1e-12  # reflections reverse


@pytest.mark.parametrize("pq", PAIRS, ids=str)
def test_corners_lie_on_their_surface(pq):
    tri = fundamental_triangle(*pq)
    J = form_matrix(tri.geometry)
    on_surface = {
        Geometry.SPHERICAL: 1.0,  # unit sphere
        Geometry.HYPERBOLIC: -1.0,  # upper hyperboloid sheet
    }
    for v in tri.corners:
        if tri.geometry is Geometry.EUCLIDEAN:
            assert v[2] == pytest.approx(1.0)
        else:
            assert v @ J @ v == pytest.approx(on_surface[tri.geometry], abs=1e-12)
            assert v[2] > 0


@pytest.mark.parametrize("pq", PAIRS, ids=str)
def test_corners_fixed_by_their_mirrors(pq):
    # each mirror is the side opposite its namesake corner, so a corner
    # is fixed by exactly the other two mirrors
    tri = fundamental_triangle(*pq)
    ma, mb, mc = tri.mirrors
    corner_p, corner_right, corner_q = tri.corners
    for M in (mb, mc):
        assert np.allclose(M @ corner_p, corner_p, atol=1e-9)
    for M in (ma, mb):
        assert np.allclose(M @ corner_q, corner_q, atol=1e-9)
    for M in (ma, mc):
        assert np.allclose(M @ corner_right, corner_right, atol=1e-9)
    assert not np.allclose(ma @ corner_p, corner_p, atol=1e-6)


def test_spherical_patches_close_at_group_order():
    assert len(generate_patch(4, 3, 12).tiles) == 48
    assert len(generate_patch(3, 4, 12).tiles) == 48
    assert len(generate_patch(3, 5, 16).tiles) == 120


def euclidean_ball_sizes(p, q, depth):
    """Word-ball sizes by exact integer BFS; only for integer mirrors."""
    tri = fundamental_triangle(p, q)
    gens = [np.rint(M).astype(int) for M in tri.mirrors]
    for M, X in zip(tri.mirrors, gens):
        assert np.max(np.abs(M - X)) < 1e-12  # really integral
    seen = {tuple(np.eye(3, dtype=int).ravel())}
    frontier = [np.eye(3, dtype=int)]
    sizes = [1]
    for _ in range(depth):
        nxt = []
        for M in frontier:
            for g in gens:
                N = M @ g
                k = tuple(N.ravel())
                if k not in seen:
                    seen.add(k)
                    nxt.append(N)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def test_quantized_dedup_matches_exact_arithmetic():
    # the square tiling group has integer mirror matrices, so the float
    # patch builder can be checked against exact integer enumeration
    exact = euclidean_ball_sizes(4, 4, 8)
    for d in range(9):
        assert len(generate_patch(4, 4, d).tiles) == exact[d]


def test_patch_words_are_reduced_and_consistent():
    # the matrices are made a level at a time, yet each is exactly its
    # word's mirrors multiplied left to right, to the last tile of the
    # patch or of the whole (3,5) sphere
    for pq, depth in (((7, 3), 16), ((3, 5), 40)):
        patch = generate_patch(*pq, depth)
        tri = patch.triangle
        words = patch.tiles
        assert len(set(words)) == len(words)
        assert words[0] == ()
        assert patch.matrices.shape == (len(words), 3, 3)
        for w, M in zip(words, patch.matrices):
            assert all(u != v for u, v in zip(w, w[1:]))
            assert np.array_equal(word_matrix(tri, w), M)
            assert len(w) <= depth


def test_neighbour_table_matches_matrix_route():
    # the exact table against the float matrices, at a depth where
    # distinct group elements are still far apart
    rng = random.Random(11)
    for p, q in ((4, 3), (4, 4), (7, 3), (5, 4), (3, 6)):
        patch = generate_patch(p, q, 10)
        tri, mats = patch.triangle, patch.matrices
        rounded = np.round(mats.reshape(-1, 9), 6)
        assert len(np.unique(rounded, axis=0)) == len(patch.tiles)
        lengths = [len(w) for w in patch.tiles]
        for i, links in enumerate(patch.neighbours):
            for g, j in enumerate(links):
                if j < 0:
                    assert lengths[i] == patch.depth  # only the rim has outside links
                    continue
                assert patch.neighbours[j][g] == i
                assert np.allclose(mats[j], mats[i] @ tri.mirrors[g], atol=1e-6)
        words = [(A,), (B, C), (C, A, B), (A, B, A, C, B, C)]
        for _ in range(6):
            # random words up to the patch depth, the longest image accepts
            w = [rng.randrange(3)]
            for _ in range(rng.randrange(patch.depth)):
                w.append(rng.choice([g for g in (A, B, C) if g != w[-1]]))
            words.append(tuple(w))
        for w in words:
            M = word_matrix(tri, w)
            image = patch.image(w)
            assert image[0] == patch.walk(0, w)
            for i, j in enumerate(image):
                if j >= 0:
                    assert np.allclose(mats[j], M @ mats[i], atol=1e-6)
                else:
                    # every tile within depth - len(w) of the centre is mapped
                    assert lengths[i] > patch.depth - len(w)
        with pytest.raises(DomainError):
            patch.image((A, B) * 5 + (A,))  # one letter longer than the depth


# five infinite groups, and two spheres whose levels run out at 9 and 15
LEVEL_GRID = [(7, 3), (8, 3), (5, 4), (4, 4), (6, 3), (4, 3), (3, 5)]


@pytest.mark.parametrize("pq", LEVEL_GRID, ids=str)
def test_levels_match_the_per_triangle_route(pq):
    # the patch a level at a time against the tile-by-tile search, at
    # depths 0, 1, 2 and 10 to 34: the same words, built on first read
    # and kept, links and matrices bit for bit, and the same image of a
    # random word of every length
    rng = random.Random(sum(pq))
    depths = {0, 1, 2, *range(10, 35)}
    for depth, slow in enumerate(patches_per_triangle(*pq, 34)):
        if depth not in depths:
            continue
        patch = generate_patch(*pq, depth)
        assert "tiles" not in patch.__dict__
        assert patch.tiles == slow.tiles and patch.tiles is patch.tiles
        assert patch.ends == tuple(slow.ends)
        assert patch.neighbours.tolist() == slow.neighbours
        assert patch.matrices.tobytes() == slow.matrices.tobytes()
        assert patch.last.tolist() == [-1] + [w[-1] for w in slow.tiles[1:]]
        for length in range(depth + 1):
            w = [rng.randrange(3)] if length else []
            while len(w) < length:
                w.append(rng.choice([g for g in (A, B, C) if g != w[-1]]))
            assert patch.image(tuple(w)).tolist() == image_per_triangle(slow, tuple(w))


def test_patch_sizes_follow_the_growth_series():
    for p, q, depth in ((7, 3, 40), (7, 3, 50), (5, 4, 30), (8, 3, 40)):
        assert len(generate_patch(p, q, depth).tiles) == ball_size(p, q, depth)


def test_merged_tiles_never_exceed_a_tile(provider):
    patch = generate_patch(7, 3, 40)
    for kind in TilingKind:
        rep = census(7, 3, kind, Scope.FULL, 1, classes_provider=provider)
        cp = colour_patch(patch, rep.entries[0].representatives[0].table, kind)
        assert max(len(poly) for poly in cp.polygons) == cp.polygon_size


def test_depth_zero_and_errors(monkeypatch):
    patch = generate_patch(7, 3, 0)
    assert len(patch.tiles) == 1
    assert patch.walk(0, (A, B, C)) == -1  # the walk stops once it leaves the patch
    # a walk starts at a tile of the patch, with or without letters to read
    two = generate_patch(7, 3, 2)
    assert two.ends[-1] == 9
    for i, w in ((-5, (A,)), (12, ()), (12, (A,)), (9, ()), (-1, ())):
        with pytest.raises(DomainError, match=f"tile {i} is not one of the patch's 9"):
            two.walk(i, w)
    for depth in (-1, False):
        with pytest.raises(DomainError):
            generate_patch(7, 3, depth)
    monkeypatch.setattr(colsym.geometry, "TILE_BUDGET", 100)
    with pytest.raises(ResourceLimit):
        generate_patch(7, 3, 12)


def test_geometry_matches_classification():
    for pq in PAIRS:
        assert fundamental_triangle(*pq).geometry is classify_geometry(*pq)
