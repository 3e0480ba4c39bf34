import numpy as np
import pytest

from colsym.errors import DomainError, ResourceLimit
from colsym.geometry import (
    form_matrix,
    fundamental_triangle,
    generate_patch,
    matrix_key,
    reorthogonalize,
)
from colsym.presentations import Geometry, classify_geometry, triangle_group
from colsym.words import A, B, C
from oracle import form_residual

PAIRS = [(4, 3), (3, 5), (4, 4), (3, 6), (7, 3), (5, 4), (8, 3)]


@pytest.mark.parametrize("pq", PAIRS, ids=str)
def test_relator_matrices_are_identity(pq):
    tri = fundamental_triangle(*pq)
    for rel in triangle_group(*pq).relators:
        assert np.max(np.abs(tri.word_matrix(rel) - np.eye(3))) < 1e-9


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
    for M in (mb, mc):
        assert np.allclose(M @ tri.corner_p, tri.corner_p, atol=1e-9)
    for M in (ma, mb):
        assert np.allclose(M @ tri.corner_q, tri.corner_q, atol=1e-9)
    for M in (ma, mc):
        assert np.allclose(M @ tri.corner_right, tri.corner_right, atol=1e-9)
    assert not np.allclose(ma @ tri.corner_p, tri.corner_p, atol=1e-6)


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
    patch = generate_patch(7, 3, 6)
    tri = patch.triangle
    words = [t.word for t in patch.tiles]
    assert len(set(words)) == len(words)
    assert words[0] == ()
    for t in patch.tiles:
        assert all(u != v for u, v in zip(t.word, t.word[1:]))
        assert np.max(np.abs(tri.word_matrix(t.word) - t.matrix)) < 1e-6
        assert len(t.word) <= 6


def test_patch_find_and_neighbours():
    patch = generate_patch(5, 4, 4)
    tri = patch.triangle
    interior = patch.tiles[0]
    for g in (A, B, C):
        j = patch.find(interior.matrix @ tri.mirrors[g])
        assert j is not None
        assert patch.tiles[j].word in ((g,),)
    assert patch.find(np.eye(3) * 3.0) is None


def test_matrix_key_separates_and_groups():
    tri = fundamental_triangle(7, 3)
    ma, mb, _ = tri.mirrors
    assert matrix_key(ma) != matrix_key(mb)
    assert matrix_key(ma) == matrix_key(ma + 1e-9)


def test_reorthogonalize_cleans_drift():
    rng = np.random.default_rng(5)
    for geometry, pq in (
        (Geometry.SPHERICAL, (4, 3)),
        (Geometry.HYPERBOLIC, (7, 3)),
        (Geometry.EUCLIDEAN, (4, 4)),
    ):
        tri = fundamental_triangle(*pq)
        M = tri.word_matrix((A, B, C, B, A, C))
        drifted = M + rng.normal(scale=1e-9, size=(3, 3))
        if geometry is Geometry.EUCLIDEAN:
            drifted[2] = (0.0, 0.0, 1.0)  # keep the affine row exact
        cleaned = reorthogonalize(drifted, geometry)
        assert form_residual(cleaned, geometry) < 1e-12
        assert np.max(np.abs(cleaned - M)) < 1e-6


def test_depth_zero_and_errors():
    patch = generate_patch(7, 3, 0)
    assert len(patch.tiles) == 1
    with pytest.raises(DomainError):
        generate_patch(7, 3, -1)
    with pytest.raises(ResourceLimit):
        generate_patch(7, 3, 12, tile_budget=100)


def test_geometry_matches_classification():
    for pq in PAIRS:
        assert fundamental_triangle(*pq).geometry is classify_geometry(*pq)
