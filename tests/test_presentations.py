from fractions import Fraction

import pytest

from colsym.errors import DomainError
from colsym.presentations import (
    MIRROR_TWIST,
    Geometry,
    Presentation,
    classify_geometry,
    triangle_group,
    von_dyck_group,
)
from colsym.words import (
    A,
    B,
    C,
    REFLECTIONS,
    ROTATIONS,
    XGEN,
    XINV,
    ZGEN,
    ZINV,
)
from oracle import (
    MIRROR_TWIST as WORD_TWIST,
    apply_generator_map,
    free_reduce,
    rotation_word_as_reflections,
    sign_parity,
    word_matrix,
)


def test_classify_geometry():
    assert classify_geometry(4, 3) is Geometry.SPHERICAL
    assert classify_geometry(3, 5) is Geometry.SPHERICAL
    assert classify_geometry(4, 4) is Geometry.EUCLIDEAN
    assert classify_geometry(3, 6) is Geometry.EUCLIDEAN
    assert classify_geometry(6, 3) is Geometry.EUCLIDEAN
    assert classify_geometry(7, 3) is Geometry.HYPERBOLIC
    assert classify_geometry(5, 4) is Geometry.HYPERBOLIC
    # the sign of 1/p + 1/q - 1/2, in fractions
    for p in range(3, 41):
        for q in range(3, 41):
            s = Fraction(1, p) + Fraction(1, q) - Fraction(1, 2)
            expected = (Geometry.SPHERICAL if s > 0 else
                        Geometry.EUCLIDEAN if s == 0 else Geometry.HYPERBOLIC)
            assert classify_geometry(p, q) is expected, (p, q)


def test_triangle_group_relators():
    G = triangle_group(4, 3)
    assert G.alphabet is REFLECTIONS
    assert G.relators == (
        (A, A),
        (B, B),
        (C, C),
        (A, B) * 3,
        (A, C) * 2,
        (B, C) * 4,
    )
    assert G.name == "triangle-4-3"


def test_bad_parameters_rejected():
    for p, q in ((1, 3), (3, 1), (0, 5), (-2, 3)):
        with pytest.raises(DomainError):
            triangle_group(p, q)
        with pytest.raises(DomainError):
            classify_geometry(p, q)


def test_presentation_validation():
    with pytest.raises(DomainError):
        Presentation(REFLECTIONS, ((),), "empty-relator")
    with pytest.raises(DomainError):
        Presentation(REFLECTIONS, ((A, 7),), "bad-letter")


def test_von_dyck_relators():
    vd = von_dyck_group(7, 3)
    assert isinstance(vd, Presentation) and vd.alphabet is ROTATIONS
    assert vd.relators == (
        (XGEN,) * 3,
        (ZGEN,) * 7,
        (XGEN, ZGEN) * 2,
    )
    # the twist is conjugation by b, letter for letter, and keeps the inverse pairing
    assert {g: (MIRROR_TWIST[g],) for g in (XGEN, ZGEN)} == WORD_TWIST[B]
    assert all(MIRROR_TWIST[ROTATIONS.inv[g]] == ROTATIONS.inv[MIRROR_TWIST[g]]
               for g in range(ROTATIONS.size))


def test_mirror_twist_is_an_involution():
    # conjugation by a mirror applied twice restores each generator
    assert all(MIRROR_TWIST[MIRROR_TWIST[g]] == g for g in range(ROTATIONS.size))
    for gmap in (WORD_TWIST[A], WORD_TWIST[B]):
        for g in (XGEN, ZGEN):
            twice = apply_generator_map(gmap[g], gmap, ROTATIONS)
            assert free_reduce(twice, ROTATIONS) == (g,)


def test_mirror_twist_respects_relators():
    # the image of every relator must again be a relation; verify in the
    # concrete matrix realization, where x = ab and z = bc
    import numpy as np

    from colsym.geometry import fundamental_triangle

    for p, q in ((7, 3), (5, 4), (4, 3)):
        tri = fundamental_triangle(p, q)
        for rel in von_dyck_group(p, q).relators:
            for gmap in (WORD_TWIST[A], WORD_TWIST[B]):
                image = apply_generator_map(rel, gmap, ROTATIONS)
                M = word_matrix(tri, rotation_word_as_reflections(image))
                assert np.max(np.abs(M - np.eye(3))) < 1e-9


def test_rotation_word_as_reflections():
    assert rotation_word_as_reflections((XGEN,)) == (A, B)
    assert rotation_word_as_reflections((XINV,)) == (B, A)
    assert rotation_word_as_reflections((ZGEN,)) == (B, C)
    assert rotation_word_as_reflections((ZINV,)) == (C, B)
    assert rotation_word_as_reflections((XGEN, ZGEN)) == (A, C)
    assert sign_parity(rotation_word_as_reflections((XGEN, ZINV, XGEN))) == 0


def test_apply_generator_map_identity():
    w = (XGEN, ZGEN, XINV)
    identity = {XGEN: (XGEN,), ZGEN: (ZGEN,)}
    assert apply_generator_map(w, identity, ROTATIONS) == w
