from functools import cached_property

import pytest

from colsym.cache import cached_provider
from colsym.census import Scope, TilingKind, census
from colsym.coset import (
    CosetTable, canonical_table, least_fixed_coset, orientation_sides, reroot,
    transform_subgroup,
)
from colsym.errors import DomainError
from colsym.lowindex import low_index_classes
from colsym.presentations import MIRROR_TWIST, triangle_group, von_dyck_group
from colsym.words import A, B, C, XGEN
from oracle import (
    MIRROR_TWIST as WORD_TWIST,
    apply_generator_map,
    conjugate_in,
    enumerate_cosets,
    fixed_cosets,
    schreier_generators,
    sign_parity,
    transversal_words,
    walk,
)


def test_transversal_words_reach_their_cosets():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(A,), (B,)])
    trans = transversal_words(t)
    assert trans[0] == ()
    assert len(trans) == t.n
    for i, w in enumerate(trans):
        assert t.action(w)[0] == i
    # transversal words from a standardized table are shortlex minimal,
    # so their lengths never decrease
    assert all(len(trans[i]) <= len(trans[i + 1]) for i in range(t.n - 1))


def test_schreier_generators_fix_base_coset():
    G = triangle_group(4, 3)
    for gens in ([(A,), (B,)], [(B,), (C,)], [(A, B)]):
        t = enumerate_cosets(G, gens)
        for w in schreier_generators(t):
            assert t.action(w)[0] == 0
            assert w != ()


def test_fixed_cosets():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(B,), (C,)])
    fx = fixed_cosets(t, [(B,), (C,)])
    assert 0 in fx
    assert fx == frozenset(
        i for i in range(t.n) if walk(t, i, (B,)) == i and walk(t, i, (C,)) == i
    )
    assert fixed_cosets(t, [()]) == frozenset(range(t.n))
    # the package asks only for the least of them
    assert least_fixed_coset(t, [(B,), (C,)]) == 0 == least_fixed_coset(t, [()])
    assert least_fixed_coset(t, [(A,)]) == min(fixed_cosets(t, [(A,)]), default=None)
    # the index-2 orientation subgroup: every letter swaps its two cosets
    assert least_fixed_coset(CosetTable(t.alphabet, ((1, 1, 1), (0, 0, 0))), [(A,)]) is None


def test_orientation_two_ways():
    # the bipartition test on the table must agree with checking the
    # parity of every Schreier generator, for every class, and the sides
    # it finds must be the parities of the transversal words
    G = triangle_group(4, 3)
    for t in low_index_classes(G, 8).tables:
        by_parity = all(
            sign_parity(w) == 0 for w in schreier_generators(t)
        )
        assert (orientation_sides(t) is not None) == by_parity
        sides = orientation_sides(t)
        if by_parity:
            assert sides == [sign_parity(w) for w in transversal_words(t)]
        else:
            assert sides is None


def test_orientation_rejects_signed_alphabet():
    vd = von_dyck_group(4, 3)
    t = enumerate_cosets(vd, [(XGEN,)])
    with pytest.raises(DomainError):
        orientation_sides(t)
    with pytest.raises(DomainError):  # and again: no answer was cached
        orientation_sides(t)


def test_orientation_is_found_once_a_table(monkeypatch):
    # route a asks for the sides of every class of one list once a tiling
    # kind; the bipartition runs once a table
    found = []
    bipartition = CosetTable._sides.func

    def counted(t):
        found.append(id(t))
        return bipartition(t)

    sides = cached_property(counted)
    sides.__set_name__(CosetTable, "_sides")
    monkeypatch.setattr(CosetTable, "_sides", sides)
    provider = cached_provider()
    for kind in TilingKind:
        census(7, 3, kind, Scope.ROTATION, 24, strategy="a", classes_provider=provider)
    tables = provider(triangle_group(7, 3), 48).tables
    assert sorted(found) == sorted({id(t) for t in tables})


def test_orientation_answers_are_fresh_lists():
    # a caller that changes its answer cannot change the cached sides
    t = next(t for t in low_index_classes(triangle_group(4, 3), 8).tables
             if orientation_sides(t) is not None)
    first, second = orientation_sides(t), orientation_sides(t)
    assert first == second and first is not second
    second[0] ^= 1
    assert orientation_sides(t) == first


def test_orientation_subgroups_have_even_index():
    G = triangle_group(4, 3)
    for t in low_index_classes(G, 7).tables:
        if orientation_sides(t) is not None:
            assert t.n % 2 == 0


def test_conjugate_in():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(A,), (B,)])
    for i in range(t.n):
        assert conjugate_in(reroot(t, i), t)
    s = enumerate_cosets(G, [(B,), (C,)])
    assert not conjugate_in(s, t)
    # same index but different classes: <ab> vs <ba> are conjugate,
    # <ab> vs an unrelated C3 may not be; use two known non-conjugates
    u = enumerate_cosets(G, [(A, B)])
    v = enumerate_cosets(G, [(B, A)])
    assert conjugate_in(u, v)


def test_transform_subgroup_identity_map():
    vd = von_dyck_group(7, 3)
    identity = tuple(range(vd.alphabet.size))
    for t in low_index_classes(vd, 6).tables:
        assert transform_subgroup(t, identity) == t


@pytest.mark.parametrize("p,q,bound", [(7, 3, 30), (5, 4, 22), (8, 3, 22)])
def test_mirror_twist_matches_todd_coxeter(provider, p, q, bound):
    # the twisted subgroup read off the table by swapping columns
    # (conjugation by b) must be conjugate to the one that Todd-Coxeter
    # enumerates from the Schreier generators conjugated by a
    vd = von_dyck_group(p, q)
    for t in provider(vd, bound).tables:
        gens = [apply_generator_map(w, WORD_TWIST[A], vd.alphabet) for w in schreier_generators(t)]
        expected = enumerate_cosets(vd, gens, max_cosets=200 * bound)
        assert canonical_table(transform_subgroup(t, MIRROR_TWIST)) == canonical_table(expected)
