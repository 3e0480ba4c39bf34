"""The Todd-Coxeter oracle checked against an explicit matrix group.

The (4,3) reflection group is the symmetry group of the cube, realized
by signed permutation matrices.  Every coset table the enumerator
produces for a subgroup of it can therefore be compared entry by entry
with honest matrix arithmetic.
"""
import hashlib

import numpy as np
import pytest

from colsym.census import (
    Scope, TilingKind, _lift, colour_permutation, required_words, rotation_required_word,
)
from colsym.coset import CosetTable, canonical_table, least_fixed_coset, reroot, transform_subgroup
from colsym.errors import DomainError, ResourceLimit
from colsym.lowindex import low_index_classes
from colsym.presentations import MIRROR_TWIST, triangle_group, von_dyck_group
from colsym.words import A, B, C, REFLECTIONS, ROTATIONS, XGEN, XINV, ZGEN, ZINV
from oracle import (
    canonical_by_rerooting, enumerate_cosets, fixed_cosets, rows, standardize, transversal_words,
    validate, walk,
)

MA = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
MB = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
MC = np.diag([1, -1, 1])
GEN_MATRICES = {A: MA, B: MB, C: MC}


def word_matrix(w):
    M = np.eye(3, dtype=int)
    for g in w:
        M = M @ GEN_MATRICES[g]
    return M


def full_matrix_group():
    """All products of the three generators, as hashable key -> matrix."""
    seen = {tuple(np.eye(3, dtype=int).ravel()): np.eye(3, dtype=int)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for M in frontier:
            for g in (A, B, C):
                N = M @ GEN_MATRICES[g]
                k = tuple(N.ravel())
                if k not in seen:
                    seen[k] = N
                    nxt.append(N)
        frontier = nxt
    return seen


def test_generator_matrices_satisfy_relators():
    for rel in triangle_group(4, 3).relators:
        assert np.array_equal(word_matrix(rel), np.eye(3, dtype=int))


def test_cube_group_order():
    assert len(full_matrix_group()) == 48


def test_regular_table_matches_matrix_multiplication():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [])
    assert t.n == 48

    elements = full_matrix_group()
    trans = transversal_words(t)
    key_of_coset = [tuple(word_matrix(w).ravel()) for w in trans]
    assert len(set(key_of_coset)) == 48  # transversal hits every element
    coset_of_key = {k: i for i, k in enumerate(key_of_coset)}
    assert set(coset_of_key) == set(elements)

    for i, w in enumerate(trans):
        for g in (A, B, C):
            expected = coset_of_key[tuple((word_matrix(w) @ GEN_MATRICES[g]).ravel())]
            assert t.action((g,))[i] == expected


@pytest.mark.parametrize(
    "gens,index",
    [
        ([(B,), (C,)], 6),  # face stabilizer
        ([(A,), (B,)], 8),  # vertex stabilizer
        ([(A,), (C,)], 12),  # edge stabilizer
        ([(A, B)], 16),
        ([], 48),
    ],
)
def test_cube_subgroup_indices(gens, index):
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, gens)
    assert t.n == index
    report = validate(t, G)
    assert report.ok, report.failures


def test_subgroup_cosets_match_matrix_cosets():
    # the table for <b, c> must realize the permutation action of the
    # matrix group on the six right cosets of the subgroup it generates
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(B,), (C,)])

    sub = {tuple(np.eye(3, dtype=int).ravel())}
    frontier = [np.eye(3, dtype=int)]
    while frontier:
        nxt = []
        for M in frontier:
            for g in (B, C):
                N = M @ GEN_MATRICES[g]
                if tuple(N.ravel()) not in sub:
                    sub.add(tuple(N.ravel()))
                    nxt.append(N)
        frontier = nxt
    assert len(sub) == 8

    trans = transversal_words(t)
    # right coset Hw as a frozenset of matrix keys
    def coset_key(w):
        W = word_matrix(w)
        return frozenset(
            tuple((np.array(h).reshape(3, 3) @ W).ravel()) for h in sub
        )

    cosets = [coset_key(w) for w in trans]
    assert len(set(cosets)) == 6
    lookup = {ck: i for i, ck in enumerate(cosets)}
    for i, w in enumerate(trans):
        for g in (A, B, C):
            assert t.action((g,))[i] == lookup[coset_key(w + (g,))]


def test_von_dyck_regular_table():
    vd = von_dyck_group(4, 3)
    t = enumerate_cosets(vd, [])
    assert t.n == 24  # rotation group of the cube
    assert validate(t, vd).ok


def test_capacity_exceeded():
    G = triangle_group(7, 3)  # infinite group, trivial subgroup
    with pytest.raises(ResourceLimit):
        enumerate_cosets(G, [], max_cosets=500)


def test_standardize_idempotent_and_reroot_conjugates():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(A,), (B,)])
    assert standardize(t) == t  # enumerate_cosets returns standardized tables
    for i in range(t.n):
        r = reroot(t, i)
        assert validate(r, G).ok
        assert canonical_table(r) == canonical_table(t)
    # a base coset is one of the table's, at either end
    for base in (-1, t.n):
        with pytest.raises(DomainError, match=f"coset {base} is not one of the table's {t.n}"):
            reroot(t, base)


def test_canonical_table_is_minimal_rerooting():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(A, B)])
    c = canonical_table(t)
    assert canonical_table(c) == c
    assert c.entries == min(reroot(t, i).entries for i in range(t.n))


def test_canonical_table_equals_building_every_rerooting():
    # every re-rooting of every class of (7,3) to index 30, standardized
    # or not: the early-exit comparison picks the same least re-rooting
    G = triangle_group(7, 3)
    tables = low_index_classes(G, 30).tables
    assert len(tables) == 34
    for t in tables:
        for base in range(t.n):
            r = reroot(t, base)
            assert canonical_table(r) == canonical_by_rerooting(r) == t
        # a table whose rows are not in scan order from coset 0
        swap = {0: t.n - 1, t.n - 1: 0}
        perm, table = [swap.get(i, i) for i in range(t.n)], rows(t)
        shuffled = CosetTable(t.alphabet, tuple(perm[v] for i in range(t.n) for v in table[perm[i]]))
        assert canonical_table(shuffled) == canonical_by_rerooting(shuffled) == t


def test_canonical_table_refuses_an_intransitive_table():
    # two fixed points of every letter: two orbits
    t = CosetTable(triangle_group(4, 3).alphabet, (0, 0, 0, 1, 1, 1))
    with pytest.raises(DomainError):
        canonical_table(t)
    # reroot renumbers with the same routine, from either orbit
    with pytest.raises(DomainError):
        reroot(t, 0)
    with pytest.raises(DomainError):
        reroot(t, 1)


def test_a_table_refuses_entries_of_no_whole_number_of_rows():
    # n is the entries' length over the alphabet size, so that must be a
    # positive whole number of rows
    for entries in ((), (0,), (0, 0, 0, 1), tuple(range(7))):
        with pytest.raises(DomainError, match="not a multiple of the alphabet size 3"):
            CosetTable(REFLECTIONS, entries)
    with pytest.raises(DomainError, match="alphabet size 4"):
        CosetTable(ROTATIONS, (0, 0, 0))
    t = CosetTable(REFLECTIONS, (1, 1, 1, 0, 0, 0))
    assert t.n == 2 and rows(t) == ((1, 1, 1), (0, 0, 0))


def test_validate_catches_corruption():
    G = triangle_group(4, 3)
    t = enumerate_cosets(G, [(B,), (C,)])

    m = t.alphabet.size
    entries = list(t.entries)
    entries[2 * m], entries[3 * m] = entries[3 * m], entries[2 * m]
    bad = CosetTable(t.alphabet, tuple(entries))
    assert not validate(bad, G).ok

    entries = list(t.entries)
    entries[1] = 0 if entries[1] != 0 else 1
    bad = CosetTable(t.alphabet, tuple(entries))
    assert not validate(bad, G).ok


def test_enumerate_rejects_bad_budget():
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        enumerate_cosets(G, [], max_cosets=0)


@pytest.mark.parametrize("pres, bound", [(triangle_group(7, 3), 24), (von_dyck_group(5, 4), 12)],
                         ids=lambda x: getattr(x, "name", x))
def test_action_against_a_walk_per_coset(pres, bound):
    alphabet = pres.alphabet
    inverse_pairs = [(g, alphabet.inv[g]) for g in range(alphabet.size)]
    relators = [*pres.relators, *map(alphabet.inverse_word, pres.relators)]
    words = [(), *((g,) for g in range(alphabet.size)), *inverse_pairs, *relators, (0, 2, 1, 2)]
    for t in low_index_classes(pres, bound).tables:
        for w in words:
            assert t.action(w) == [walk(t, i, w) for i in range(t.n)]
        for w in [(), *inverse_pairs, *relators]:
            assert t.action(w) == list(range(t.n))


@pytest.mark.parametrize("p, q, bound", [
    (7, 3, 48), (8, 3, 30), (5, 4, 26), (4, 4, 40), (4, 3, 30), (3, 5, 30),
])
def test_least_fixed_coset_against_every_fixed_coset(p, q, bound, provider):
    # the early-exit walk against every fixed coset, each word read as a
    # whole permutation: for every colouring class, the stabilizer words of
    # each kind and scope, the empty word and a few multi-word sets, and for
    # every von Dyck class of the lift the tile rotations
    reflection_words = [required_words(k, s) for k in TilingKind for s in Scope]
    reflection_words += [(), ((),), ((A,), (B,), (C,)), ((A, B, C), (C, B)), ((B, C), (A, B, A))]
    rotation_words = [(rotation_required_word(k),) for k in TilingKind]
    rotation_words += [(), ((),), ((XGEN,), (ZGEN,)), ((XINV, ZINV), (XGEN, ZGEN, XGEN))]
    found = set()
    for pres, words in ((triangle_group(p, q), reflection_words),
                        (von_dyck_group(p, q), rotation_words)):
        tables = provider(pres, bound if pres.alphabet == REFLECTIONS else bound // 2).tables
        assert tables
        for t in tables:
            for ws in words:
                least = least_fixed_coset(t, ws)
                assert least == min(fixed_cosets(t, ws), default=None)
                found.add(None if least is None else min(least, 1))
    assert found == {None, 0, 1}  # no coset fixed, coset 0, and a later one


def test_action_helpers_pinned():
    # one sha256 over what fixed_cosets, transform_subgroup, _lift and
    # colour_permutation give on the (7,3) classes to 40 and the von Dyck
    # (7,3) classes to 20, recorded while each walked the table its own
    # way; twisted and lifted tables in canonical form, as any labelling
    # of their cosets is as good
    reflection = low_index_classes(triangle_group(7, 3), 40).tables
    rotation = low_index_classes(von_dyck_group(7, 3), 20).tables
    h = hashlib.sha256()
    for t in reflection:
        for kind in TilingKind:
            for scope in Scope:
                fixed = fixed_cosets(t, required_words(kind, scope))
                assert type(fixed) is frozenset
                h.update(repr(sorted(fixed)).encode())
        for g in (A, B, C):
            perm = colour_permutation(t, (g,))
            assert type(perm) is tuple
            h.update(repr(perm).encode())
    for t in rotation:
        twisted, lifted = transform_subgroup(t, MIRROR_TWIST), _lift(t)
        for u in (twisted, lifted):
            assert type(u.entries) is tuple and all(type(v) is int for v in u.entries)
            h.update(repr(rows(canonical_table(u))).encode())
        # the twist is an involution: twice over, t's own rows, which hash alike
        back = transform_subgroup(twisted, MIRROR_TWIST)
        assert back == t and hash(back) == hash(t)
        assert canonical_table(lifted) in set(reflection)
    assert (len(reflection), len(rotation)) == (39, 17)
    assert h.hexdigest() == "caadd71415fc43785fdd21dd88f8c04308bada90ca2ad756c482af7e5c82c509"
