import json

import pytest

import colsym.lowindex
from colsym import goldens
from colsym.cache import serialize_class_list
from colsym.census import (
    Scope,
    TilingKind,
    census,
    colouring_classes,
    colour_permutation,
    format_census,
    required_words,
    rotation_required_word,
    _lift,
)
from colsym.coset import CosetTable
from colsym.errors import DomainError
from colsym.lowindex import low_index_classes
from colsym.presentations import Presentation, triangle_group, von_dyck_group
from colsym.subgroups import fixed_cosets, orientation_sides
from colsym.words import A, B, C, REFLECTIONS, XGEN, ZGEN
from oracle import (
    colouring_classes_by_walks,
    colours_transitive,
    compose_permutations,
    euclidean_counts,
    full_scope_via_rotations,
    oracle_classes,
    permutation_homomorphism_check,
    rotation_word_as_reflections,
    subgroup_counts,
    subgroups_in_classes,
)


def witness_table(witness, n):
    """Rebuild the coset table encoded by an oracle witness."""
    parts = [witness[i * n : (i + 1) * n] for i in range(3)]
    rows = tuple(tuple(parts[g][i] for g in (A, B, C)) for i in range(n))
    return CosetTable(REFLECTIONS, rows)


@pytest.mark.parametrize("pq", [(4, 3), (4, 4)])
@pytest.mark.parametrize("kind", list(TilingKind))
def test_full_census_against_oracle(pq, kind, provider):
    """Count colourings a second way, from brute-forced subgroups.

    Whether a class admits a coset fixed by the stabilizer words is a
    conjugacy invariant, so checking it on the oracle's witnesses counts
    the same colourings without touching the search code at all.
    """
    p, q = pq
    G = triangle_group(p, q)
    words = required_words(kind, Scope.FULL)
    report = census(p, q, kind, Scope.FULL, 6, classes_provider=provider)
    got = report.multiplicities()
    for k in range(1, 7):
        expected = sum(
            1
            for w in oracle_classes(G, k).witnesses
            if fixed_cosets(witness_table(w, k), words)
        )
        assert got.get(k, 0) == expected


def test_golden_rows_to_their_published_ends(provider):
    # the selftest bounds (FULL_BOUNDS, ROTATION_BOUNDS) stop short of
    # most rows; here every row is checked up to its last shown value,
    # rotation rows by both routes
    for p, q in {key[:2] for key in goldens.FULL_ROWS}:
        full = max(last for key, (_, last) in goldens.FULL_ROWS.items() if key[:2] == (p, q))
        rotation = max(last for key, (_, last) in goldens.ROTATION_ROWS.items() if key[:2] == (p, q))
        provider(triangle_group(p, q), max(full, 2 * rotation))  # largest request first
        provider(von_dyck_group(p, q), rotation)
    checked = 0
    for rows, scope, strategy in (
        (goldens.FULL_ROWS, Scope.FULL, "a"),
        (goldens.ROTATION_ROWS, Scope.ROTATION, "both"),
    ):
        for (p, q, kind), (row, last) in rows.items():
            report = census(p, q, kind, scope, last, strategy=strategy, classes_provider=provider)
            ok, detail = goldens.matches_row(report, row, last)
            assert ok, f"{scope.value} {kind.display(p, q)} <= {last}: {detail}"
            assert report.multiplicities() == row
            checked += 1
    assert checked == 18


def test_default_provider_searches_each_group_once(monkeypatch):
    # route a's rotation half and route b need the same von Dyck list:
    # with no provider given, one call searches it once
    searched = []
    search = colsym.lowindex._search

    def counted(pres, max_index, seeds, **kwargs):
        searched.append((pres.name, max_index))
        return search(pres, max_index, seeds, **kwargs)

    monkeypatch.setattr(colsym.lowindex, "_search", counted)
    census(7, 3, TilingKind.LAVES, Scope.ROTATION, 24, strategy="both")
    assert searched == [("triangle-7-3", 48), ("vondyck-7-3", 24)]


def test_rotation_strategies_agree_euclidean(provider):
    for kind in TilingKind:
        rep = census(
            4, 4, kind, Scope.ROTATION, 6, strategy="both", classes_provider=provider
        )
        assert rep.strategy == "both"


@pytest.mark.parametrize("p, q", [(4, 4), (6, 3)])
def test_euclidean_censuses_match_the_closed_form(p, q):
    # rotation scope by both routes, so route a's lifted von Dyck classes
    # are counted against the ideals of Z[i] and Z[w] too
    full = census(p, q, TilingKind.PQ, Scope.FULL, 100)
    assert full.multiplicities() == euclidean_counts(p, q, Scope.FULL, 100)
    rotation = census(p, q, TilingKind.PQ, Scope.ROTATION, 50, strategy="both")
    assert rotation.multiplicities() == euclidean_counts(p, q, Scope.ROTATION, 50)


def test_census_entries_shape(provider):
    rep = census(7, 3, TilingKind.PQ, Scope.FULL, 24, classes_provider=provider)
    assert rep.multiplicities() == {1: 1, 8: 1, 15: 1, 22: 1, 24: 1}
    for e in rep.entries:
        assert e.count == len(e.representatives)
        for rec in e.representatives:
            t = rec.table
            assert t.n == e.colours
            # stored representative is re-rooted: its base coset is
            # literally fixed by the stabilizer words
            for w in required_words(TilingKind.PQ, Scope.FULL):
                assert t.apply(0, w) == 0
            assert colours_transitive(t)


def test_rotation_representatives_are_orientation_subgroups(provider):
    rep = census(
        7, 3, TilingKind.LAVES, Scope.ROTATION, 15, classes_provider=provider
    )
    assert rep.multiplicities() == {1: 1, 7: 1, 9: 1, 14: 6, 15: 2}
    for e in rep.entries:
        for rec in e.representatives:
            assert orientation_sides(rec.table) is not None
            assert rec.table.n == 2 * e.colours
            w = required_words(TilingKind.LAVES, Scope.ROTATION)[0]
            assert rec.table.apply(0, w) == 0


def test_full_contained_in_rotation(provider):
    for kind in TilingKind:
        full = census(7, 3, kind, Scope.FULL, 22, classes_provider=provider)
        rot = census(7, 3, kind, Scope.ROTATION, 22, classes_provider=provider)
        mf, mr = full.multiplicities(), rot.multiplicities()
        for k, c in mf.items():
            assert mr.get(k, 0) >= c


def test_checkerboard_permutations(provider):
    rep = census(4, 4, TilingKind.PQ, Scope.FULL, 2, classes_provider=provider)
    t = rep.entries[-1].representatives[0].table
    assert colour_permutation(t, (A,)) == (1, 0)
    assert colour_permutation(t, (B,)) == (0, 1)
    assert colour_permutation(t, (C,)) == (0, 1)
    assert colour_permutation(t, (A, B, A)) == (0, 1)
    assert permutation_homomorphism_check(t, (A, B), (B, A, C))
    assert compose_permutations((1, 0), (1, 0)) == (0, 1)


def test_format_census_styles(provider):
    rep = census(4, 3, TilingKind.PQ, Scope.FULL, 10, classes_provider=provider)
    plain = format_census(rep, "plain")
    assert plain == "(4^3) full <= 10: 1, 3, 6"

    doc = json.loads(format_census(rep, "json"))
    assert doc["p"] == 4 and doc["q"] == 3
    assert doc["tiling"] == "pq" and doc["scope"] == "full"
    assert doc["entries"] == [
        {"colours": 1, "count": 1},
        {"colours": 3, "count": 1},
        {"colours": 6, "count": 1},
    ]

    csv = format_census(rep, "csv").splitlines()
    assert csv[0] == "p,q,tiling,scope,colours,count"
    assert len(csv) == 4
    assert csv[1] == "4,3,pq,full,1,1"

    with pytest.raises(DomainError):
        format_census(rep, "latex")


def test_census_rejects_bad_arguments(provider):
    with pytest.raises(DomainError):
        census(7, 3, TilingKind.PQ, Scope.FULL, 0, classes_provider=provider)
    with pytest.raises(DomainError):
        census(
            7, 3, TilingKind.PQ, Scope.ROTATION, 4,
            strategy="c", classes_provider=provider,
        )


def test_census_rejects_unknown_strategy_in_every_scope(provider):
    for scope in Scope:
        with pytest.raises(DomainError, match="unknown strategy"):
            census(
                7, 3, TilingKind.PQ, scope, 8,
                strategy="no-such-route", classes_provider=provider,
            )


@pytest.mark.parametrize("p, q", [(7, 3), (8, 3), (5, 4)])
def test_full_scope_classes_through_the_rotation_group(p, q):
    # each full-scope class S, table for table, from its rotation half
    # T = S ∩ G+ (see full_scope_via_rotations), at the golden bounds
    G = triangle_group(p, q)
    for kind in TilingKind:
        bound = goldens.FULL_BOUNDS[(p, q, kind)]
        words = required_words(kind, Scope.FULL)
        expected = {t for t in colouring_classes(G, bound).tables if fixed_cosets(t, words)}
        (r1,), (r2,) = words
        assert full_scope_via_rotations(p, q, r1, r2, bound) == expected


@pytest.mark.parametrize("p, q, bound", [
    (7, 3, 64), (7, 3, 33), (8, 3, 36), (5, 4, 34), (4, 4, 60), (6, 3, 40), (4, 3, 30), (3, 5, 30),
])
def test_lifted_rotation_half_matches_the_reflection_walks(p, q, bound):
    # the rotation scope's classes lifted from the von Dyck group to half
    # the bound (rounded down at 33), byte for byte against unoriented
    # reflection walks kept to orientation subgroups
    got = colouring_classes(triangle_group(p, q), bound)
    assert serialize_class_list(got) == serialize_class_list(colouring_classes_by_walks(p, q, bound))


@pytest.mark.parametrize("p, q", [(7, 3), (4, 4)])
def test_lift_labels_the_cosets_as_documented(p, q):
    # coset i of the lift is H u_i and coset k + i is H u_i a.  Lifting
    # a H a instead, as swapping w(g a) and w(a g) does, gives the same
    # canonical class, so only the labelling tells the two apart
    for t in colouring_classes(von_dyck_group(p, q), 12).tables:
        lifted, k = _lift(t), t.n
        for i in range(k):
            assert lifted.apply(i, (A,)) == k + i
            for g in (XGEN, ZGEN):
                assert lifted.apply(i, rotation_word_as_reflections((g,))) == t.apply(i, (g,))


def test_colouring_classes_need_a_triangle_group():
    # the rotation half is read off the relators (bc)^p and (ab)^q
    renamed = Presentation(REFLECTIONS, triangle_group(5, 4).relators[::-1], "renamed")
    assert colouring_classes(renamed, 12).tables == colouring_classes(triangle_group(5, 4), 12).tables
    for relators in (((A, A),), triangle_group(5, 4).relators + ((A, B, C) * 2,)):
        with pytest.raises(DomainError):
            colouring_classes(Presentation(REFLECTIONS, relators, "other"), 4)


@pytest.mark.parametrize("p, q", [(7, 3), (8, 3), (5, 4)])
def test_von_dyck_subgroups_counted_exactly(p, q):
    # every subgroup of index <= 20, counted from the characters of S_n
    classes = low_index_classes(von_dyck_group(p, q), 20).tables
    assert subgroups_in_classes(classes, 20) == subgroup_counts(p, q, 20)


@pytest.mark.parametrize("p, q", [(7, 3), (8, 3), (5, 4)])
def test_route_b_subgroups_counted_exactly(p, q):
    # route b's qualifying classes per tiling, to the rotation golden bound,
    # against the subgroups whose cosets the tile rotation does not all move
    bound = goldens.ROTATION_BOUNDS[(p, q, TilingKind.PQ)]
    classes = colouring_classes(von_dyck_group(p, q), bound).tables
    for kind in TilingKind:
        word = rotation_required_word(kind)
        qualifying = [t for t in classes if fixed_cosets(t, (word,))]
        assert subgroups_in_classes(qualifying, bound) == subgroup_counts(p, q, bound, word)


def test_required_words():
    assert required_words(TilingKind.PQ, Scope.FULL) == ((B,), (C,))
    assert required_words(TilingKind.QP, Scope.FULL) == ((A,), (B,))
    assert required_words(TilingKind.LAVES, Scope.FULL) == ((A,), (C,))
    assert required_words(TilingKind.PQ, Scope.ROTATION) == ((B, C),)


def test_display_names():
    assert TilingKind.PQ.display(7, 3) == "(7^3)"
    assert TilingKind.QP.display(7, 3) == "(3^7)"
    assert TilingKind.LAVES.display(7, 3) == "[3.7.3.7]"
    assert TilingKind.LAVES.display(3, 8) == "[3.8.3.8]"
