import importlib
import io
import json
from dataclasses import replace

import pytest

import colsym.coset
import colsym.lowindex
from colsym import goldens
from colsym.cache import cached_provider, serialize_class_list
from colsym.census import (
    Scope,
    TilingKind,
    census,
    colouring_classes,
    colouring_seeds,
    colour_permutation,
    format_census,
    required_words,
    rotation_required_word,
    _census_rotation_b,
    _lift,
)
from colsym.coset import (
    CosetTable, canonical_table, least_fixed_coset, orientation_sides, reroot,
    transform_subgroup,
)
from colsym.errors import DomainError, InternalError
from colsym.geometry import generate_patch
from colsym.lowindex import low_index_classes
from colsym.presentations import MIRROR_TWIST, Presentation, triangle_group, von_dyck_group
from colsym.selftest import run_selftest
from colsym.words import A, B, C, REFLECTIONS, XGEN, ZGEN, Alphabet
from oracle import (
    colouring_classes_by_walks,
    colours_transitive,
    compose_permutations,
    euclidean_counts,
    fixed_cosets,
    full_scope_via_rotations,
    oracle_classes,
    permutation_homomorphism_check,
    rotation_word_as_reflections,
    subgroup_counts,
    subgroups_in_classes,
    twist_closure,
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


def record_searches(monkeypatch):
    """The (group, bound) of every search from here on, in call order."""
    searched = []
    search = colsym.lowindex._search

    def counted(pres, max_index, seeds, **kwargs):
        searched.append((pres.name, max_index))
        return search(pres, max_index, seeds, **kwargs)

    monkeypatch.setattr(colsym.lowindex, "_search", counted)
    return searched


def test_default_provider_searches_each_group_once(monkeypatch):
    # route a's rotation half and route b need the same von Dyck list:
    # with no provider given, one call searches it once
    searched = record_searches(monkeypatch)
    census(7, 3, TilingKind.LAVES, Scope.ROTATION, 24, strategy="both")
    assert searched == [("triangle-7-3", 48), ("vondyck-7-3", 24)]


def test_default_rotation_census_searches_only_the_von_dyck_group(monkeypatch):
    searched = record_searches(monkeypatch)
    census(7, 3, TilingKind.LAVES, Scope.ROTATION, 24)
    assert searched == [("vondyck-7-3", 24)]


@pytest.mark.parametrize("p, q, bound", [
    (7, 3, 24), (8, 3, 18), (5, 4, 17), (4, 4, 40), (6, 3, 30), (4, 3, 12), (3, 5, 30),
])
def test_rotation_strategies_give_equal_entries(p, q, bound, provider):
    # route b lifts the classes it keeps, so every strategy returns route
    # a's representatives: the same tables, in the same order, rooted alike
    for kind in TilingKind:
        default = census(p, q, kind, Scope.ROTATION, bound, classes_provider=provider)
        assert default.strategy == "b"
        for strategy in ("a", "both"):
            report = census(p, q, kind, Scope.ROTATION, bound, strategy=strategy,
                            classes_provider=provider)
            assert report.entries == default.entries


# (p, q) -> {scope: bound}: the selftest bounds (the golden bounds) of
# the hyperbolic pairs, and the rotation grid above for the others
RECORD_BOUNDS = {
    **{(p, q): {Scope.FULL: goldens.FULL_BOUNDS[(p, q, TilingKind.PQ)],
                Scope.ROTATION: goldens.ROTATION_BOUNDS[(p, q, TilingKind.PQ)]}
       for p, q in [(7, 3), (8, 3), (5, 4)]},
    **{(p, q): {Scope.FULL: bound, Scope.ROTATION: bound}
       for p, q, bound in [(4, 4, 40), (6, 3, 30), (4, 3, 12), (3, 5, 30)]},
}


@pytest.mark.parametrize("p, q", list(RECORD_BOUNDS), ids=[f"{p}-{q}" for p, q in RECORD_BOUNDS])
def test_each_record_is_its_listed_table_rerooted_at_the_least_fixed_coset(p, q, provider):
    # a record holds a table of the reflection group's list and a coset;
    # its table, built on first read, is that table re-rooted there
    for scope, bound in RECORD_BOUNDS[(p, q)].items():
        scale = 1 if scope is Scope.FULL else 2
        listed = set(provider(triangle_group(p, q), scale * bound).tables)
        for kind in TilingKind:
            words = required_words(kind, scope)
            for strategy in ("a", "b", "both"):
                report = census(p, q, kind, scope, bound, strategy=strategy,
                                classes_provider=provider)
                for rec in (r for e in report.entries for r in e.representatives):
                    assert rec.listed in listed
                    assert rec.coset == min(fixed_cosets(rec.listed, words))
                    assert rec.table == reroot(rec.listed, rec.coset)


def test_a_record_reroots_once_on_first_read(provider, monkeypatch):
    # census builds no re-rooted table; reading a record's table builds it
    # once, or none at coset 0, and a second read returns the same object
    rerooted = []

    def counted(t, base):
        rerooted.append(base)
        return reroot(t, base)

    # the census module, which colsym's census function shadows as an attribute
    monkeypatch.setattr(importlib.import_module("colsym.census"), "reroot", counted)
    monkeypatch.setattr(colsym.coset, "reroot", counted)
    records = [r for kind in TilingKind for scope in Scope for strategy in ("a", "b", "both")
               for e in census(7, 3, kind, scope, 24, strategy=strategy,
                               classes_provider=provider).entries
               for r in e.representatives]
    assert rerooted == []
    moved = next(r for r in records if r.coset)
    assert moved.table is moved.table
    assert rerooted == [moved.coset]
    at_0 = next(r for r in records if not r.coset)
    assert at_0.table is at_0.listed
    assert at_0.table is at_0.table
    assert rerooted == [moved.coset]


def test_warm_full_selftest_renumbers_no_table(tmp_path, monkeypatch):
    # the one representative table a full selftest reads is rooted at coset
    # 0, and a warm run reads every list from the cache: no renumbering
    calls = []
    renumbered = colsym.coset._renumbered

    def counted(*args):
        calls.append(args[1])
        return renumbered(*args)

    monkeypatch.setattr(colsym.coset, "_renumbered", counted)
    for run in ("cold", "warm"):
        calls.clear()
        assert run_selftest("full", cache_dir=str(tmp_path), out=io.StringIO(), err=io.StringIO())
        if run == "cold":
            assert calls  # the lifts' canonical forms
    assert calls == []


def test_route_b_keeps_the_first_class_of_each_twin_pair(provider):
    # the provider lists the class of each mirror-twin pair that the twisted
    # walk meets first, and route b keeps every one that colours the tiling:
    # with their twins, they are the qualifying classes of the plain walk
    V = von_dyck_group(7, 3)
    classes = provider(V, 24).tables
    plain = low_index_classes(V, 24, seeds=colouring_seeds(V)).tables
    pairs = 0
    for kind in TilingKind:
        word = (rotation_required_word(kind),)
        kept = _census_rotation_b(7, 3, kind, 24, provider)
        assert kept == [t for t in classes if fixed_cosets(t, word)]
        assert list(twist_closure(kept)) == [t for t in plain if fixed_cosets(t, word)]
        pairs += len(twist_closure(kept)) - len(kept)
    assert pairs > 0


def test_colouring_classes_searches_its_rotation_half_with_its_own_search():
    # a node budget in the search reaches the von Dyck half too
    searched = []

    def search(pres, max_index, **kw):
        searched.append((pres.name, max_index))
        return low_index_classes(pres, max_index, **kw)

    assert colouring_classes(triangle_group(7, 3), 32, search=search) == colouring_classes(
        triangle_group(7, 3), 32)
    assert searched == [("triangle-7-3", 32), ("vondyck-7-3", 16)]


def test_untwisted_search_inside_colouring_classes_is_refused():
    # the plain walk lists both classes of each twin pair, which the check
    # where the list is made refuses
    def untwisted(pres, max_index, *, seeds, twist):
        return low_index_classes(pres, max_index, seeds=seeds)

    with pytest.raises(InternalError, match="listed a rotation class with its mirror twin"):
        colouring_classes(von_dyck_group(7, 3), 24, search=untwisted)


@pytest.mark.parametrize("strategy", ["b", "both"])
def test_provider_of_plain_walk_lists_is_refused(strategy):
    # every class of each group: the von Dyck list holds both classes of each
    # twin pair, so a class that colours the tiling comes with its twin
    with pytest.raises(InternalError):
        census(7, 3, TilingKind.LAVES, Scope.ROTATION, 22, strategy=strategy,
               classes_provider=lambda pres, n: low_index_classes(pres, n))


@pytest.mark.parametrize("strategy", ["b", "both"])
def test_rotation_list_with_a_class_twice_is_refused(strategy):
    # the index-1 class colours every tiling and is its own twin; route b
    # lifts both copies onto one class, and "both" counts it twice
    real = cached_provider()

    def doctored(pres, max_index):
        cl = real(pres, max_index)
        if pres.name.startswith("vondyck"):
            return replace(cl, tables=cl.tables + cl.tables[:1])
        return cl

    with pytest.raises(InternalError):
        census(7, 3, TilingKind.PQ, Scope.ROTATION, 24, strategy=strategy,
               classes_provider=doctored)


@pytest.mark.parametrize("strategy", ["a", "b", "both"])
def test_list_of_another_group_or_a_lower_bound_is_refused(strategy, provider):
    # each was read as it came: (8,3)'s classes gave (7^3) full <= 12 as
    # 1, 3, 6, 12 where it is 1, 8, and a list to half the bound missed
    # every class above it
    other = {triangle_group(7, 3): triangle_group(8, 3), von_dyck_group(7, 3): von_dyck_group(8, 3)}
    for doctored in (lambda pres, n: provider(other[pres], n), lambda pres, n: provider(pres, n // 2)):
        for scope in Scope:
            with pytest.raises(DomainError):
                census(7, 3, TilingKind.PQ, scope, 12, strategy=strategy, classes_provider=doctored)


@pytest.mark.parametrize("strategy", ["a", "b", "both"])
def test_longer_list_is_read_to_the_bound(strategy, provider):
    # a list to twice the bound gave full <= 12 as 1, 8, 15, 22, 24, and
    # the rotation routes entries up to 24 too
    for scope in Scope:
        exact = census(7, 3, TilingKind.PQ, scope, 12, strategy=strategy, classes_provider=provider)
        longer = census(7, 3, TilingKind.PQ, scope, 12, strategy=strategy,
                        classes_provider=lambda pres, n: provider(pres, 2 * n))
        assert longer.entries == exact.entries
        assert max(e.colours for e in exact.entries) <= 12


def test_rotation_strategies_agree_euclidean(provider):
    for kind in TilingKind:
        rep = census(
            4, 4, kind, Scope.ROTATION, 6, strategy="both", classes_provider=provider
        )
        assert rep.strategy == "both"


@pytest.mark.parametrize("p, q", [(4, 4), (6, 3)])
def test_euclidean_censuses_match_the_closed_form(p, q):
    # rotation scope by both routes, so route a's lifted von Dyck classes
    # are counted against the ideals of Z[i] and Z[w] too; (4^4) is
    # self-dual, so its qp tiling has the pq counts
    provider = cached_provider()
    for kind in (TilingKind.PQ, TilingKind.QP) if p == q else (TilingKind.PQ,):
        full = census(p, q, kind, Scope.FULL, 100, classes_provider=provider)
        assert full.multiplicities() == euclidean_counts(p, q, Scope.FULL, 100)
        rotation = census(p, q, kind, Scope.ROTATION, 50, strategy="both", classes_provider=provider)
        assert rotation.multiplicities() == euclidean_counts(p, q, Scope.ROTATION, 50)


def test_duality_swaps_the_tilings_and_mirrors_a_and_c():
    # the letter map a <-> c carries triangle_group(q, p) onto (p, q), the
    # tile stabilizer <c, b> of (q^p) onto <a, b> and <a, c> onto itself
    provider = cached_provider()
    for p, q, bound in ((7, 3, 64), (8, 3, 40), (5, 4, 40), (6, 3, 64)):
        for scope, k in ((Scope.FULL, bound), (Scope.ROTATION, bound // 2)):
            for kind, dual in ((TilingKind.QP, TilingKind.PQ), (TilingKind.LAVES, TilingKind.LAVES)):
                here = census(p, q, kind, scope, k, classes_provider=provider)
                there = census(q, p, dual, scope, k, classes_provider=provider)
                assert here.entries and here.multiplicities() == there.multiplicities()
        swapped = (canonical_table(transform_subgroup(t, (C, B, A)))
                   for t in provider(triangle_group(q, p), bound).tables)
        got = tuple(sorted(swapped, key=lambda t: (t.n, t.flat())))
        assert got == provider(triangle_group(p, q), bound).tables


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
                assert t.action(w)[0] == 0
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
            assert rec.table.action(w)[0] == 0


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


@pytest.mark.parametrize("call", [
    lambda: census(7, 3, TilingKind.PQ, Scope.FULL, 8.5),
    lambda: low_index_classes(triangle_group(7, 3), 8.0),
    lambda: generate_patch(7, 3, 2.5),
    lambda: census(7, 3, TilingKind.PQ, Scope.FULL, True),
    lambda: low_index_classes(triangle_group(7, 3), True),
    lambda: generate_patch(4, 4, False),
], ids=["census", "low_index_classes", "generate_patch",
        "census-bool", "low_index_classes-bool", "generate_patch-bool"])
def test_non_integer_bounds_are_refused(call):
    # each float used to raise TypeError from inside the work, and each
    # bool was taken as the bound 1 or 0
    with pytest.raises(DomainError):
        call()


def test_census_rejects_bad_arguments(provider):
    for max_colours in (0, True):
        with pytest.raises(DomainError):
            census(7, 3, TilingKind.PQ, Scope.FULL, max_colours, classes_provider=provider)
    with pytest.raises(DomainError):
        census(
            7, 3, TilingKind.PQ, Scope.ROTATION, 4,
            strategy="c", classes_provider=provider,
        )
    # a tiling kind or scope by name, not the enum member
    with pytest.raises(DomainError, match="bad tiling kind"):
        census(7, 3, "pq", Scope.FULL, 4, classes_provider=provider)
    with pytest.raises(DomainError, match="bad scope"):
        census(7, 3, TilingKind.PQ, "full", 4, classes_provider=provider)


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
    # coset i of the lift is H u_i and coset k + i is H u_i b.  Lifting
    # b H b instead, as swapping the two halves' columns does, gives the
    # same canonical class, so only the labelling tells the two apart
    for t in colouring_classes(von_dyck_group(p, q), 12).tables:
        lifted, k = _lift(t), t.n
        for i in range(k):
            assert lifted.action((B,))[i] == k + i
            for g in (XGEN, ZGEN):
                assert lifted.action(rotation_word_as_reflections((g,)))[i] == t.action((g,))[i]


def test_colouring_classes_need_a_triangle_group():
    # the rotation half is read off the relators (bc)^p and (ab)^q
    renamed = Presentation(REFLECTIONS, triangle_group(5, 4).relators[::-1], "renamed")
    assert colouring_classes(renamed, 12).tables == colouring_classes(triangle_group(5, 4), 12).tables
    for relators in (((A, A),), triangle_group(5, 4).relators + ((A, B, C) * 2,)):
        with pytest.raises(DomainError):
            colouring_classes(Presentation(REFLECTIONS, relators, "other"), 4)
    # the seeds are the tile stabilizers, written in the reflection or rotation letters
    other = Presentation(Alphabet(("u", "U"), (1, 0)), ((0, 0),), "other")
    with pytest.raises(DomainError, match="no tiling seeds"):
        colouring_seeds(other)


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
    # The list holds one class of each mirror-twin pair, so each differing
    # twin's subgroups are counted too
    classes = colouring_classes(von_dyck_group(p, q), bound).tables
    for kind in TilingKind:
        word = rotation_required_word(kind)
        qualifying = [t for t in classes if fixed_cosets(t, (word,))]
        whole = twist_closure(qualifying)
        assert len(whole) > len(qualifying)
        assert subgroups_in_classes(whole, bound) == subgroup_counts(p, q, bound, word)


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
