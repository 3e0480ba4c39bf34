import hashlib
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import colsym.lowindex
from colsym.cache import cached_provider, serialize_class_list
from colsym.census import colouring_classes, colouring_seeds
from colsym.cli import main
from colsym.coset import CosetTable, canonical_table
from colsym.errors import DomainError, ResourceLimit
from colsym.lowindex import UNSEEDED, _search, low_index_classes
from colsym.presentations import MIRROR_TWIST, Presentation, triangle_group, von_dyck_group
from colsym.subgroups import fixed_cosets, transform_subgroup
from colsym.words import A, B, C, REFLECTIONS, ROTATIONS, XGEN, ZGEN, ZINV
from oracle import class_counts, classes_at_index, oracle_classes, validate

SMALL_GROUPS = [
    triangle_group(4, 3),
    triangle_group(4, 4),
    triangle_group(7, 3),
    von_dyck_group(4, 3),
    von_dyck_group(7, 3),
]


def test_counts_against_oracle_cube():
    G = triangle_group(4, 3)
    cl = low_index_classes(G, 6)
    counts = class_counts(cl)
    for k in range(1, 7):
        assert counts.get(k, 0) == oracle_classes(G, k).count


def test_counts_against_oracle_von_dyck():
    vd = von_dyck_group(4, 3)
    cl = low_index_classes(vd, 5)
    counts = class_counts(cl)
    for k in range(1, 6):
        assert counts.get(k, 0) == oracle_classes(vd, k).count


@pytest.mark.parametrize("pres", SMALL_GROUPS, ids=lambda p: p.name)
def test_classes_are_valid_canonical_and_sorted(pres):
    cl = low_index_classes(pres, 6)
    seen = set()
    for t in cl.tables:
        assert 1 <= t.n <= 6
        assert validate(t, pres).ok
        assert canonical_table(t) == t
        assert t.flat() not in seen
        seen.add(t.flat())
    keys = [(t.n, t.flat()) for t in cl.tables]
    assert keys == sorted(keys)


@pytest.mark.parametrize("pres", SMALL_GROUPS, ids=lambda p: p.name)
def test_prune_changes_nothing(pres):
    # the cuts only drop subtrees that complete no table: same tables, same order
    assert _search(pres, 5, prune=False) == _search(pres, 5)


def test_deterministic_and_jobs_equal():
    G = triangle_group(4, 4)
    serial = low_index_classes(G, 6)
    again = low_index_classes(G, 6)
    parallel = low_index_classes(G, 6, jobs=2)
    assert [t.flat() for t in serial.tables] == [t.flat() for t in again.tables]
    assert [t.flat() for t in serial.tables] == [t.flat() for t in parallel.tables]


@pytest.mark.parametrize(
    "pres, bound",
    [(triangle_group(7, 3), 20), (von_dyck_group(7, 3), 16), (triangle_group(5, 4), 10)],
    ids=lambda x: getattr(x, "name", x),
)
def test_parts_split_the_serial_search(pres, bound):
    # these searches reach the split depth, so every part has a share;
    # (5,4) <= 10 also completes tables at that depth in parts 1 and 2
    serial = _search(pres, bound)
    parts = [_search(pres, bound, part=k, parts=3) for k in range(3)]
    found = [set(p) for p in parts]
    assert [len(f) for f in found] == [len(p) for p in parts]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not found[i] & found[j]
    assert set().union(*found) == set(serial)
    assert sum(map(len, parts)) == len(serial)
    assert sum(1 for p in parts if p) >= 2
    flat = [t.flat() for t in low_index_classes(pres, bound).tables]
    for jobs in (2, 3):
        assert [t.flat() for t in low_index_classes(pres, bound, jobs=jobs).tables] == flat


def test_relator_that_is_not_its_own_reverse():
    # (abc)^2 read backwards is (cba)^2, no rotation of it; the search
    # scans an edge's cycles from one end only, so a reflection column
    # traces the reversed relator too (without it, a complete table
    # fails a relator at index 8)
    G = Presentation(REFLECTIONS, ((A, A), (B, B), (C, C), (A, B, C) * 2), "abc")
    cl = low_index_classes(G, 10)
    assert all(validate(t, G).ok for t in cl.tables)
    counts = class_counts(cl)
    for k in range(1, 6):
        assert counts.get(k, 0) == oracle_classes(G, k).count


def test_bound_restriction_consistency():
    G = triangle_group(4, 3)
    wide = low_index_classes(G, 6)
    narrow = low_index_classes(G, 4)
    assert [t.flat() for t in narrow.tables] == [
        t.flat() for t in wide.tables if t.n <= 4
    ]


def test_at_index_and_counts_agree():
    G = triangle_group(4, 3)
    cl = low_index_classes(G, 6)
    for k, c in class_counts(cl).items():
        assert len(classes_at_index(cl, k)) == c
    assert sum(class_counts(cl).values()) == len(cl.tables)


@settings(max_examples=20, deadline=None)
@given(
    pq=st.sampled_from([(4, 3), (3, 4), (4, 4), (3, 6), (7, 3)]),
    k=st.integers(min_value=1, max_value=5),
)
def test_class_count_never_depends_on_pruning(pq, k):
    G = triangle_group(*pq)
    a = class_counts(low_index_classes(G, k))
    b = Counter(len(rows) for rows in _search(G, k, prune=False))
    assert a == b


def test_mirror_twist_permutes_classes():
    # transforming by the outer automorphism maps the class list to
    # itself (as canonical tables) and is an involution on it
    cl = low_index_classes(von_dyck_group(7, 3), 8)
    canon = {t.flat() for t in cl.tables}
    for t in cl.tables:
        image = canonical_table(transform_subgroup(t, MIRROR_TWIST))
        assert image.n == t.n
        assert image.flat() in canon
        back = canonical_table(transform_subgroup(image, MIRROR_TWIST))
        assert back == t


def test_node_budget_enforced():
    G = triangle_group(7, 3)
    with pytest.raises(ResourceLimit):
        low_index_classes(G, 20, node_budget=50)
    # 0 is a budget: it holds a walk that its seed words complete at
    # the root, and stops any walk that must branch
    whole = ((A,), (B,), (C,))
    assert len(low_index_classes(G, 4, seeds=(whole,), node_budget=0).tables) == 1
    with pytest.raises(ResourceLimit):
        low_index_classes(G, 4, node_budget=0)


def test_node_budget_enforced_in_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ResourceLimit):
        low_index_classes(triangle_group(7, 3), 30, node_budget=400, jobs=2)


@pytest.mark.parametrize(
    "pres, bound, seeded, nodes",
    [
        (triangle_group(7, 3), 64, True, 6_268),
        (von_dyck_group(7, 3), 32, True, 2_951),
        (triangle_group(8, 3), 36, True, 2_969),
        (triangle_group(5, 4), 34, True, 5_330),
        (triangle_group(7, 3), 20, False, 468),
        (von_dyck_group(8, 3), 18, False, 1_113),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_search_node_counts_are_pinned(pres, bound, seeded, nodes):
    # exact counts: the root bookkeeping and the scan order may change how
    # a verdict is reached, never which branches are pruned; the seeded
    # counts include the walks' exclusion of classes an earlier seed finds
    seeds = colouring_seeds(pres) if seeded else UNSEEDED
    _search(pres, bound, seeds, node_budget=nodes)
    with pytest.raises(ResourceLimit):
        _search(pres, bound, seeds, node_budget=nodes - 1)


@pytest.mark.parametrize("pres,bound,classes,digest", [
    (triangle_group(7, 3), 64, 197,
     "174e21534af6d9bf39eb1f7bcb2b0eae0f7aede45a20504452e20abcda923bef"),
    (von_dyck_group(7, 3), 32, 108,
     "c99c8fef4e4bc62e9005d7e3d5c820375d61aecda7b8e067b1860741ae666384"),
])
def test_class_lists_pinned_byte_for_byte(pres, bound, classes, digest):
    # the tables line of the serialized class list, as the cache writes it:
    # every table's entries and the order of the list
    cl = colouring_classes(pres, bound)
    line = serialize_class_list(cl).split("\n")[1]
    assert len(cl.tables) == classes
    assert hashlib.sha256(line.encode()).hexdigest() == digest


@pytest.mark.parametrize("pres, bound, serial, parts", [
    (triangle_group(7, 3), 64,
     "0c961214001a83b1616a130eda4eec737faa09c44f2d3a017e168354d82ec0e5",
     ("5abe63bd07af67451e54e1b257f638525a370ad7c702c96851bcf601fb8c266b",
      "3de15c3495733667f77ffd7c3e75a785caf25b2e6928abb3278ef8637d1a450e",
      "f40c4e937b2ce10c9a15138bf93a00340962cb5b30bb083fda96f6d786d39abd")),
    (von_dyck_group(7, 3), 32,
     "c05d050a628210ec28c4b5fff1c4112e7ca408e6fd4e29743f16367b834f1786",
     ("397dd82ca5d501751a9f29e8cc6ee19ba5246a0418bb1fd5881636e8617e8c26",
      "421110212687b532aced1d324f971830790805047b4cc904c0272b451cd13607",
      "efb1bcd9f295916573789973cbbf9960e32fc7d937d2c224cb318a0cfee7ffac")),
], ids=["triangle-7-3-64", "vondyck-7-3-32"])
def test_walk_order_pinned(pres, bound, serial, parts):
    # the raw tables in the order the walks complete them, serially and
    # in each of 3 parts: the class-list pins sort them, so only this
    # shows a change to the walk that reaches the same classes otherwise
    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    seeds = colouring_seeds(pres)
    assert digest(_search(pres, bound, seeds)) == serial
    assert tuple(digest(_search(pres, bound, seeds, part=k, parts=3)) for k in range(3)) == parts


def _frame_depth():
    f, depth = sys._getframe(1), 0
    while f is not None:
        f, depth = f.f_back, depth + 1
    return depth


def test_the_walk_does_not_recurse():
    # the seeded (7,3) <= 64 walk branches 68 deep, yet 40 frames above
    # this one are room enough: the walk keeps its open nodes on a list
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        G, V = triangle_group(7, 3), von_dyck_group(7, 3)
        assert len(_search(G, 64, colouring_seeds(G))) == 132
        assert len(_search(V, 32, colouring_seeds(V))) == 108
    finally:
        sys.setrecursionlimit(limit)


def test_index_bound_past_the_frame_limit():
    # only a branch makes a coset, so a table of index n lies n - 1
    # branches deep: past Python's 1,000 frames here at index 968
    G, seeds = triangle_group(4, 4), (((B,), (C,)),)
    wide = low_index_classes(G, 1000, seeds=seeds).tables
    narrow = low_index_classes(G, 900, seeds=seeds).tables
    assert len(wide) == 53 and len(narrow) == 51
    assert [t.rows for t in wide if t.n <= 900] == [t.rows for t in narrow]


def _least_budget(pres, bound, seeds):
    """The smallest node budget the search of these seeds stays within."""
    def fits(budget):
        try:
            _search(pres, bound, seeds, node_budget=budget)
        except ResourceLimit:
            return False
        return True

    hi = 1
    while not fits(hi):
        hi *= 2
    lo = hi // 2  # does not fit (or is 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def test_one_budget_counts_every_seed_walk():
    G = triangle_group(7, 3)
    # a coset fixed by ab and bc is fixed by the rotation half, a normal
    # subgroup of index 2: its row and its a-neighbour's close up into a
    # table of index at most 2, and one fixed by a mirror has index 1, a
    # leaf.  So neither walk can exclude a node of the other, in either
    # order, and the two walks spend one budget
    full, half = ((A,), (C,)), ((A, B), (B, C))
    need_full = _least_budget(G, 24, (full,))
    need_half = _least_budget(G, 24, (half,))
    assert need_full > 1 and need_half == 1  # the half's walk branches at its root only
    both = need_full + need_half
    for seeds in ((full, half), (half, full)):
        low_index_classes(G, 24, seeds=seeds, node_budget=both)
        with pytest.raises(ResourceLimit):
            low_index_classes(G, 24, seeds=seeds, node_budget=both - 1)
    # a repeated seed's walk is cut at its root: it costs one walk's nodes
    low_index_classes(G, 24, seeds=(full, full), node_budget=need_full)
    with pytest.raises(ResourceLimit):
        low_index_classes(G, 24, seeds=(full, full), node_budget=need_full - 1)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_jobs_capped_at_the_cpus(monkeypatch):
    pools = []
    fork = colsym.lowindex.get_context("fork")

    class Recorder:
        def Pool(self, processes):
            pools.append(processes)
            return fork.Pool(processes)

    monkeypatch.setattr(colsym.lowindex, "get_context", lambda method: Recorder())
    G = triangle_group(7, 3)
    serial = [t.flat() for t in low_index_classes(G, 20).tables]
    for cpus, jobs, forked in ((1, 3, []), (2, 3, [2]), (2, 2, [2]), (4, 3, [3])):
        _cpus(monkeypatch, cpus)
        pools.clear()
        assert [t.flat() for t in low_index_classes(G, 20, jobs=jobs).tables] == serial
        assert pools == forked


def test_jobs_run_serially_where_fork_is_missing(monkeypatch, capsys):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    G = triangle_group(7, 3)
    serial = [t.flat() for t in low_index_classes(G, 20).tables]
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(colsym.lowindex, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(colsym.lowindex, "get_context", no_fork)
    assert [t.flat() for t in low_index_classes(G, 20, jobs=2).tables] == serial
    argv = ["census", "--p", "7", "--q", "3", "--max-colours", "20", "--jobs", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "(7^3) full <= 20: 1, 8, 15\n"


@pytest.mark.parametrize("p, q, bound", [(7, 3, 16), (5, 4, 12), (8, 3, 14)])
def test_relators_with_inverse_letters(p, q, bound):
    # z^p written as Z^p gives the Z column trace words of its own, so an
    # edge deduced in the z column is scanned from its twin entry too
    V = von_dyck_group(p, q)
    W = Presentation(ROTATIONS, ((XGEN,) * q, (ZINV,) * p, (XGEN, ZGEN) * 2), "vondyck-Z")
    for seeds_v, seeds_w in ((None, None), ((((ZGEN,),),), (((ZINV,),),))):
        expected = [t.flat() for t in low_index_classes(V, bound, seeds=seeds_v).tables]
        assert [t.flat() for t in low_index_classes(W, bound, seeds=seeds_w).tables] == expected


SEEDED_GRID = [
    (triangle_group(7, 3), 24), (von_dyck_group(7, 3), 18),
    (triangle_group(8, 3), 16), (von_dyck_group(8, 3), 12),
    (triangle_group(5, 4), 14), (von_dyck_group(5, 4), 12),
    (triangle_group(4, 3), 24), (von_dyck_group(4, 3), 12),
    (triangle_group(3, 5), 30), (von_dyck_group(3, 5), 20),
    (triangle_group(4, 4), 12), (von_dyck_group(4, 4), 10),
    (triangle_group(3, 6), 12), (von_dyck_group(3, 6), 10),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("pres, bound", SEEDED_GRID, ids=lambda x: getattr(x, "name", x))
def test_seeded_equals_filtered_unseeded(pres, bound, jobs, monkeypatch):
    _cpus(monkeypatch, 2)
    seeds = colouring_seeds(pres)

    def colours(t):
        return any(fixed_cosets(t, s) for s in seeds)

    unseeded = low_index_classes(pres, bound).tables
    expected = [t.flat() for t in unseeded if colours(t)]
    got = low_index_classes(pres, bound, seeds=seeds, jobs=jobs)
    assert [t.flat() for t in got.tables] == expected
    assert expected
    if pres.alphabet == REFLECTIONS:  # every small von Dyck class holds a tile rotation
        assert len(expected) < len(unseeded)


@pytest.mark.parametrize(
    "pres, bound", [(triangle_group(7, 3), 30), (triangle_group(4, 4), 12)],
    ids=lambda x: getattr(x, "name", x),
)
def test_seeded_parts_split_the_serial_search(pres, bound):
    seeds = colouring_seeds(pres)
    serial = _search(pres, bound, seeds)
    parts = [_search(pres, bound, seeds, part=k, parts=3) for k in range(3)]
    assert sorted(r for p in parts for r in p) == sorted(serial)
    assert sum(1 for p in parts if p) == 3


def test_each_seed_walk_finds_one_table_per_class():
    # before canonical forms are taken, a walk yields each class once,
    # as a table whose coset 0 the seed words fix
    G = triangle_group(8, 3)
    for seed in colouring_seeds(G):
        found = [CosetTable(G.alphabet, rows) for rows in _search(G, 20, (seed,))]
        assert found
        assert all(0 in fixed_cosets(t, seed) for t in found)
        assert len({canonical_table(t) for t in found}) == len(found)


def _seed_lists(pres):
    seeds = colouring_seeds(pres)
    return [seeds, seeds[::-1], (seeds[-1],) * 2]


@pytest.mark.parametrize(
    "pres, bound",
    [(triangle_group(7, 3), 24), (triangle_group(5, 4), 20), (von_dyck_group(7, 3), 20)],
    ids=lambda x: getattr(x, "name", x),
)
def test_seed_exclusion_keeps_the_union_of_the_walks(pres, bound):
    # a walk cuts the classes an earlier seed's walk finds, so each class
    # comes from one walk, but the list is still the union of the walks
    def keys(seeds):
        return [(t.n, t.flat()) for t in low_index_classes(pres, bound, seeds=seeds).tables]

    single = {}
    for seeds in _seed_lists(pres):
        for s in seeds:
            if s not in single:
                single[s] = keys((s,))
        assert keys(seeds) == sorted(set().union(*(single[s] for s in seeds)))
    seeds = colouring_seeds(pres)
    count = len(low_index_classes(pres, bound, seeds=seeds).tables)
    assert len(_search(pres, bound, seeds)) == count
    assert sum(len(_search(pres, bound, seeds, part=k, parts=3)) for k in range(3)) == count


def test_bad_seeds():
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        low_index_classes(G, 4, seeds=())


def test_bad_arguments(tmp_path):
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        low_index_classes(G, 0)
    with pytest.raises(DomainError):
        low_index_classes(G, 3, jobs=0)
    with pytest.raises(DomainError):
        low_index_classes(G, 3, node_budget=-1)
    with pytest.raises(DomainError):
        cached_provider(str(tmp_path), node_budget=-1)
    with pytest.raises(DomainError):
        oracle_classes(G, 8)
    with pytest.raises(DomainError):
        oracle_classes(G, 0)


def test_oracle_witnesses_are_transitive_actions():
    G = triangle_group(4, 3)
    res = oracle_classes(G, 4)
    n = 4
    for w in res.witnesses:
        parts = [w[i * n : (i + 1) * n] for i in range(3)]
        for rel in G.relators:
            for start in range(n):
                i = start
                for g in rel:
                    i = parts[g][i]
                assert i == start
