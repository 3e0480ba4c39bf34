import hashlib
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import colsym.lowindex
from colsym.cache import cached_provider, serialize_class_list
from colsym.census import _lift, colouring_classes, colouring_seeds
from colsym.coset import CosetTable, canonical_table, transform_subgroup
from colsym.errors import DomainError, InternalError, ResourceLimit
from colsym.lowindex import UNSEEDED, _search, low_index_classes
from colsym.presentations import MIRROR_TWIST, Presentation, triangle_group, von_dyck_group
from colsym.words import A, B, C, REFLECTIONS, ROTATIONS, XGEN, ZGEN, ZINV
from oracle import (
    class_counts, classes_at_index, fixed_cosets, oracle_classes, rows, twist_closure, validate,
)

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
        assert t.entries not in seen
        seen.add(t.entries)
    keys = [(t.n, t.entries) for t in cl.tables]
    assert keys == sorted(keys)


@pytest.mark.parametrize("pres", SMALL_GROUPS, ids=lambda p: p.name)
def test_prune_changes_nothing(pres):
    # the cuts only drop subtrees that complete no table: same tables, same order
    assert _search(pres, 5, prune=False) == _search(pres, 5)


def test_deterministic():
    G = triangle_group(4, 4)
    seeds = colouring_seeds(G)
    first = low_index_classes(G, 6, seeds=seeds)
    again = low_index_classes(G, 6, seeds=seeds)
    assert [t.entries for t in first.tables] == [t.entries for t in again.tables]


def _walks(pres, bound, seeds, **kw):
    """Each seed walk's tables, read off the serial searches of the first
    j seeds; each search must begin with the tables of the one before."""
    searches = [_search(pres, bound, seeds[:j], **kw) for j in range(len(seeds) + 1)]
    for shorter, longer in zip(searches, searches[1:]):
        assert longer[: len(shorter)] == shorter
    return [longer[len(shorter):] for shorter, longer in zip(searches, searches[1:])]


def _check_walks_split(pres, bound, seeds):
    """The seed walks, checked to make up the serial search with no table twice."""
    walks = _walks(pres, bound, seeds)
    found = [entries for walk in walks for entries in walk]
    assert len(set(found)) == len(found)
    return walks


@pytest.mark.parametrize(
    "pres, bound",
    [(triangle_group(7, 3), 20), (von_dyck_group(7, 3), 16), (triangle_group(5, 4), 10)],
    ids=lambda x: getattr(x, "name", x),
)
def test_parts_split_the_serial_search(pres, bound):
    # the parts are the seed walks: an unseeded search is a single walk; two colouring seeds' walks or more find a class
    assert len(_check_walks_split(pres, bound, UNSEEDED)) == 1
    walks = _check_walks_split(pres, bound, colouring_seeds(pres))
    assert sum(1 for walk in walks if walk) >= 2


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
    assert [t.entries for t in narrow.tables] == [
        t.entries for t in wide.tables if t.n <= 4
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
    b = Counter(len(entries) // G.alphabet.size for entries in _search(G, k, prune=False))
    assert a == b


def test_mirror_twist_permutes_classes():
    # transforming by the outer automorphism maps the class list to
    # itself (as canonical tables) and is an involution on it
    cl = low_index_classes(von_dyck_group(7, 3), 8)
    canon = {t.entries for t in cl.tables}
    for t in cl.tables:
        image = canonical_table(transform_subgroup(t, MIRROR_TWIST))
        assert image.n == t.n
        assert image.entries in canon
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


def test_one_budget_stops_the_seeded_search():
    # the seeded (7,3) walks to 64 take 6,268 nodes, counted over all three
    G = triangle_group(7, 3)
    seeds = colouring_seeds(G)
    with pytest.raises(ResourceLimit):
        low_index_classes(G, 64, seeds=seeds, node_budget=6_000)
    budgeted = low_index_classes(G, 64, seeds=seeds, node_budget=6_268)
    assert budgeted == low_index_classes(G, 64, seeds=seeds)


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
    # every table's entries and the order of the list.  A von Dyck list holds
    # one class of each mirror-twin pair, pinned in TWIN_PAIR_LISTS; the row's
    # own pin is then of its twist closure, the list with each class's twin
    def pin(cl):
        line = serialize_class_list(cl).split("\n")[1]
        return len(cl.tables), hashlib.sha256(line.encode()).hexdigest()

    cl = colouring_classes(pres, bound)
    if pres.alphabet == ROTATIONS:
        assert pin(cl) == TWIN_PAIR_LISTS[pres.name, bound]
        cl = replace(cl, tables=twist_closure(cl.tables))
    assert pin(cl) == (classes, digest)


TWIN_PAIR_LISTS = {
    ("vondyck-7-3", 32): (65, "a58528198760472b669e2b7689dfd1c74442e76bf950a1403f1b4e44385774a9"),
}


@pytest.mark.parametrize("p, q, bound", [(7, 3, 48), (4, 4, 100), (5, 4, 30), (8, 3, 24), (6, 3, 40)])
def test_twisted_walk_keeps_one_class_of_each_twin_pair(p, q, bound):
    # the walk twisted by the mirror against the plain walk: the twins of the
    # classes it keeps make up the plain list, no class comes with its twin,
    # its walks split it, and the classes lift to the plain list's lifts
    V = von_dyck_group(p, q)
    seeds = colouring_seeds(V)
    plain = low_index_classes(V, bound, seeds=seeds).tables
    twisted = low_index_classes(V, bound, seeds=seeds, twist=MIRROR_TWIST).tables
    assert twist_closure(twisted) == plain
    listed = set(twisted)
    assert len(listed) == len(twisted) < len(plain)
    twins = [canonical_table(transform_subgroup(t, MIRROR_TWIST)) for t in twisted]
    assert not any(u != t and u in listed for t, u in zip(twisted, twins))
    assert sum(1 for walk in _walks(V, bound, seeds, twist=MIRROR_TWIST) if walk) >= 2

    def lifts(tables):
        return {canonical_table(_lift(t)) for t in tables}

    assert lifts(twisted) == lifts(plain)


@pytest.mark.parametrize("p, q, bound", [(7, 3, 28), (4, 4, 24), (5, 4, 20)])
def test_prune_changes_nothing_in_the_twisted_walk(p, q, bound):
    # a twisted root cuts only subtrees that complete no kept table, seeded or not
    V = von_dyck_group(p, q)
    for seeds in (colouring_seeds(V), UNSEEDED):
        pruned = _search(V, bound, seeds, twist=MIRROR_TWIST)
        assert _search(V, bound, seeds, twist=MIRROR_TWIST, prune=False) == pruned
        assert len(pruned) < len(_search(V, bound, seeds))


def test_twisted_search_node_count_is_pinned():
    # as test_search_node_counts_are_pinned; the plain walk of this row takes 2,951
    V = von_dyck_group(7, 3)
    seeds = colouring_seeds(V)
    _search(V, 32, seeds, node_budget=1_887, twist=MIRROR_TWIST)
    with pytest.raises(ResourceLimit):
        _search(V, 32, seeds, node_budget=1_886, twist=MIRROR_TWIST)


def test_a_class_found_twice_raises(monkeypatch):
    # the walks yield each class once; a duplicate is an internal fault
    search = colsym.lowindex._search
    monkeypatch.setattr(colsym.lowindex, "_search", lambda *a, **kw: search(*a, **kw) * 2)
    G = triangle_group(7, 3)
    with pytest.raises(InternalError, match="found a class twice"):
        low_index_classes(G, 12)


@pytest.mark.parametrize("pres, twist", [
    (von_dyck_group(7, 3), (1, 0, 2, 3)),  # x <-> X alone takes (xz)^2 to (Xz)^2
    (triangle_group(7, 3), (1, 0, 2, 3)),  # four letters for three
    (von_dyck_group(7, 3), (2, 3, 0, 1)),  # x <-> z takes x^3 to z^3
    (von_dyck_group(4, 4), (2, 1, 0, 3)),  # x <-> z keeps the relators but not X = x^-1
    (von_dyck_group(7, 3), (1, 2, 3, 0)),  # no involution
    (triangle_group(7, 3), (2, 1, 0)),  # a <-> c takes (ab)^3 to (cb)^3
], ids=lambda x: getattr(x, "name", str(x)))
def test_a_twist_that_is_no_automorphism_is_refused(pres, twist):
    with pytest.raises(DomainError, match="twist"):
        low_index_classes(pres, 8, twist=twist)


@pytest.mark.parametrize("pres, twist, bound", [
    (von_dyck_group(7, 3), MIRROR_TWIST, 14),
    (von_dyck_group(4, 4), (2, 3, 0, 1), 12),  # x <-> z of a self-dual group
    (triangle_group(4, 4), (C, B, A), 12),  # a <-> c likewise
], ids=lambda x: getattr(x, "name", str(x)))
def test_unseeded_twisted_walk_keeps_one_class_of_each_twin_pair(pres, twist, bound):
    # every class, twins by any automorphic twist; no seed word sets an entry
    # at the root, so twisted root 0 is first fixed below it
    plain = low_index_classes(pres, bound).tables
    twisted = low_index_classes(pres, bound, twist=twist).tables
    twin = {t: canonical_table(transform_subgroup(t, twist)) for t in twisted}
    assert not any(u != t and u in twin for t, u in twin.items())
    assert sorted({*twin, *twin.values()}, key=lambda t: (t.n, t.entries)) == list(plain)
    assert len(twisted) < len(plain)


@pytest.mark.parametrize("pres, bound, serial, walks", [
    (triangle_group(7, 3), 64,
     "0c961214001a83b1616a130eda4eec737faa09c44f2d3a017e168354d82ec0e5",
     ("0c415ebc056f243cb02ebc080cf55e439405dfb4d89d09246d7d7f6ab57d9dad",
      "40ebf3febbf99ad360c694508994d8c32ca789159268a950dde370d834689f3d",
      "b19cf9bbf40b50bb37d2208ea17c1080eac6737b4614f5e851e57cdf3e66a60a")),
    (von_dyck_group(7, 3), 32,
     "c05d050a628210ec28c4b5fff1c4112e7ca408e6fd4e29743f16367b834f1786",
     ("8d647f0399079ab3874a686ef7421c1ece96f1150f61612d6fd6de9684772b60",
      "f79acf1c6a9d33ec21fe68f908b2fa8e8a40fdece137c076ebc217ff4c86f30f",
      "f6ce59f5446031e4ac8732f5bd8317bb42114fa72e31b7915b160903f03411dd")),
    (triangle_group(8, 3), 36,
     "a665d88f3bcf99d57595d86b5ea951bc9360c5a06110ece88fb9e7bfe56566a7",
     ("b205d59a14e87967ff3f98156a06b3519f60ccdb103d315c181f502d11bcb207",
      "4991b1834f3f318d7d1e9b36f222f1c9b7e1d68a69981df8c17202082352518b",
      "ffb6d3518df505c8f8cc4b2003d544438f7b51c9185094f60116d210f61585ea")),
    (triangle_group(5, 4), 34,
     "687e2798f14d760d7184ba436347cb586190726a41fea1f3691ac320d832c919",
     ("949fbc69370c0f5db3461685cfc521a1d29d8cfece7402dacc4b524d8867ea21",
      "e8ad63f95aa356924a691dd28e8bec701efeb7d475f89943a008cec28039f5ef",
      "58cb0f667ed0cbb12ad33687c4c07fcf19d6d2ccb60d99f00aedb5a7247b959a")),
    (triangle_group(4, 4), 60,
     "8ecb67dd7113efad7ef3a66320ef7992129a90479620c276a2703bb90a7d6151",
     ("0716d8966f76c96f43f138bc2e4172db83237761b7c9c0bcdf619ceacbc7b684",
      "2b16351ce01c1a90bf9f8e3ea3c8f32d020a33ea762e4f8b18c6905a3b246222",
      "b474e214a32134d67dd0fb7a5263690648b0e36815ce6f1e4fadae5dde001cbc")),
], ids=["triangle-7-3-64", "vondyck-7-3-32", "triangle-8-3-36", "triangle-5-4-34",
        "triangle-4-4-60"])
def test_walk_order_pinned(pres, bound, serial, walks):
    # the raw tables in the order the walks complete them, all three
    # seeds' walks and each alone: the class-list pins sort them, so only
    # this shows a change to the walk that reaches the same classes otherwise
    def digest(tables):
        split = [rows(CosetTable(pres.alphabet, e)) for e in tables]
        return hashlib.sha256(repr(split).encode()).hexdigest()

    seeds = colouring_seeds(pres)
    assert digest(_search(pres, bound, seeds)) == serial
    assert tuple(digest(walk) for walk in _walks(pres, bound, seeds)) == walks


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
    assert [t.entries for t in wide if t.n <= 900] == [t.entries for t in narrow]


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


@pytest.mark.parametrize("p, q, bound", [(7, 3, 16), (5, 4, 12), (8, 3, 14)])
def test_relators_with_inverse_letters(p, q, bound):
    # z^p written as Z^p gives the Z column trace words of its own, so an
    # edge deduced in the z column is scanned from its twin entry too
    V = von_dyck_group(p, q)
    W = Presentation(ROTATIONS, ((XGEN,) * q, (ZINV,) * p, (XGEN, ZGEN) * 2), "vondyck-Z")
    for seeds_v, seeds_w in ((None, None), ((((ZGEN,),),), (((ZINV,),),))):
        expected = [t.entries for t in low_index_classes(V, bound, seeds=seeds_v).tables]
        assert [t.entries for t in low_index_classes(W, bound, seeds=seeds_w).tables] == expected


SEEDED_GRID = [
    (triangle_group(7, 3), 24), (von_dyck_group(7, 3), 18),
    (triangle_group(8, 3), 16), (von_dyck_group(8, 3), 12),
    (triangle_group(5, 4), 14), (von_dyck_group(5, 4), 12),
    (triangle_group(4, 3), 24), (von_dyck_group(4, 3), 12),
    (triangle_group(3, 5), 30), (von_dyck_group(3, 5), 20),
    (triangle_group(4, 4), 12), (von_dyck_group(4, 4), 10),
    (triangle_group(3, 6), 12), (von_dyck_group(3, 6), 10),
]


@pytest.mark.parametrize("pres, bound", SEEDED_GRID, ids=lambda x: getattr(x, "name", x))
def test_seeded_equals_filtered_unseeded(pres, bound):
    seeds = colouring_seeds(pres)

    def colours(t):
        return any(fixed_cosets(t, s) for s in seeds)

    unseeded = low_index_classes(pres, bound).tables
    expected = [t.entries for t in unseeded if colours(t)]
    got = low_index_classes(pres, bound, seeds=seeds)
    assert [t.entries for t in got.tables] == expected
    assert expected
    if pres.alphabet == REFLECTIONS:  # every small von Dyck class holds a tile rotation
        assert len(expected) < len(unseeded)


@pytest.mark.parametrize(
    "pres, bound", [(triangle_group(7, 3), 30), (triangle_group(4, 4), 12)],
    ids=lambda x: getattr(x, "name", x),
)
def test_seeded_parts_split_the_serial_search(pres, bound):
    # the parts are the seed walks, one a colouring seed, none of them empty
    walks = _check_walks_split(pres, bound, colouring_seeds(pres))
    assert len(walks) == 3 and all(walks)


def test_each_seed_walk_finds_one_table_per_class():
    # before canonical forms are taken, a walk yields each class once,
    # as a table whose coset 0 the seed words fix
    G = triangle_group(8, 3)
    for seed in colouring_seeds(G):
        found = [CosetTable(G.alphabet, entries) for entries in _search(G, 20, (seed,))]
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
        return [(t.n, t.entries) for t in low_index_classes(pres, bound, seeds=seeds).tables]

    single = {}
    for seeds in _seed_lists(pres):
        for s in seeds:
            if s not in single:
                single[s] = keys((s,))
        assert keys(seeds) == sorted(set().union(*(single[s] for s in seeds)))
    seeds = colouring_seeds(pres)
    count = len(low_index_classes(pres, bound, seeds=seeds).tables)
    assert len(_search(pres, bound, seeds)) == count


def test_bad_seeds():
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        low_index_classes(G, 4, seeds=())


@pytest.mark.parametrize("pres, bound, seed", [
    (triangle_group(5, 4), 20, ((B, C, B),)),
    (von_dyck_group(7, 3), 28, ((XGEN, ZGEN, ZGEN),)),
], ids=lambda x: getattr(x, "name", x))
def test_seed_words_of_more_than_two_letters_are_refused(pres, bound, seed):
    # settle finds a coset that a seed word fixes from the entry that
    # closes the word's walk, which has that coset at one end only for a
    # word of at most two letters; these seeds used to give a class twice
    # (75 tables for 74 classes, and 73 for 72)
    with pytest.raises(DomainError, match="at most two letters"):
        low_index_classes(pres, bound, seeds=(seed,))
    shorter = (seed[0][:2],)
    expected = [t for t in low_index_classes(pres, bound).tables if fixed_cosets(t, shorter)]
    assert low_index_classes(pres, bound, seeds=(shorter,)).tables == tuple(expected)


@pytest.mark.parametrize("pres", [triangle_group(7, 3), von_dyck_group(7, 3)],
                         ids=lambda p: p.name)
def test_a_complete_table_that_fails_a_relator_raises(pres, monkeypatch):
    # the walk scans the trace words of every relator but the last, so
    # nothing deduces the last one's entries: the relator check on each
    # complete table the walks hand back is what catches one that breaks it
    trace_words = colsym.lowindex._trace_words
    short = Presentation(pres.alphabet, pres.relators[:-1], pres.name)
    monkeypatch.setattr(colsym.lowindex, "_trace_words", lambda p: trace_words(short))
    with pytest.raises(InternalError, match="complete table fails a relator"):
        low_index_classes(pres, 8, seeds=colouring_seeds(pres))


@pytest.mark.parametrize("pres", [triangle_group(7, 3), triangle_group(4, 4), von_dyck_group(7, 3)],
                         ids=lambda p: p.name)
def test_trace_words_are_the_rotations_by_first_letter(pres):
    # every rotation of every relator but g g^-1, and of its inverse, is
    # listed under its first letter: one missing loses deductions
    inv = pres.alphabet.inv
    trace = colsym.lowindex._trace_words(pres)
    assert len(trace) == pres.alphabet.size
    for g in range(pres.alphabet.size):
        expected = set()
        for rel in pres.relators:
            if rel == (rel[0], inv[rel[0]]):
                continue
            for w in (rel, tuple(inv[x] for x in reversed(rel))):
                expected |= {w[k:] + w[:k] for k in range(len(w)) if w[k] == g}
        assert set(trace[g]) == expected


def test_root_bookkeeping_is_made_for_the_cosets_reached():
    # each coset's re-rooting lists are made when a branch first reaches it;
    # made for every coset up front, they took 144 MB here before the first node
    G = triangle_group(7, 3)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            low_index_classes(G, 3000, seeds=colouring_seeds(G), node_budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_bad_arguments(tmp_path):
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        low_index_classes(G, 0)
    with pytest.raises(DomainError):
        low_index_classes(G, 3, node_budget=-1)
    with pytest.raises(DomainError):
        cached_provider(str(tmp_path), node_budget=-1)
    # non-integers are refused too, not taken as bounds
    with pytest.raises(DomainError):
        low_index_classes(G, 6, node_budget=2.5)
    with pytest.raises(DomainError):
        cached_provider(node_budget=2.5)
    # a bool is not a count, though it is an int to isinstance
    for call in (
        lambda: low_index_classes(G, True),
        lambda: low_index_classes(G, 6, node_budget=False),
        lambda: cached_provider(node_budget=False),
    ):
        with pytest.raises(DomainError):
            call()
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
