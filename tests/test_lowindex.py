import pytest
from hypothesis import given, settings, strategies as st

from colsym.coset import canonical_table
from colsym.errors import DomainError, ResourceLimit
from colsym.lowindex import low_index_classes
from colsym.presentations import triangle_group, von_dyck_group
from colsym.subgroups import transform_subgroup
from oracle import class_counts, classes_at_index, oracle_classes, validate

SMALL_GROUPS = [
    triangle_group(4, 3),
    triangle_group(4, 4),
    triangle_group(7, 3),
    von_dyck_group(4, 3)[0],
    von_dyck_group(7, 3)[0],
]


def test_counts_against_oracle_cube():
    G = triangle_group(4, 3)
    cl = low_index_classes(G, 6)
    counts = class_counts(cl)
    for k in range(1, 7):
        assert counts.get(k, 0) == oracle_classes(G, k).count


def test_counts_against_oracle_von_dyck():
    vd, _ = von_dyck_group(4, 3)
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
    with_prune = low_index_classes(pres, 5)
    without = low_index_classes(pres, 5, prune=False)
    assert [t.flat() for t in with_prune.tables] == [t.flat() for t in without.tables]


def test_deterministic_and_jobs_equal():
    G = triangle_group(4, 4)
    serial = low_index_classes(G, 6)
    again = low_index_classes(G, 6)
    parallel = low_index_classes(G, 6, jobs=2)
    assert [t.flat() for t in serial.tables] == [t.flat() for t in again.tables]
    assert [t.flat() for t in serial.tables] == [t.flat() for t in parallel.tables]


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
    b = class_counts(low_index_classes(G, k, prune=False))
    assert a == b


def test_mirror_twist_permutes_classes():
    # transforming by the outer automorphism maps the class list to
    # itself (as canonical tables) and is an involution on it
    vd, sigma = von_dyck_group(7, 3)
    cl = low_index_classes(vd, 8)
    canon = {t.flat() for t in cl.tables}
    for t in cl.tables:
        image = canonical_table(transform_subgroup(t, sigma))
        assert image.n == t.n
        assert image.flat() in canon
        back = canonical_table(transform_subgroup(image, sigma))
        assert back == t


def test_node_budget_enforced():
    G = triangle_group(7, 3)
    with pytest.raises(ResourceLimit):
        low_index_classes(G, 20, node_budget=50)


def test_bad_arguments():
    G = triangle_group(4, 3)
    with pytest.raises(DomainError):
        low_index_classes(G, 0)
    with pytest.raises(DomainError):
        low_index_classes(G, 3, jobs=0)
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
