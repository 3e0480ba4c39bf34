import gc
import json
import os
import weakref

import pytest

import colsym.cache
from colsym import __version__
from colsym.cache import (
    cached_provider,
    load_classes,
    parse_class_list,
    serialize_class_list,
    store_classes,
)
from colsym.census import colouring_classes
from colsym.errors import CacheError, DomainError, ParseError
from colsym.lowindex import low_index_classes
from colsym.presentations import Presentation, triangle_group, von_dyck_group
from colsym.words import REFLECTIONS


@pytest.fixture()
def classes():
    # what the provider stores: the classes that colour some tiling
    return colouring_classes(triangle_group(4, 3), 6)


def _header_line(path):
    with open(path) as fh:
        return json.loads(fh.readline())


def _rewrite_header(path, **changes):
    with open(path) as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(colsym.cache, name)

    def counted(pres, max_index, *args, **kw):
        calls.append((pres.name, max_index))
        return real(pres, max_index, *args, **kw)

    monkeypatch.setattr(colsym.cache, name, counted)
    return calls


def test_serialize_parse_round_trip(classes):
    text = serialize_class_list(classes)
    assert text == serialize_class_list(classes)  # equal lists, equal bytes
    back = parse_class_list(text, triangle_group(4, 3))
    assert back.presentation == classes.presentation
    assert back.max_index == classes.max_index
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_store_load_round_trip(tmp_path, classes):
    path = store_classes(classes, str(tmp_path))
    assert os.path.exists(path)
    back = load_classes(triangle_group(4, 3), 6, str(tmp_path))
    assert back is not None
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_larger_bound_serves_smaller(tmp_path, classes, monkeypatch):
    store_classes(classes, str(tmp_path))
    # the stored list comes back whole and the provider trims it
    whole = load_classes(triangle_group(4, 3), 4, str(tmp_path))
    assert whole.max_index == 6 and len(whole.tables) == len(classes.tables)
    searched = _counting(monkeypatch, "low_index_classes")
    small = cached_provider(str(tmp_path))(triangle_group(4, 3), 4)
    assert searched == []
    assert small.max_index == 4
    assert all(t.n <= 4 for t in small.tables)
    expected = [t.flat() for t in classes.tables if t.n <= 4]
    assert [t.flat() for t in small.tables] == expected


def test_smaller_bound_is_a_miss(tmp_path, classes):
    store_classes(classes, str(tmp_path))
    assert load_classes(triangle_group(4, 3), 7, str(tmp_path)) is None
    assert load_classes(triangle_group(7, 3), 6, str(tmp_path)) is None
    assert load_classes(von_dyck_group(4, 3), 6, str(tmp_path)) is None


def test_corrupt_file_is_a_silent_miss(tmp_path, classes):
    path = store_classes(classes, str(tmp_path))
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert load_classes(triangle_group(4, 3), 6, str(tmp_path)) is None
    assert load_classes(triangle_group(4, 3), 1, str(tmp_path)) is None
    assert os.listdir(tmp_path) == ["triangle-4-3.json"]
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe not ascii")
    assert load_classes(triangle_group(4, 3), 6, str(tmp_path)) is None
    assert load_classes(triangle_group(4, 3), 1, str(tmp_path)) is None
    assert os.listdir(tmp_path) == ["triangle-4-3.json"]


def test_other_engine_is_recomputed_and_overwritten(tmp_path, classes):
    # a file from another engine version may hold a different search
    # output; here it is a truncated list that must not be served
    path = store_classes(classes, str(tmp_path))
    with open(path) as fh:
        header, tables = fh.readlines()
    with open(path, "w") as fh:
        fh.write(header.replace(__version__, "0.0.0") + json.dumps(json.loads(tables)[:1]))
    G = triangle_group(4, 3)
    assert load_classes(G, 6, str(tmp_path)) is None

    got = cached_provider(str(tmp_path))(G, 6)
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    assert _header_line(path)["engine"] == __version__
    back = load_classes(G, 6, str(tmp_path))
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_parse_rejects_malformed_documents(classes):
    G = triangle_group(4, 3)
    header, tables = map(json.loads, serialize_class_list(classes).splitlines())
    for breakage in (
        lambda h, t: h.pop("schema_version"),
        lambda h, t: h.update(schema_version=1),
        lambda h, t: h.update(schema_version=2),  # held every class, not the colouring ones
        lambda h, t: h.update(name="triangle-7-3"),  # another group's list
        lambda h, t: h.update(relators=h["relators"][:-1]),
        lambda h, t: h.update(max_index="six"),
        lambda h, t: h.update(max_index=4),  # holds tables of index 6
        lambda h, t: h.update(classes=len(t) + 1),
        lambda h, t: (t.append([0, 0]), h.update(classes=len(t))),  # length not divisible
        lambda h, t: t[0].__setitem__(0, 99),  # out of range entry
    ):
        h, t = json.loads(json.dumps(header)), json.loads(json.dumps(tables))
        breakage(h, t)
        with pytest.raises(ParseError):
            parse_class_list(f"{json.dumps(h)}\n{json.dumps(t)}\n", G)
    for text in ("[]", "nope", json.dumps(header)):
        with pytest.raises(ParseError):
            parse_class_list(text, G)
    with pytest.raises(ParseError):
        parse_class_list(serialize_class_list(classes), von_dyck_group(4, 3))


def test_cached_provider_memoizes_and_persists(tmp_path, monkeypatch):
    calls = []
    real = low_index_classes

    def counting(pres, max_index, **kw):
        calls.append((pres.name, max_index))
        return real(pres, max_index, **kw)

    monkeypatch.setattr("colsym.cache.low_index_classes", counting)

    prov = cached_provider(str(tmp_path))
    G, V = triangle_group(4, 3), von_dyck_group(4, 3)
    first = prov(G, 6)
    again = prov(G, 6)
    smaller = prov(G, 3)
    # the reflection search brought its rotation half to 3, and the memo
    # served the repeats and the half
    assert prov(V, 3).max_index == 3
    searched = [("triangle-4-3", 6), ("vondyck-4-3", 3)]
    assert calls == searched
    assert [t.flat() for t in first.tables] == [t.flat() for t in again.tables]
    assert all(t.n <= 3 for t in smaller.tables)

    # a second provider over the same directory reads the disk copies
    prov2 = cached_provider(str(tmp_path))
    prov2(G, 6)
    prov2(V, 3)
    assert calls == searched

    # without a directory a new provider searches again
    prov3 = cached_provider()
    prov3(G, 2)
    assert calls == searched + [("triangle-4-3", 2), ("vondyck-4-3", 1)]


def test_provider_without_a_directory_touches_no_file(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a provider without a directory used the disk")

    monkeypatch.setattr(colsym.cache, "load_classes", refuse)
    monkeypatch.setattr(colsym.cache, "store_classes", refuse)
    prov = cached_provider()
    G = triangle_group(4, 3)
    assert [t.flat() for t in prov(G, 6).tables] == [t.flat() for t in colouring_classes(G, 6).tables]
    assert prov(von_dyck_group(4, 3), 3).max_index == 3


def test_provider_frees_its_memo_without_the_cycle_collector():
    # the provider holds no reference cycle, so dropping it frees the
    # lists of both halves at once
    gc.disable()
    try:
        prov = cached_provider()
        lists = (prov(triangle_group(4, 3), 6), prov(von_dyck_group(4, 3), 3))
        held = [weakref.ref(cl) for cl in lists]
        del lists
        del prov
        assert [ref() for ref in held] == [None, None]
    finally:
        gc.enable()


def test_uncacheable_presentation(tmp_path, classes):
    odd = Presentation(REFLECTIONS, ((0, 0),), "custom-thing")
    cl = low_index_classes(odd, 2)
    with pytest.raises(CacheError):
        store_classes(cl, str(tmp_path))


def test_provider_searches_an_uncacheable_presentation(tmp_path):
    # the cube group under a name the cache cannot file: a miss, not an
    # error; its rotation half, read off the relators, is filed as usual
    cube = Presentation(REFLECTIONS, triangle_group(4, 3).relators, "my-cube")
    got = cached_provider(str(tmp_path))(cube, 4)
    assert [t.flat() for t in got.tables] == [
        t.flat() for t in colouring_classes(cube, 4).tables
    ]
    assert os.listdir(tmp_path) == ["vondyck-4-3.json"]


def test_one_file_per_group_holds_the_largest_search(tmp_path, monkeypatch):
    G = triangle_group(4, 3)
    cached_provider(str(tmp_path))(G, 4)
    cached_provider(str(tmp_path))(G, 6)
    # the search of G also filed its rotation half, to half the bound
    assert sorted(os.listdir(tmp_path)) == ["triangle-4-3.json", "vondyck-4-3.json"]
    V = von_dyck_group(4, 3)
    for pres, bound in ((G, 6), (V, 3)):
        stored = load_classes(pres, 1, str(tmp_path))
        assert stored.max_index == bound
        assert [t.flat() for t in stored.tables] == [
            t.flat() for t in colouring_classes(pres, bound).tables
        ]
    searched = _counting(monkeypatch, "low_index_classes")
    got = cached_provider(str(tmp_path))(G, 5)
    assert searched == []
    assert got.max_index == 5
    assert [t.flat() for t in got.tables] == [t.flat() for t in colouring_classes(G, 5).tables]


def test_stale_file_at_a_larger_bound_is_replaced(tmp_path, classes, monkeypatch):
    path = store_classes(classes, str(tmp_path))
    _rewrite_header(path, engine="0.0.0")
    searched = _counting(monkeypatch, "low_index_classes")
    got = cached_provider(str(tmp_path))(triangle_group(4, 3), 4)
    assert searched == [("triangle-4-3", 4), ("vondyck-4-3", 2)]
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables if t.n <= 4]
    assert sorted(os.listdir(tmp_path)) == ["triangle-4-3.json", "vondyck-4-3.json"]
    header = _header_line(path)
    assert (header["engine"], header["max_index"]) == (__version__, 4)


def test_memo_keeps_the_whole_list_it_read(tmp_path, classes, monkeypatch):
    store_classes(classes, str(tmp_path))
    loads = _counting(monkeypatch, "load_classes")
    searched = _counting(monkeypatch, "low_index_classes")
    prov = cached_provider(str(tmp_path))
    G = triangle_group(4, 3)
    assert prov(G, 4).max_index == 4
    got = prov(G, 6)
    assert loads == [("triangle-4-3", 4)] and searched == []
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]


def test_provider_rejects_jobs_below_one(tmp_path):
    for jobs in (0, -1):
        with pytest.raises(DomainError):
            cached_provider(str(tmp_path), jobs=jobs)


def test_unwritable_cache_keeps_the_result(tmp_path, classes, monkeypatch):
    # a directory that exists but takes no new file fails in mkstemp
    def refuse(*args, **kwargs):
        raise PermissionError("read-only cache dir")

    monkeypatch.setattr(colsym.cache.tempfile, "mkstemp", refuse)
    with pytest.raises(CacheError):
        store_classes(classes, str(tmp_path))
    got = cached_provider(str(tmp_path))(triangle_group(4, 3), 6)
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    assert os.listdir(tmp_path) == []
