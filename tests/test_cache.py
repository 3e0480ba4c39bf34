import json
import os

import pytest

from colsym import __version__
from colsym.cache import (
    cache_clear,
    cache_entries,
    cached_provider,
    default_cache_dir,
    load_classes,
    parse_class_list,
    serialize_class_list,
    store_classes,
)
from colsym.errors import CacheError, ParseError
from colsym.lowindex import low_index_classes
from colsym.presentations import Presentation, triangle_group, von_dyck_group
from colsym.words import REFLECTIONS


@pytest.fixture()
def classes():
    return low_index_classes(triangle_group(4, 3), 6)


def test_serialize_parse_round_trip(classes):
    text = serialize_class_list(classes)
    back = parse_class_list(text)
    assert back.presentation == classes.presentation
    assert back.max_index == classes.max_index
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_store_load_round_trip(tmp_path, classes):
    path = store_classes(classes, str(tmp_path))
    assert os.path.exists(path)
    back = load_classes(triangle_group(4, 3), 6, str(tmp_path))
    assert back is not None
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_larger_bound_serves_smaller(tmp_path, classes):
    store_classes(classes, str(tmp_path))
    small = load_classes(triangle_group(4, 3), 4, str(tmp_path))
    assert small is not None
    assert small.max_index == 4
    assert all(t.n <= 4 for t in small.tables)
    expected = [t.flat() for t in classes.tables if t.n <= 4]
    assert [t.flat() for t in small.tables] == expected


def test_smaller_bound_is_a_miss(tmp_path, classes):
    store_classes(classes, str(tmp_path))
    assert load_classes(triangle_group(4, 3), 7, str(tmp_path)) is None
    assert load_classes(triangle_group(7, 3), 6, str(tmp_path)) is None
    assert load_classes(von_dyck_group(4, 3)[0], 6, str(tmp_path)) is None


def test_corrupt_file_is_a_silent_miss(tmp_path, classes):
    path = store_classes(classes, str(tmp_path))
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert load_classes(triangle_group(4, 3), 6, str(tmp_path)) is None
    listing = cache_entries(str(tmp_path))
    assert len(listing) == 1
    assert listing[0]["classes"] is None


def test_other_engine_is_recomputed_and_overwritten(tmp_path, classes):
    # a file from another engine version may hold a different search
    # output; here it is a truncated list that must not be served
    path = store_classes(classes, str(tmp_path))
    with open(path) as fh:
        doc = json.load(fh)
    doc["engine"] = "0.0.0"
    doc["tables"] = doc["tables"][:1]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    G = triangle_group(4, 3)
    assert load_classes(G, 6, str(tmp_path)) is None

    got = cached_provider(str(tmp_path))(G, 6)
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    with open(path) as fh:
        assert json.load(fh)["engine"] == __version__
    back = load_classes(G, 6, str(tmp_path))
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_parse_rejects_malformed_documents(classes):
    good = json.loads(serialize_class_list(classes))
    for breakage in (
        lambda d: d.pop("schema_version"),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(family="octonion"),
        lambda d: d.update(p="seven"),
        lambda d: d["tables"].append([0, 0]),  # length not divisible
        lambda d: d["tables"][0].__setitem__(0, 99),  # out of range entry
        lambda d: d.pop("tables"),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(ParseError):
            parse_class_list(json.dumps(doc))
    with pytest.raises(ParseError):
        parse_class_list("[]")
    with pytest.raises(ParseError):
        parse_class_list("nope")


def test_cached_provider_memoizes_and_persists(tmp_path, monkeypatch):
    calls = []
    real = low_index_classes

    def counting(pres, max_index, **kw):
        calls.append((pres.name, max_index))
        return real(pres, max_index, **kw)

    monkeypatch.setattr("colsym.cache.low_index_classes", counting)

    prov = cached_provider(str(tmp_path))
    G = triangle_group(4, 3)
    first = prov(G, 6)
    again = prov(G, 6)
    smaller = prov(G, 3)
    assert calls == [("triangle-4-3", 6)]  # memo served the repeats
    assert [t.flat() for t in first.tables] == [t.flat() for t in again.tables]
    assert all(t.n <= 3 for t in smaller.tables)

    # a second provider over the same directory reads the disk copy
    prov2 = cached_provider(str(tmp_path))
    prov2(G, 6)
    assert calls == [("triangle-4-3", 6)]

    # with the cache disabled every call recomputes
    prov3 = cached_provider(str(tmp_path), enabled=False)
    prov3(G, 2)
    assert calls == [("triangle-4-3", 6), ("triangle-4-3", 2)]


def test_cache_clear(tmp_path, classes, monkeypatch):
    store_classes(classes, str(tmp_path))
    store_classes(low_index_classes(von_dyck_group(4, 3)[0], 4), str(tmp_path))
    assert len(cache_entries(str(tmp_path))) == 2
    # a temp file left by an interrupted store is colsym's to remove
    with monkeypatch.context() as m:
        m.setattr(os, "replace", lambda src, dst: None)
        store_classes(classes, str(tmp_path))
    foreign = tmp_path / "notes.tmp"
    foreign.write_text("not ours")
    assert cache_clear(str(tmp_path)) == 3
    assert cache_entries(str(tmp_path)) == []
    assert os.listdir(tmp_path) == ["notes.tmp"]
    assert foreign.read_text() == "not ours"
    assert cache_clear(str(tmp_path)) == 0


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("COLSYM_CACHE_DIR", str(tmp_path / "alt"))
    assert default_cache_dir() == str(tmp_path / "alt")
    monkeypatch.delenv("COLSYM_CACHE_DIR")
    assert "colsym" in default_cache_dir()


def test_uncacheable_presentation(tmp_path, classes):
    odd = Presentation(REFLECTIONS, ((0, 0),), "custom-thing")
    cl = low_index_classes(odd, 2)
    with pytest.raises(CacheError):
        store_classes(cl, str(tmp_path))
