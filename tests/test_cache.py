import gc
import importlib
import json
import os
import pathlib
import weakref
import zlib

import pytest

import colsym.cache
from colsym.cache import (
    cached_provider,
    load_classes,
    parse_class_list,
    serialize_class_list,
    store_classes,
)
from colsym.census import (
    Scope, TilingKind, census, colouring_classes, colouring_seeds, format_census,
)
from colsym.cli import main
from colsym.coset import CosetTable, reroot
from colsym.errors import DomainError
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


def _source_crc():
    """The code stamp worked out afresh: the crc32 of the six deciding modules, in order."""
    names = ("words", "presentations", "coset", "lowindex", "census", "cache")
    files = (importlib.import_module(f"colsym.{name}").__file__ for name in names)
    return f"{zlib.crc32(b''.join(pathlib.Path(f).read_bytes() for f in files)):08x}"


def _crc(line):
    """The crc a header holds for a table line (with its newline): crc32 in hex."""
    return f"{zlib.crc32(line.encode()):08x}"


def _document(header, tables, **spacing):
    """The text of a file of header and tables, its crc fixed to match as a writer could."""
    line = json.dumps(tables, **spacing) + "\n"
    return f"{json.dumps({**header, 'crc': _crc(line)})}\n{line}"


def _other(code):
    """A code stamp that differs from code."""
    return f"{int(code, 16) ^ 1:08x}"


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
    assert parse_class_list(text.encode(), triangle_group(4, 3)) == back
    # the table line's bytes in any JSON spacing, under their crc, read the same
    header, tables = map(json.loads, text.splitlines())
    for spacing in ({"separators": (",", ":")}, {"indent": 1}):
        assert parse_class_list(_document(header, tables, **spacing), triangle_group(4, 3)) == back


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


@pytest.mark.parametrize("corrupt", ["header", "tables"])
def test_json_nested_too_deep_to_decode_is_a_miss(tmp_path, capsys, corrupt):
    # 200,000 nested brackets make the JSON decoder raise RecursionError, not
    # ValueError; the file is a miss all the same, searched again and rewritten
    argv = ["census", "--p", "4", "--q", "3", "--max-colours", "6", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    line = capsys.readouterr().out
    path = tmp_path / "triangle-4-3.json"
    text = path.read_text()
    header, tables = text.splitlines()
    nested = "[" * 200_000
    path.write_text(f"{nested}\n{tables}\n" if corrupt == "header" else f"{header}\n{nested}\n")
    with pytest.raises(DomainError, match="not valid JSON"):
        parse_class_list(path.read_text(), triangle_group(4, 3))
    assert load_classes(triangle_group(4, 3), 6, str(tmp_path)) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == line
    assert path.read_text() == text


def test_other_engine_is_recomputed_and_overwritten(tmp_path, classes):
    # a file written by other code may hold a different search output;
    # here it is a truncated list that must not be served
    path = store_classes(classes, str(tmp_path))
    with open(path) as fh:
        header, tables = map(json.loads, fh.readlines())
    code = header["code"]
    with open(path, "w") as fh:
        fh.write(json.dumps({**header, "code": _other(code)}) + "\n" + json.dumps(tables[:1]))
    G = triangle_group(4, 3)
    assert load_classes(G, 6, str(tmp_path)) is None

    got = cached_provider(str(tmp_path))(G, 6)
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    assert _header_line(path)["code"] == code
    back = load_classes(G, 6, str(tmp_path))
    assert [t.flat() for t in back.tables] == [t.flat() for t in classes.tables]


def test_header_holds_the_code_stamp_and_the_presentation(classes):
    first, _, line = serialize_class_list(classes).partition("\n")
    header = json.loads(first)
    assert header == {
        "code": _source_crc(),
        "name": "triangle-4-3",
        "relators": [list(r) for r in triangle_group(4, 3).relators],
        "max_index": 6,
        "classes": len(classes.tables),
        "crc": _crc(line),
    }
    assert list(header) == ["code", "name", "relators", "max_index", "classes", "crc"]


def test_census_file_of_other_code_is_searched_again_and_rewritten(tmp_path, capsys, monkeypatch):
    # a file whose code stamp differs is a miss, whatever it holds: the
    # census searches again and rewrites both files with the current stamp
    argv = ["census", "--p", "7", "--q", "3", "--max-colours", "24", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    line = capsys.readouterr().out
    names = ["triangle-7-3.json", "vondyck-7-3.json"]
    assert sorted(os.listdir(tmp_path)) == names
    texts = [(tmp_path / name).read_text() for name in names]
    for name in names:
        _rewrite_header(tmp_path / name, code=_other(_source_crc()))
    searched = _counting(monkeypatch, "low_index_classes")
    assert main(argv) == 0
    assert capsys.readouterr().out == line
    assert searched == [("triangle-7-3", 24), ("vondyck-7-3", 12)]
    assert [(tmp_path / name).read_text() for name in names] == texts
    assert all(_header_line(tmp_path / name)["code"] == _source_crc() for name in names)


def test_provider_without_a_directory_never_computes_the_code_stamp(monkeypatch):
    def refuse():
        raise AssertionError("a provider without a directory computed the code stamp")

    monkeypatch.setattr(colsym.cache, "_code", refuse)
    assert main(["census", "--p", "7", "--q", "3", "--max-colours", "24"]) == 0
    prov = cached_provider()
    assert prov(triangle_group(4, 3), 6).max_index == 6
    assert prov(von_dyck_group(5, 4), 8).max_index == 8


def test_code_stamp_is_computed_once_per_process(tmp_path, monkeypatch):
    reads = []
    real = pathlib.Path.read_bytes

    def counted(path):
        reads.append(path.name)
        return real(path)

    colsym.cache._code.cache_clear()
    monkeypatch.setattr(pathlib.Path, "read_bytes", counted)
    for bound in (6, 8):  # files of both groups stored, read back, trimmed and replaced
        cached_provider(str(tmp_path))(triangle_group(4, 3), bound)
        cached_provider(str(tmp_path))(triangle_group(4, 3), bound)
    assert colsym.cache._code.cache_info().misses == 1
    assert reads == ["words.py", "presentations.py", "coset.py", "lowindex.py", "census.py",
                     "cache.py"]
    assert colsym.cache._code() == _source_crc()


def test_unreadable_source_keeps_the_result_and_writes_no_file(tmp_path, classes, monkeypatch):
    # an install without the modules' source cannot stamp a file: every
    # file is a miss and none is written, but the searched list is served
    def unreadable():
        raise FileNotFoundError("no source for the code stamp")

    monkeypatch.setattr(colsym.cache, "_code", unreadable)
    with pytest.raises(DomainError):
        store_classes(classes, str(tmp_path))
    got = cached_provider(str(tmp_path))(triangle_group(4, 3), 6)
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    assert os.listdir(tmp_path) == []


def test_parse_rejects_malformed_documents(classes):
    G = triangle_group(4, 3)
    header, tables = map(json.loads, serialize_class_list(classes).splitlines())
    for breakage in (
        lambda h: h.pop("code"),
        lambda h: h.update(code=_other(h["code"])),  # written by other code
        lambda h: h.update(code=int(h["code"], 16)),  # the stamp as a number, not a string
        lambda h: h.update(name="triangle-7-3"),  # another group's list
        lambda h: h.update(relators=h["relators"][:-1]),
        lambda h: h.pop("crc"),
        lambda h: h.update(crc=_other(h["crc"])),  # another table line's
        lambda h: h.update(crc=int(h["crc"], 16)),
        lambda h: h.update(max_index="six"),
        lambda h: h.update(max_index=4),  # holds tables of index 6
        lambda h: h.update(classes=len(tables) + 1),
    ):
        h = json.loads(json.dumps(header))
        breakage(h)
        with pytest.raises(DomainError):
            parse_class_list(f"{json.dumps(h)}\n{json.dumps(tables)}\n", G)
    # a table line edited by a writer who also fixes the crc meets the refusal named
    for breakage, refusal in (
        (lambda h, t: (t.append([0, 0]), h.update(classes=len(t))), "not a multiple"),
        (lambda h, t: t[0].__setitem__(0, 99), "out of range"),
        (lambda h, t: t[1].__setitem__(0, -1), "unsigned integers"),
        (lambda h, t: t[1].__setitem__(0, 1.0), "unsigned integers"),
        (lambda h, t: t[1].__setitem__(0, "1"), "unsigned integers"),
        (lambda h, t: t[1].__setitem__(0, None), "unsigned integers"),
        (lambda h, t: t.__setitem__(0, [t[0]]), "unsigned integers"),  # a list of lists of lists
        (lambda h, t: t[1].__setitem__(0, [0]), "unsigned integers"),  # int and list entries
        # an int for a table, with the brackets it lacks nested in the next one
        (lambda h, t: (t.__setitem__(0, 0), t[1].__setitem__(0, [0])), "unsigned integers"),
        (lambda h, t: t.insert(1, t[0]) or h.update(classes=len(t)), "strictly increasing"),
        (lambda h, t: t.reverse(), "strictly increasing"),
    ):
        h, t = json.loads(json.dumps(header)), json.loads(json.dumps(tables))
        breakage(h, t)
        with pytest.raises(DomainError, match=refusal):
            parse_class_list(_document(h, t), G)
    for text in ("[]", "nope", json.dumps(header), b"\xff\xfe not ascii"):
        with pytest.raises(DomainError):
            parse_class_list(text, G)
    with pytest.raises(DomainError, match="header is not an object"):
        parse_class_list(f"{json.dumps(list(header))}\n{json.dumps(tables)}\n", G)
    with pytest.raises(DomainError):
        parse_class_list(serialize_class_list(classes), von_dyck_group(4, 3))


def test_every_single_byte_substitution_in_the_table_line_is_refused(classes):
    # each of the 255 other values of each byte of the line and its newline,
    # header untouched: CRC-32 detects every burst of up to 32 bits, so no
    # single-byte edit reads as a list
    G = triangle_group(4, 3)
    data = serialize_class_list(classes).encode()
    start = data.index(b"\n") + 1
    accepted = []
    for i in range(start, len(data)):
        for b in range(256):
            if b != data[i]:
                try:
                    parse_class_list(data[:i] + bytes([b]) + data[i + 1 :], G)
                except DomainError:
                    continue
                accepted.append((i - start, bytes([b])))
    assert (len(data) - start, accepted) == (325, [])


def test_boolean_table_entries_are_a_miss(tmp_path, classes, monkeypatch):
    # JSON true and false are not cosets 1 and 0, though Python compares them equal
    path = store_classes(classes, str(tmp_path))
    with open(path) as fh:
        header, tables = fh.readlines()
    doctored = [[{0: False, 1: True}.get(v, v) for v in flat] for flat in json.loads(tables)]
    text = _document(json.loads(header), doctored)
    assert "true" in text and "false" in text
    with open(path, "w") as fh:
        fh.write(text)
    G = triangle_group(4, 3)
    with pytest.raises(DomainError, match="unsigned integers"):
        parse_class_list(text, G)
    assert load_classes(G, 6, str(tmp_path)) is None
    searched = _counting(monkeypatch, "low_index_classes")
    got = cached_provider(str(tmp_path))(G, 6)
    assert searched == [("triangle-4-3", 6), ("vondyck-4-3", 3)]
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
    assert all(type(v) is int for t in got.tables for v in t.flat())
    with open(path) as fh:
        assert fh.read() == serialize_class_list(classes)


@pytest.mark.parametrize("doctor", ["repeat", "swap"])
def test_tables_out_of_order_or_repeated_are_a_miss(tmp_path, capsys, doctor):
    # a class list is strictly increasing in (index, rows); a file that
    # repeats the 8-colour class, with its header count raised to match,
    # would count it twice, so it is refused, searched again and rewritten
    argv = ["census", "--p", "7", "--q", "3", "--max-colours", "12", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    line = capsys.readouterr().out
    assert line == "(7^3) full <= 12: 1, 8\n"
    path = tmp_path / "triangle-7-3.json"
    text = path.read_text()
    header, tables = map(json.loads, text.splitlines())
    i = next(i for i, flat in enumerate(tables) if len(flat) == 3 * 8)
    if doctor == "repeat":
        tables.insert(i, tables[i])
    else:
        tables[i - 1], tables[i] = tables[i], tables[i - 1]
    header["classes"] = len(tables)
    path.write_text(_document(header, tables))
    with pytest.raises(DomainError, match="strictly increasing"):
        parse_class_list(path.read_text(), triangle_group(7, 3))
    assert main(argv) == 0
    assert capsys.readouterr().out == line
    assert path.read_text() == text


@pytest.mark.parametrize("doctor", ["reroot", "relator"])
def test_table_line_edited_under_its_header_is_a_miss(tmp_path, capsys, doctor):
    # the header is left as written, crc included.  "reroot" adds a re-rooted
    # copy of the 8-colour class, kept in (index, rows) order with the count
    # raised, which the order check passes and which would count the class
    # twice; "relator" changes one in-range entry of the last table so that a
    # relator breaks.  Either is a miss, searched again and rewritten
    argv = ["census", "--p", "7", "--q", "3", "--max-colours", "12", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    line = capsys.readouterr().out
    assert line == "(7^3) full <= 12: 1, 8\n"
    G = triangle_group(7, 3)
    path = tmp_path / "triangle-7-3.json"
    text = path.read_text()
    header, tables = map(json.loads, text.splitlines())
    m = G.alphabet.size
    if doctor == "reroot":
        (i,) = [i for i, flat in enumerate(tables) if len(flat) == m * 8]
        t = CosetTable(G.alphabet, tuple(zip(*[iter(tables[i])] * m)))
        tables.append(list(reroot(t, 1).flat()))
        tables.sort(key=lambda flat: (len(flat), flat))
        header["classes"] = len(tables)
    else:
        n = len(tables[-1]) // m
        tables[-1][-1] = (tables[-1][-1] + 1) % n
        t = CosetTable(G.alphabet, tuple(zip(*[iter(tables[-1])] * m)))
        assert any(t.action(r) != list(range(n)) for r in G.relators)
    assert all((len(a), a) < (len(b), b) for a, b in zip(tables, tables[1:]))
    path.write_text(f"{json.dumps(header)}\n{json.dumps(tables)}\n")
    with pytest.raises(DomainError, match="crc"):
        parse_class_list(path.read_text(), G)
    assert main(argv) == 0
    assert capsys.readouterr().out == line
    assert path.read_text() == text


def test_schema_3_list_of_both_twins_is_searched_again(tmp_path, capsys):
    # the code of cache schema 3 filed both classes of each von Dyck twin
    # pair, which route b now refuses: under the current code stamp the
    # census exits 1, and under that code's own stamp the file is a miss,
    # searched again and rewritten
    V = von_dyck_group(7, 3)
    header, tables, _ = serialize_class_list(
        low_index_classes(V, 24, seeds=colouring_seeds(V))).split("\n")
    path = tmp_path / "vondyck-7-3.json"
    argv = ["census", "--p", "7", "--q", "3", "--scope", "rotation", "--max-colours", "24",
            "--cache-dir", str(tmp_path)]
    line = "(7^3) rotation <= 24: 1, 8, 9, 15^{2}, 22^{7}, 24\n"
    code = json.loads(header)["code"]
    assert code == _source_crc()
    path.write_text(f"{header}\n{tables}\n")
    assert main(argv) == 1
    assert "listed twice or with its mirror twin" in capsys.readouterr().err
    _rewrite_header(path, code=_other(code))
    assert main(argv) == 0
    assert capsys.readouterr().out == line
    assert path.read_text() == serialize_class_list(colouring_classes(V, 24))


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
    with pytest.raises(DomainError):
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
    code = _header_line(path)["code"]
    _rewrite_header(path, code=_other(code))
    searched = _counting(monkeypatch, "low_index_classes")
    got = cached_provider(str(tmp_path))(triangle_group(4, 3), 4)
    assert searched == [("triangle-4-3", 4), ("vondyck-4-3", 2)]
    assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables if t.n <= 4]
    assert sorted(os.listdir(tmp_path)) == ["triangle-4-3.json", "vondyck-4-3.json"]
    header = _header_line(path)
    assert (header["code"], header["max_index"]) == (code, 4)


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


def test_unwritable_cache_keeps_the_result(tmp_path, classes, monkeypatch):
    # a directory that exists but takes no new file fails in mkstemp; a
    # file that cannot be put in place fails in os.replace, after the
    # temporary file is written, which is removed again, or left behind
    # where os.unlink fails too
    def refuse(*args, **kwargs):
        raise PermissionError("read-only cache dir")

    cases = [
        ([(colsym.cache.tempfile, "mkstemp")], "cannot write to cache dir"),
        ([(os, "replace")], "cannot write cache file"),
        ([(os, "replace"), (os, "unlink")], "cannot write cache file"),
    ]
    for refused, refusal in cases:
        with monkeypatch.context() as m:
            for module, name in refused:
                m.setattr(module, name, refuse)
            with pytest.raises(DomainError, match=refusal):
                store_classes(classes, str(tmp_path))
            got = cached_provider(str(tmp_path))(triangle_group(4, 3), 6)
            assert [t.flat() for t in got.tables] == [t.flat() for t in classes.tables]
            report = census(4, 3, TilingKind.PQ, Scope.FULL, 6,
                            classes_provider=cached_provider(str(tmp_path)))
            assert format_census(report) == "(4^3) full <= 6: 1, 3, 6"
        # with os.unlink refused too, each failed store leaves its temporary
        # file: store_classes's, and one per group each provider searched
        left = os.listdir(tmp_path)
        assert all(f.startswith("colsym-") and f.endswith(".tmp") for f in left)
        assert len(left) == (1 + 2 + 2 if len(refused) == 2 else 0)
        for f in left:
            os.unlink(tmp_path / f)
