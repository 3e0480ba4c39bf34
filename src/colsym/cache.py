"""Class lists kept in memory, and on disk in a directory the caller names.

cached_provider keeps the largest list it has seen of each presentation
for its own life.  Given a cache directory it also keeps one file per
presentation, `<name>.json` (e.g. `triangle-7-3.json`), holding its
colouring classes (those of census.colouring_classes: the classes that
colour some tiling, one of each mirror-twin pair) to the largest bound
searched so far: the search output at bound N literally contains the
output at every n < N, so a smaller request is served the whole list,
and a larger one searches and atomically replaces the file.  Without a
directory no file is read or written.  A file is two JSON lines, a
header (the code stamp, presentation name and relators, bound, class
count, and the crc32 of the table line with its newline) and the table
line: the coset tables' entries, strictly increasing in (index, entries), in
digits, brackets, commas, spaces and newlines only.  The code stamp is
the crc32 of the source of the modules that decide a class list or its
file (see _code), so a file written by other code, a corrupt one (a
table line edited under its header included) and one of another
presentation are all a miss that the next search replaces.  A writer
who edits the tables and fixes the crc too is not caught by the crc.
"""
from __future__ import annotations

import functools
import json
import os
import pathlib
import re
import tempfile
import zlib

from .coset import CosetTable
from .errors import DomainError, check_count
from .census import colouring_classes
from .lowindex import ClassList, low_index_classes
from .presentations import Presentation

_NAME_RE = re.compile(r"(triangle|vondyck)-(\d+)-(\d+)")


def _path(pres: Presentation, cache_dir: str) -> str:
    if not _NAME_RE.fullmatch(pres.name):
        raise DomainError(f"presentation {pres.name!r} is not cacheable")
    return os.path.join(cache_dir, pres.name + ".json")


@functools.cache
def _code() -> str:
    """The crc32 of the source of the modules that decide a class list or its file, in hex."""
    crc = 0
    for name in ("words", "presentations", "coset", "lowindex", "census", "cache"):
        crc = zlib.crc32(pathlib.Path(__file__).with_name(name + ".py").read_bytes(), crc)
    return f"{crc:08x}"


def _stamp(pres: Presentation) -> dict:
    """The header fields a file of pres must hold to be read back: code and presentation."""
    return {"code": _code(), "name": pres.name, "relators": [list(r) for r in pres.relators]}


def serialize_class_list(cl: ClassList) -> str:
    line = json.dumps([list(t.entries) for t in cl.tables]) + "\n"
    header = {**_stamp(cl.presentation), "max_index": cl.max_index, "classes": len(cl.tables),
              "crc": f"{zlib.crc32(line.encode()):08x}"}
    return f"{json.dumps(header)}\n{line}"


def parse_class_list(text: str | bytes, pres: Presentation) -> ClassList:
    """The class list of pres that serialize_class_list wrote as text (or its bytes)."""
    first, _, line = (text.encode() if isinstance(text, str) else text).partition(b"\n")
    try:
        header, raw_tables = json.loads(first.decode("ascii")), json.loads(line)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep to decode
        raise DomainError(f"not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise DomainError("header is not an object")
    stale = [k for k, v in _stamp(pres).items() if header.get(k) != v]
    if stale:
        raise DomainError(f"not a list of {pres.name!r} by this code: {', '.join(stale)} differ")
    if header.get("crc") != f"{zlib.crc32(line):08x}":
        raise DomainError("the table line does not match the header's crc")
    if not all(type(header.get(k)) is int for k in ("max_index", "classes")):
        raise DomainError("missing or malformed max_index or classes")
    max_index = header["max_index"]
    if not isinstance(raw_tables, list) or len(raw_tables) != header["classes"]:
        raise DomainError("tables missing or fewer or more than the header says")
    if (line.translate(None, b"0123456789[], \n") or line.count(b"[") != len(raw_tables) + 1
            or not all(type(flat) is list for flat in raw_tables)):
        raise DomainError("the table line is not one list of lists of unsigned integers")
    tables = []
    for flat in raw_tables:
        t = CosetTable(pres.alphabet, tuple(flat))  # refuses an empty or ragged table
        if t.n > max_index:
            raise DomainError(f"table of index {t.n} in a list to index {max_index}")
        if max(flat) >= t.n:
            raise DomainError("table entry out of range")
        tables.append(t)
    if any((len(a), a) >= (len(b), b) for a, b in zip(raw_tables, raw_tables[1:])):
        raise DomainError("tables are not strictly increasing in (index, entries)")
    return ClassList(pres, max_index, tuple(tables))


def load_classes(pres: Presentation, max_index: int, cache_dir: str) -> ClassList | None:
    """The stored list of pres, untrimmed, if it reaches max_index; else None."""
    try:
        with open(_path(pres, cache_dir), "rb") as fh:
            cl = parse_class_list(fh.read(), pres)
    except (OSError, ValueError, DomainError):
        return None  # missing, corrupt, stale, foreign or unnamed: search it
    return cl if cl.max_index >= max_index else None


def store_classes(cl: ClassList, cache_dir: str) -> str:
    """Atomically replace the presentation's file with cl; returns its path."""
    path = _path(cl.presentation, cache_dir)
    try:
        data = serialize_class_list(cl)  # reads the stamped modules' source on first use
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="colsym-", suffix=".tmp")
    except OSError as e:
        raise DomainError(f"cannot write to cache dir {cache_dir}: {e}") from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as e:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise DomainError(f"cannot write cache file {path}: {e}") from None
    return path


def cached_provider(cache_dir: str | None = None, *, node_budget: int | None = None):
    """A classes_provider for census(), backed by the files in cache_dir if given.

    It serves census.colouring_classes, each of whose searches gets its
    own node budget.  It keeps the largest list it has seen of each
    presentation in a memo, so a census pass over several tilings
    enumerates each group once, and returns that list whole, to at least the
    bound asked.  A reflection group's rotation half comes through the
    memo and cache too, so its search files the von Dyck group's list.
    """
    if node_budget is not None:
        check_count(node_budget, "node_budget", 0)
    memo: dict[Presentation, ClassList] = {}

    def search(pres: Presentation, max_index: int, **kw) -> ClassList:
        return low_index_classes(pres, max_index, node_budget=node_budget, **kw)

    def lookup(pres: Presentation, max_index: int, half=None) -> ClassList:
        cl = memo.get(pres)
        if cl is None or cl.max_index < max_index:
            cl = load_classes(pres, max_index, cache_dir) if cache_dir else None
            if cl is None:
                cl = colouring_classes(pres, max_index, search=search, rotation_classes=half)
                if cache_dir:
                    try:
                        store_classes(cl, cache_dir)
                    except DomainError:
                        pass  # a cache is an optimization, never lose the result over it
            memo[pres] = cl
        return cl

    def provider(pres: Presentation, max_index: int) -> ClassList:
        # the rotation half is looked up, not provided: a provider that
        # passed itself would hold its memo in a reference cycle
        return lookup(pres, max_index, lookup)

    return provider

