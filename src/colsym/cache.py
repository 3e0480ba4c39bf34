"""Class lists kept in memory, and on disk in a directory the caller names.

cached_provider keeps the largest list it has seen of each presentation
for its own life.  Given a cache directory it also keeps one file per
presentation, `<name>.json` (e.g. `triangle-7-3.json`), holding its
colouring classes (those of census.colouring_classes: the classes that
colour some tiling of the group) to the largest index bound searched so
far: the search output at bound N literally contains the output at
every n < N, so a smaller request is served by trimming, and a larger
one searches and atomically replaces the file.  Without a directory no
file is read or written.  A file is two JSON lines, a header (schema,
engine version, presentation name and relators, bound, class count)
and the flat coset tables.  A corrupt file, or one of another schema,
engine or presentation, is a miss that the next search replaces, so a
change to what the search outputs must bump __version__ or
SCHEMA_VERSION.
"""
from __future__ import annotations

import json
import os
import re
import tempfile

from . import __version__
from .coset import CosetTable
from .errors import CacheError, DomainError, ParseError
from .census import colouring_classes
from .lowindex import ClassList, low_index_classes
from .presentations import Presentation

SCHEMA_VERSION = 3  # 3: colouring classes only; 2 held every class

_NAME_RE = re.compile(r"(triangle|vondyck)-(\d+)-(\d+)")


def _path(pres: Presentation, cache_dir: str) -> str:
    if not _NAME_RE.fullmatch(pres.name):
        raise CacheError(f"presentation {pres.name!r} is not cacheable")
    return os.path.join(cache_dir, pres.name + ".json")


def serialize_class_list(cl: ClassList) -> str:
    pres = cl.presentation
    header = {"schema_version": SCHEMA_VERSION, "engine": __version__, "name": pres.name,
              "relators": [list(r) for r in pres.relators], "max_index": cl.max_index,
              "classes": len(cl.tables)}
    return f"{json.dumps(header)}\n{json.dumps([list(t.flat()) for t in cl.tables])}\n"


def _json(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None


def parse_class_list(text: str, pres: Presentation) -> ClassList:
    """The class list of pres that serialize_class_list wrote as text."""
    first, _, rest = text.partition("\n")
    header = _json(first)
    if not isinstance(header, dict):
        raise ParseError("header is not an object")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"schema_version {header.get('schema_version')!r} not understood")
    if header.get("engine") != __version__:
        raise ParseError(f"written by engine {header.get('engine')!r}, not {__version__}")
    if not all(type(header.get(k)) is int for k in ("max_index", "classes")):
        raise ParseError("missing or malformed max_index or classes")
    if header.get("name") != pres.name or header.get("relators") != [list(r) for r in pres.relators]:
        raise ParseError(f"class list of another presentation than {pres.name!r}")
    max_index = header["max_index"]
    raw_tables = _json(rest)
    if not isinstance(raw_tables, list) or len(raw_tables) != header["classes"]:
        raise ParseError("tables missing or fewer or more than the header says")
    m = pres.alphabet.size
    tables = []
    for flat in raw_tables:
        if not isinstance(flat, list) or len(flat) % m:
            raise ParseError("table length is not a multiple of the alphabet size")
        n = len(flat) // m
        if not 0 < n <= max_index:
            raise ParseError(f"table of index {n} in a list to index {max_index}")
        if any(not isinstance(v, int) or v < 0 or v >= n for v in flat):
            raise ParseError("table entry out of range")
        rows = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
        tables.append(CosetTable(pres.alphabet, rows))
    return ClassList(pres, max_index, tuple(tables))


def load_classes(pres: Presentation, max_index: int, cache_dir: str) -> ClassList | None:
    """The stored list of pres, untrimmed, if it reaches max_index; else None."""
    try:
        with open(_path(pres, cache_dir), "r", encoding="ascii") as fh:
            cl = parse_class_list(fh.read(), pres)
    except (OSError, ValueError, ParseError, CacheError):
        return None  # missing, corrupt, stale, foreign or unnamed: search it
    return cl if cl.max_index >= max_index else None


def store_classes(cl: ClassList, cache_dir: str) -> str:
    """Atomically replace the presentation's file with cl; returns its path."""
    path = _path(cl.presentation, cache_dir)
    data = serialize_class_list(cl)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="colsym-", suffix=".tmp")
    except OSError as e:
        raise CacheError(f"cannot write to cache dir {cache_dir}: {e}") from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as e:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CacheError(f"cannot write cache file {path}: {e}") from None
    return path


def cached_provider(cache_dir: str | None = None, *, jobs: int = 1, node_budget: int | None = None):
    """A classes_provider for census(), backed by the files in cache_dir if given.

    It serves census.colouring_classes, each of whose searches gets the
    jobs and its own node budget.  It keeps the largest list it has seen
    of each presentation in a memo, so a census pass over several
    tilings enumerates each group once and a smaller request is served
    by trimming.  A reflection group's rotation half comes through the
    memo and cache too, so its search files the von Dyck group's list.
    """
    if jobs < 1:
        raise DomainError("jobs must be at least 1")
    if node_budget is not None and node_budget < 0:
        raise DomainError("node_budget must be at least 0")
    memo: dict[Presentation, ClassList] = {}

    def search(pres: Presentation, max_index: int, seeds) -> ClassList:
        return low_index_classes(pres, max_index, seeds=seeds, jobs=jobs, node_budget=node_budget)

    def lookup(pres: Presentation, max_index: int, half=None) -> ClassList:
        cl = memo.get(pres)
        if cl is None or cl.max_index < max_index:
            cl = load_classes(pres, max_index, cache_dir) if cache_dir else None
            if cl is None:
                cl = colouring_classes(pres, max_index, search=search, rotation_classes=half)
                if cache_dir:
                    try:
                        store_classes(cl, cache_dir)
                    except CacheError:
                        pass  # a cache is an optimization, never lose the result over it
            memo[pres] = cl
        if cl.max_index == max_index:
            return cl
        return ClassList(pres, max_index, tuple(t for t in cl.tables if t.n <= max_index))

    def provider(pres: Presentation, max_index: int) -> ClassList:
        # the rotation half is looked up, not provided: a provider that
        # passed itself would hold its memo in a reference cycle
        return lookup(pres, max_index, lookup)

    return provider

