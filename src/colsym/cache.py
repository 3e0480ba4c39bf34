"""Disk cache for class lists, so each heavy enumeration runs once.

One file per presentation, `<name>.json` (e.g. `triangle-7-3.json`),
holds its class list to the largest index bound searched so far: the
search output at bound N literally contains the output at every n < N,
so a smaller request is served by trimming, and a larger one searches
and atomically replaces the file.  A file is two JSON lines, a header
(schema, engine version, presentation name and relators, bound, class
count) and the flat coset tables.  A corrupt file, or one of another
schema, engine or presentation, is a miss that the next search
replaces, so a change to what the search outputs must bump
__version__ or SCHEMA_VERSION.
"""
from __future__ import annotations

import json
import os
import re
import tempfile

from . import __version__
from .coset import CosetTable
from .errors import CacheError, DomainError, ParseError
from .lowindex import ClassList, low_index_classes
from .presentations import Presentation

SCHEMA_VERSION = 2

ENV_VAR = "COLSYM_CACHE_DIR"

_NAME_RE = re.compile(r"(triangle|vondyck)-\d+-\d+")
_TMP_PREFIX = "colsym-"  # of the temp files store_classes writes before renaming
# colsym's own files: class lists, schema 1's one file per bound searched
# (triangle_7_3_idx48.json), and the temp files of interrupted writes
_FILE_RE = re.compile(
    rf"{_NAME_RE.pattern}\.json|(triangle|vondyck)_\d+_\d+_idx\d+\.json|{_TMP_PREFIX}.*\.tmp"
)


def default_cache_dir() -> str:
    return os.environ.get(ENV_VAR) or os.path.join(os.path.expanduser("~"), ".cache", "colsym")


def _path(pres: Presentation, cache_dir: str | None) -> str:
    if not _NAME_RE.fullmatch(pres.name):
        raise CacheError(f"presentation {pres.name!r} is not cacheable")
    return os.path.join(cache_dir or default_cache_dir(), pres.name + ".json")


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


def _header(line: str) -> dict:
    """The first line of a class-list file, checked to be of this schema and engine."""
    header = _json(line)
    if not isinstance(header, dict):
        raise ParseError("header is not an object")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"schema_version {header.get('schema_version')!r} not understood")
    if header.get("engine") != __version__:
        raise ParseError(f"written by engine {header.get('engine')!r}, not {__version__}")
    if not all(type(header.get(k)) is int for k in ("max_index", "classes")):
        raise ParseError("missing or malformed max_index or classes")
    return header


def parse_class_list(text: str, pres: Presentation) -> ClassList:
    """The class list of pres that serialize_class_list wrote as text."""
    first, _, rest = text.partition("\n")
    header = _header(first)
    relators = [list(r) for r in pres.relators]
    if header.get("name") != pres.name or header.get("relators") != relators:
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


def load_classes(
    pres: Presentation, max_index: int, cache_dir: str | None = None
) -> ClassList | None:
    """The stored list of pres, untrimmed, if it reaches max_index; else None."""
    try:
        with open(_path(pres, cache_dir), "r", encoding="ascii") as fh:
            cl = parse_class_list(fh.read(), pres)
    except (OSError, ValueError, ParseError):
        return None  # missing, corrupt, stale or foreign: the next search replaces it
    return cl if cl.max_index >= max_index else None


def store_classes(cl: ClassList, cache_dir: str | None = None) -> str:
    """Atomically replace the presentation's file with cl; returns its path."""
    path = _path(cl.presentation, cache_dir)
    cache_dir = os.path.dirname(path)
    data = serialize_class_list(cl)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=_TMP_PREFIX, suffix=".tmp")
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


def cached_provider(
    cache_dir: str | None = None,
    *,
    enabled: bool = True,
    jobs: int = 1,
    node_budget: int | None = None,
):
    """A classes_provider for census() backed by the disk cache.

    Within one process it also keeps the largest list it has seen of
    each presentation, so a census pass over several tilings enumerates
    each group once and any smaller request is served by trimming.
    """
    if jobs < 1:
        raise DomainError("jobs must be at least 1")
    memo: dict[Presentation, ClassList] = {}

    def provider(pres: Presentation, max_index: int) -> ClassList:
        cl = memo.get(pres)
        if cl is None or cl.max_index < max_index:
            cl = load_classes(pres, max_index, cache_dir) if enabled else None
            if cl is None:
                cl = low_index_classes(pres, max_index, jobs=jobs, node_budget=node_budget)
                if enabled:
                    try:
                        store_classes(cl, cache_dir)
                    except CacheError:
                        pass  # a cache is an optimization, never lose the result over it
            memo[pres] = cl
        if cl.max_index == max_index:
            return cl
        return ClassList(pres, max_index, tuple(t for t in cl.tables if t.n <= max_index))

    return provider


def _own_files(cache_dir: str) -> list[str]:
    """Class-list files of this schema or of schema 1, and colsym's temp files."""
    if not os.path.isdir(cache_dir):
        return []
    return sorted(fn for fn in os.listdir(cache_dir) if _FILE_RE.fullmatch(fn))


def cache_entries(cache_dir: str | None = None) -> list[dict]:
    """What the cache holds, read from the file headers: one dict per
    class-list file, by name.  max_index and classes are None for a file
    no request would be served from."""
    cache_dir = cache_dir or default_cache_dir()
    out = []
    for fn in _own_files(cache_dir):
        if fn.endswith(".json"):
            entry = {"name": fn[:-5], "max_index": None, "classes": None}
            try:
                with open(os.path.join(cache_dir, fn), "r", encoding="ascii") as fh:
                    header = _header(fh.readline())
                if header.get("name") == entry["name"]:
                    entry.update(max_index=header["max_index"], classes=header["classes"])
            except (OSError, ValueError, ParseError):
                pass
            out.append(entry)
    return out


def cache_clear(cache_dir: str | None = None) -> int:
    """Delete class-list files and colsym's own temp files; returns how
    many went away.  Other files in the directory are left alone."""
    cache_dir = cache_dir or default_cache_dir()
    n = 0
    for fn in _own_files(cache_dir):
        try:
            os.unlink(os.path.join(cache_dir, fn))
            n += 1
        except OSError:
            pass
    return n
