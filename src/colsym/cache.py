"""Disk cache for class lists, so each heavy enumeration runs once.

A class list is keyed by (presentation family, p, q, max_index).  A
cached list computed to a larger index bound serves any smaller request
after trimming, since the search output at bound N literally contains
the output at bound n < N.  Files are JSON, written atomically; corrupt
files, and files of another schema or another engine version, are
ignored and recomputed over.  A change to what the search outputs must
therefore bump __version__ or SCHEMA_VERSION.
"""
from __future__ import annotations

import datetime
import json
import os
import re
import tempfile

from . import __version__
from .coset import CosetTable
from .errors import CacheError, ParseError
from .lowindex import ClassList, low_index_classes
from .presentations import Presentation, triangle_group, von_dyck_group

SCHEMA_VERSION = 1

ENV_VAR = "COLSYM_CACHE_DIR"

_NAME_RE = re.compile(r"^(triangle|vondyck)-(\d+)-(\d+)$")
_FILE_RE = re.compile(r"^(triangle|vondyck)_(\d+)_(\d+)_idx(\d+)\.json$")
_TMP_PREFIX = "colsym-"  # of the temp files store_classes writes before renaming


def default_cache_dir() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "colsym")


def _family(pres: Presentation) -> tuple[str, int, int]:
    m = _NAME_RE.match(pres.name)
    if not m:
        raise CacheError(f"presentation {pres.name!r} is not cacheable")
    return m.group(1), int(m.group(2)), int(m.group(3))


def _rebuild(family: str, p: int, q: int) -> Presentation:
    if family == "triangle":
        return triangle_group(p, q)
    if family == "vondyck":
        return von_dyck_group(p, q)[0]
    raise ParseError(f"unknown presentation family {family!r}")


def serialize_class_list(cl: ClassList) -> str:
    family, p, q = _family(cl.presentation)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "family": family,
        "p": p,
        "q": q,
        "max_index": cl.max_index,
        "tables": [list(t.flat()) for t in cl.tables],
    }
    return json.dumps(doc)


def parse_class_list(text: str) -> ClassList:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level is not an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"schema_version {doc.get('schema_version')!r} not understood")
    if doc.get("engine") != __version__:
        raise ParseError(f"written by engine {doc.get('engine')!r}, not {__version__}")
    try:
        pres = _rebuild(doc["family"], int(doc["p"]), int(doc["q"]))
        max_index = int(doc["max_index"])
        raw_tables = doc["tables"]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"missing or malformed field: {e}") from None
    m = pres.alphabet.size
    tables = []
    for flat in raw_tables:
        if not isinstance(flat, list) or len(flat) % m:
            raise ParseError("table length is not a multiple of the alphabet size")
        n = len(flat) // m
        if any(not isinstance(v, int) or v < 0 or v >= n for v in flat):
            raise ParseError("table entry out of range")
        rows = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
        tables.append(CosetTable(pres.alphabet, rows))
    return ClassList(pres, max_index, tuple(tables))


def _trim(cl: ClassList, max_index: int) -> ClassList:
    if cl.max_index == max_index:
        return cl
    return ClassList(
        cl.presentation, max_index, tuple(t for t in cl.tables if t.n <= max_index)
    )


def load_classes(
    pres: Presentation, max_index: int, cache_dir: str | None = None
) -> ClassList | None:
    """Best cached list covering the request, trimmed; None on miss."""
    cache_dir = cache_dir or default_cache_dir()
    family, p, q = _family(pres)
    if not os.path.isdir(cache_dir):
        return None
    best: tuple[int, str] | None = None
    for fn in os.listdir(cache_dir):
        m = _FILE_RE.match(fn)
        if not m:
            continue
        if (m.group(1), int(m.group(2)), int(m.group(3))) != (family, p, q):
            continue
        bound = int(m.group(4))
        if bound >= max_index and (best is None or bound < best[0]):
            best = (bound, fn)
    if best is None:
        return None
    path = os.path.join(cache_dir, best[1])
    try:
        with open(path, "r", encoding="ascii") as fh:
            cl = parse_class_list(fh.read())
    except (OSError, ParseError):
        return None
    if cl.presentation != pres or cl.max_index != best[0]:
        return None  # foreign or mislabelled file; recompute
    return _trim(cl, max_index)


def store_classes(cl: ClassList, cache_dir: str | None = None) -> str:
    """Atomically write the list; returns the file path."""
    cache_dir = cache_dir or default_cache_dir()
    family, p, q = _family(cl.presentation)
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise CacheError(f"cannot create cache dir {cache_dir}: {e}") from None
    path = os.path.join(cache_dir, f"{family}_{p}_{q}_idx{cl.max_index}.json")
    data = serialize_class_list(cl)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=_TMP_PREFIX, suffix=".tmp")
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

    Within one process repeated requests also hit an in-memory layer,
    so a census pass over several tilings enumerates each group once.
    """
    memo: dict[tuple[str, int], ClassList] = {}

    def provider(pres: Presentation, max_index: int) -> ClassList:
        for (name, bound), cl in memo.items():
            if name == pres.name and bound >= max_index:
                return _trim(cl, max_index)
        if enabled:
            cached = load_classes(pres, max_index, cache_dir)
            if cached is not None:
                memo[(pres.name, max_index)] = cached
                return cached
        cl = low_index_classes(pres, max_index, jobs=jobs, node_budget=node_budget)
        memo[(pres.name, max_index)] = cl
        if enabled:
            try:
                store_classes(cl, cache_dir)
            except CacheError:
                pass  # a cache is an optimization, never lose the result over it
        return cl

    return provider


def cache_entries(cache_dir: str | None = None) -> list[dict]:
    """What the cache holds: one dict per file, sorted by name."""
    cache_dir = cache_dir or default_cache_dir()
    out = []
    if not os.path.isdir(cache_dir):
        return out
    for fn in sorted(os.listdir(cache_dir)):
        m = _FILE_RE.match(fn)
        if not m:
            continue
        path = os.path.join(cache_dir, fn)
        entry = {
            "file": fn,
            "family": m.group(1),
            "p": int(m.group(2)),
            "q": int(m.group(3)),
            "max_index": int(m.group(4)),
            "bytes": os.path.getsize(path),
        }
        try:
            with open(path, "r", encoding="ascii") as fh:
                cl = parse_class_list(fh.read())
            entry["classes"] = len(cl.tables)
        except (OSError, ParseError):
            entry["classes"] = None  # corrupt or stale; recomputed on use
        out.append(entry)
    return out


def cache_clear(cache_dir: str | None = None) -> int:
    """Delete class-list files and colsym's own temp files; returns how
    many went away.  Other files in the directory are left alone."""
    cache_dir = cache_dir or default_cache_dir()
    if not os.path.isdir(cache_dir):
        return 0
    n = 0
    for fn in os.listdir(cache_dir):
        if _FILE_RE.match(fn) or (fn.startswith(_TMP_PREFIX) and fn.endswith(".tmp")):
            try:
                os.unlink(os.path.join(cache_dir, fn))
                n += 1
            except OSError:
                pass
    return n
