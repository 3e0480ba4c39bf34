"""Counting perfect colourings of the (p, q) tilings.

A perfect colouring with k colours is determined by an index-k subgroup
S of the symmetry group that contains the stabilizer of one tile: tiles
are cosets, colours are cosets of S, and every symmetry permutes the
colours.  Counting colourings up to recolouring and symmetry therefore
means counting conjugacy classes of subgroups of index at most k that
contain a conjugate of the tile stabilizer.

Three tilings share the same reflection group: the tiling by p-gons
(tile stabilizer <b, c>), its dual by q-gons (<a, b>), and the Laves
tiling by quadrilaterals around the right-angle corner (<a, c>).  The
full scope uses all symmetries; the rotation scope only the
orientation-preserving ones, where the tile stabilizer shrinks to the
single rotation fixing the tile centre.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

from .coset import (
    CosetTable, canonical_table, least_fixed_coset, orientation_sides, reroot, transform_subgroup,
)
from .errors import DomainError, InternalError, check_count
from .lowindex import ClassList, Seed, low_index_classes
from .presentations import MIRROR_TWIST, Presentation, triangle_group, von_dyck_group
from .words import A, B, C, REFLECTIONS, ROTATIONS, XGEN, XINV, ZGEN, ZINV, Word


class TilingKind(Enum):
    PQ = "pq"  # p-gons, q meeting at each vertex
    QP = "qp"  # the dual: q-gons, p at each vertex
    LAVES = "laves"  # quadrilaterals around the right-angle corners

    def display(self, p: int, q: int) -> str:
        if self is TilingKind.PQ:
            return f"({p}^{q})"
        if self is TilingKind.QP:
            return f"({q}^{p})"
        lo, hi = sorted((p, q))
        return f"[{lo}.{hi}.{lo}.{hi}]"


class Scope(Enum):
    FULL = "full"
    ROTATION = "rotation"


# the two mirrors through a tile's centre; their product is the tile rotation
TILE_MIRRORS = {TilingKind.PQ: (B, C), TilingKind.QP: (A, B), TilingKind.LAVES: (A, C)}


def required_words(kind: TilingKind, scope: Scope) -> tuple[Word, ...]:
    """Stabilizer words a colouring subgroup must contain, up to conjugacy.

    Full scope: the two mirrors through the tile centre.  Rotation
    scope: the single rotation about the tile centre (as a reflection
    word; it is a product of two mirrors).  A kind or scope that is not
    one is a DomainError.
    """
    if not isinstance(kind, TilingKind):
        raise DomainError(f"bad tiling kind: {kind!r}")
    if not isinstance(scope, Scope):
        raise DomainError(f"bad scope: {scope!r}")
    r1, r2 = TILE_MIRRORS[kind]
    return ((r1,), (r2,)) if scope is Scope.FULL else ((r1, r2),)


def rotation_required_word(kind: TilingKind) -> Word:
    """The tile-centre rotation in the letters of the rotation group."""
    return {TilingKind.PQ: (ZGEN,), TilingKind.QP: (XGEN,), TilingKind.LAVES: (XGEN, ZGEN)}[kind]


def colouring_seeds(pres: Presentation) -> tuple[Seed, ...]:
    """The seeds of the search for the classes that colour some tiling.

    Over the reflection alphabet: each tiling's two mirrors (full
    scope; colouring_classes adds the rotation scope's classes).  Over
    the rotation alphabet: each tile rotation.  A class that colours no
    tiling in that scope contains a conjugate of none of them, so a
    search seeded with these finds every class such a census keeps.
    """
    if pres.alphabet == REFLECTIONS:
        return tuple(required_words(k, Scope.FULL) for k in TilingKind)
    if pres.alphabet == ROTATIONS:
        return tuple((rotation_required_word(k),) for k in TilingKind)
    raise DomainError(f"no tiling seeds over the alphabet {pres.alphabet.names}")


def _lift(t: CosetTable) -> CosetTable:
    """The reflection-group table of t's von Dyck subgroup H, of index 2k.

    Coset i is H u_i, where u_i reaches coset i of t, and coset k + i is
    H u_i b.  As ab = x, cb = Z, ba = X and bc = z, letters a, b, c take
    i to k + i x, k + i and k + i Z, and k + i to i X, i and i z.
    """
    k, e, m = t.n, t.entries, ROTATIONS.size
    flat = [v for i in range(k) for v in (k + e[i * m + XGEN], k + i, k + e[i * m + ZINV])]
    flat += [v for i in range(k) for v in (e[i * m + XINV], i, e[i * m + ZGEN])]
    return CosetTable(REFLECTIONS, tuple(flat))


def colouring_classes(pres: Presentation, max_index: int, *, search=low_index_classes,
                      rotation_classes=None) -> ClassList:
    """The classes that colour some tiling, as census's default provider serves them.

    search(pres, max_index, seeds=..., twist=...) finds one of each pair
    of mirror twins over the rotation alphabet (checked here, once a
    search: a class listed with its twin is an InternalError), and the
    full-scope ones over the reflection alphabet.  The rotation scope's
    are orientation subgroups there, and one of index 2k is an index-k
    subgroup of the von Dyck group (p and q read off the relators).  So
    that group's classes to max_index // 2, read (_listed) from
    rotation_classes (a provider's lookup; by default this function with
    the same search), are lifted (_lift) and put in canonical form,
    where twins lift to one class.  Holding no mirror, none is full-scope.
    """
    twist = MIRROR_TWIST if pres.alphabet == ROTATIONS else None
    cl = search(pres, max_index, seeds=colouring_seeds(pres), twist=twist)
    if twist:
        twin = {t: canonical_table(transform_subgroup(t, twist)) for t in cl.tables}
        if any(u != t and u in twin for t, u in twin.items()):
            raise InternalError("the search listed a rotation class with its mirror twin")
    if pres.alphabet != REFLECTIONS or max_index < 2:
        return cl
    orders = {r[:2]: len(r) // 2 for r in pres.relators}  # (bc)^p and (ab)^q
    p, q = orders.get((B, C), 0), orders.get((A, B), 0)
    if set(triangle_group(p, q).relators) != set(pres.relators):
        raise DomainError(f"{pres.name!r} is not a triangle group")
    half = _listed(rotation_classes or partial(colouring_classes, search=search),
                   von_dyck_group(p, q), max_index // 2)
    tables = {*cl.tables, *(canonical_table(_lift(t)) for t in half)}
    return ClassList(pres, max_index, tuple(sorted(tables, key=lambda t: (t.n, t.entries))))


@dataclass(frozen=True)
class SubgroupRecord:
    """A census representative: a listed class table and the least coset its tile stabilizer fixes.

    table, the listed table re-rooted at that coset, is built on first
    read; at coset 0 it is the listed table itself.
    """

    listed: CosetTable
    coset: int = 0

    @cached_property
    def table(self) -> CosetTable:
        return self.listed if self.coset == 0 else reroot(self.listed, self.coset)


@dataclass(frozen=True)
class CensusEntry:
    colours: int
    count: int
    representatives: tuple[SubgroupRecord, ...]


@dataclass(frozen=True)
class CensusReport:
    p: int
    q: int
    kind: TilingKind
    scope: Scope
    max_colours: int
    strategy: str
    entries: tuple[CensusEntry, ...]
    elapsed: float = field(compare=False, default=0.0)

    def multiplicities(self) -> dict[int, int]:
        return {e.colours: e.count for e in self.entries}


def _rerooted_record(t: CosetTable, coset: int) -> SubgroupRecord:
    """The record of t with its base point to be moved to `coset`.

    coset is the least coset the stabilizer words fix (least_fixed_coset,
    taken once by the caller's filter).  Class representatives are
    canonical tables whose base coset need not be fixed by the
    stabilizer words; colouring machinery needs literal membership, so a
    record's table is re-rooted, when it is first read; at coset 0 that
    is t itself, as a canonical table is standardized.
    """
    return SubgroupRecord(t, coset)


def census(
    p: int,
    q: int,
    kind: TilingKind,
    scope: Scope,
    max_colours: int,
    *,
    strategy: str = "b",
    classes_provider=None,
) -> CensusReport:
    """All perfect colourings of the tiling with at most max_colours colours.

    scope=FULL admits every symmetry of the tiling; scope=ROTATION only
    the orientation-preserving ones.  For the rotation scope two routes
    give the same entries: strategy "a" reads the reflection group's
    classes to twice the colour bound and keeps the orientation
    subgroups; strategy "b", the default, reads the rotation group's
    classes, one of each pair of mirror twins, and lifts those that
    colour the tiling to the reflection group.  Under the default
    provider both read one von Dyck search, lifted for route a by
    colouring_classes, so strategy "both", which runs the two, insists
    their multiplicities agree and returns route a's report, checks the
    lift and the two filters against each other, and not the search.
    classes_provider(presentation, max_index) -> ClassList
    supplies the classes; the default, cache.cached_provider() with no
    directory, searches each group once a call and touches no file.  A
    provider may return classes that colour no tiling, which the census
    drops, and classes above the bound, in any order: _listed reads it to
    the bound, in its order, and refuses (DomainError) a list of
    another presentation or to a lower bound.  The rotation group's list
    must hold one class of each mirror-twin pair: a class listed twice or
    with its differing twin is an InternalError (colouring_classes checks
    its search once, route b its lifts, "both" its counts).
    """
    check_count(max_colours, "max_colours", 1)
    words = required_words(kind, scope)
    if strategy not in ("a", "b", "both"):
        raise DomainError(f"unknown strategy {strategy!r}")
    from .cache import cached_provider  # here, as cache imports this module
    provider = classes_provider or cached_provider()

    started = time.perf_counter()
    tag = "a" if scope is Scope.FULL else strategy  # the full scope has one route
    if tag == "b":
        kept = _census_rotation_b(p, q, kind, max_colours, provider)
        # a repeat or a twin lifts onto a class already lifted
        lifted = {canonical_table(_lift(t)) for t in kept}
        if len(lifted) != len(kept):
            raise InternalError("a rotation class is listed twice or with its mirror twin")
        # in the reflection group's class-list order, so the entries are route a's
        tables = sorted(lifted, key=lambda t: (t.n, t.entries))
    else:
        scale = 1 if scope is Scope.FULL else 2
        tables = _listed(provider, triangle_group(p, q), scale * max_colours)
    entries = _census_reflection(tables, words, scope)
    if tag == "both":
        ma = {e.colours: e.count for e in entries}
        mb = Counter(t.n for t in _census_rotation_b(p, q, kind, max_colours, provider))
        if ma != mb:
            raise InternalError(
                f"rotation strategies disagree for ({p},{q}) {kind.value}: "
                f"a={ma} b={dict(sorted(mb.items()))}"
            )

    return CensusReport(p=p, q=q, kind=kind, scope=scope, max_colours=max_colours,
                        strategy=tag, entries=entries, elapsed=time.perf_counter() - started)


def _listed(provider, pres: Presentation, max_index: int) -> list[CosetTable]:
    """The tables of pres the provider lists, of index at most max_index, in the list's order.

    A list of another presentation or to a lower bound is a DomainError:
    a census read from it would be silently wrong.
    """
    cl = provider(pres, max_index)
    if cl.presentation != pres or cl.max_index < max_index:
        raise DomainError(f"the provider listed {cl.presentation.name!r} to index {cl.max_index} "
                          f"for {pres.name!r} to index {max_index}")
    return [t for t in cl.tables if t.n <= max_index]


def _census_reflection(tables, words, scope) -> tuple[CensusEntry, ...]:
    """The entries of the reflection-group tables whose subgroups hold a conjugate of words.

    A table is kept when some coset is fixed by all the words, and its
    record is re-rooted at the least such coset (least_fixed_coset) when
    its table is first read.  An index-k subgroup of the rotation half
    has index 2k in the full group, and conjugacy classes taken in the
    full group are exactly what "colourings up to symmetry of the
    uncoloured tiling" means, reflections included.  So in rotation
    scope only the orientation subgroups count, each at half its index.
    """
    scale = 1 if scope is Scope.FULL else 2
    buckets: dict[int, list[SubgroupRecord]] = {}
    for t in tables:
        if scale == 2 and orientation_sides(t) is None:
            continue
        coset = least_fixed_coset(t, words)
        if coset is not None:
            buckets.setdefault(t.n // scale, []).append(_rerooted_record(t, coset))
    return tuple(CensusEntry(k, len(recs), tuple(recs)) for k, recs in sorted(buckets.items()))


def _census_rotation_b(p, q, kind, max_colours, provider) -> list[CosetTable]:
    """The rotation group's classes that colour the tiling, as the provider lists them.

    Classes there are conjugacy classes under rotations only; the mirror
    twist (an outer automorphism) can identify two of them, and such a
    pair is one colouring class of the unoriented tiling.  The provider
    lists one class of each pair, as colouring_classes checks its search
    does, so all that colour the tiling are kept; census refuses a list
    that breaks this.
    """
    words = (rotation_required_word(kind),)
    return [t for t in _listed(provider, von_dyck_group(p, q), max_colours)
            if least_fixed_coset(t, words) is not None]


def colour_permutation(t: CosetTable, w: Word) -> tuple[int, ...]:
    """How the symmetry w permutes the colours of t's colouring.

    Colour i is the left coset (word of coset i)S; the symmetry carries
    tile gF to wgF, so colour i goes to the coset reached from i by
    w^-1 on the right.
    """
    return tuple(t.action(t.alphabet.inverse_word(w)))


def format_census(report: CensusReport, style: str = "plain") -> str:
    """Render a report: 'plain' one-line multiplicity list, 'json', or 'csv'."""
    if style == "plain":
        terms = (f"{e.colours}^{{{e.count}}}" if e.count >= 2 else str(e.colours)
                 for e in report.entries)
        label = report.kind.display(report.p, report.q)
        return f"{label} {report.scope.value} <= {report.max_colours}: " + ", ".join(terms)
    if style == "json":
        import json

        doc = {
            "p": report.p,
            "q": report.q,
            "tiling": report.kind.value,
            "scope": report.scope.value,
            "max_colours": report.max_colours,
            "strategy": report.strategy,
            "entries": [
                {"colours": e.colours, "count": e.count} for e in report.entries
            ],
        }
        return json.dumps(doc, indent=2)
    if style == "csv":
        lines = ["p,q,tiling,scope,colours,count"]
        for e in report.entries:
            lines.append(
                f"{report.p},{report.q},{report.kind.value},"
                f"{report.scope.value},{e.colours},{e.count}"
            )
        return "\n".join(lines)
    raise DomainError(f"unknown format style {style!r}")
