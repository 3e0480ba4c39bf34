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
from dataclasses import dataclass, field
from enum import Enum

from .coset import CosetTable, canonical_table, reroot
from .errors import DomainError, InternalError
from .lowindex import ClassList, Seed, low_index_classes
from .presentations import MIRROR_TWIST, Presentation, triangle_group, von_dyck_group
from .subgroups import (
    SubgroupRecord,
    fixed_cosets,
    orientation_sides,
    transform_subgroup,
)
from .words import A, B, C, REFLECTIONS, ROTATIONS, XGEN, ZGEN, Word


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
    word; it is a product of two mirrors).
    """
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


# the rotation word of a g for each reflection letter g (aa = 1, ab = x,
# ac = xz); that of g a is its inverse, as every letter is an involution
_A_TIMES: tuple[Word, ...] = ((), (XGEN,), (XGEN, ZGEN))


def _lift(t: CosetTable) -> CosetTable:
    """The reflection-group table of t's von Dyck subgroup H, of index 2k.

    Coset i is H u_i, where u_i reaches coset i of t, and coset k + i is
    H u_i a.  As H u_i g = H u_i w(g a) a and H u_i a g = H u_i w(a g),
    letter g takes i to k + i w(g a), and k + i to i w(a g).
    """
    k, g_a = t.n, [t.alphabet.inverse_word(w) for w in _A_TIMES]
    rows = [tuple(k + t.apply(i, w) for w in g_a) for i in range(k)]
    rows += [tuple(t.apply(i, w) for w in _A_TIMES) for i in range(k)]
    return CosetTable(REFLECTIONS, tuple(rows))


def colouring_classes(pres: Presentation, max_index: int, *, search=low_index_classes,
                      rotation_classes=None) -> ClassList:
    """The classes that colour some tiling, as census's default provider serves them.

    search(pres, max_index, seeds=...) finds them over the rotation
    alphabet, and the full-scope ones over the reflection alphabet.  The
    rotation scope's are orientation subgroups there, and one of index
    2k is an index-k subgroup of the von Dyck group (p and q read off the
    relators).  So that group's classes to max_index // 2, from
    rotation_classes (a provider's lookup; by default this function),
    are lifted (_lift) and put in canonical form, which merges each pair
    of twins.  Holding no mirror, none of them is a full-scope class.
    """
    cl = search(pres, max_index, seeds=colouring_seeds(pres))
    if pres.alphabet != REFLECTIONS or max_index < 2:
        return cl
    orders = {r[:2]: len(r) // 2 for r in pres.relators}  # (bc)^p and (ab)^q
    p, q = orders.get((B, C), 0), orders.get((A, B), 0)
    if set(triangle_group(p, q).relators) != set(pres.relators):
        raise DomainError(f"{pres.name!r} is not a triangle group")
    half = (rotation_classes or colouring_classes)(von_dyck_group(p, q), max_index // 2)
    tables = {*cl.tables, *(canonical_table(_lift(t)) for t in half.tables)}
    return ClassList(pres, max_index, tuple(sorted(tables, key=lambda t: (t.n, t.flat()))))


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


def _rerooted_record(t: CosetTable, fixed: frozenset[int]) -> SubgroupRecord:
    """Move the table's base point to the smallest of its cosets in `fixed`.

    fixed holds the cosets the stabilizer words fix (fixed_cosets, taken
    once by the caller's filter).  Class representatives are canonical
    tables whose base coset need not be fixed by the stabilizer words;
    colouring machinery needs literal membership, so each stored
    representative is re-rooted first.
    """
    return SubgroupRecord(reroot(t, min(fixed)))


def census(
    p: int,
    q: int,
    kind: TilingKind,
    scope: Scope,
    max_colours: int,
    *,
    strategy: str = "a",
    classes_provider=None,
) -> CensusReport:
    """All perfect colourings of the tiling with at most max_colours colours.

    scope=FULL admits every symmetry of the tiling; scope=ROTATION only
    the orientation-preserving ones.  For the rotation scope two
    independent routes exist: strategy "a" enumerates subgroups of the
    full reflection group up to twice the colour bound and keeps the
    orientation-preserving ones; strategy "b" enumerates subgroups of
    the rotation group directly and fuses conjugacy classes that the
    mirror twist identifies.  strategy "both" runs the two and insists
    they agree.  classes_provider(presentation, max_index) -> ClassList
    supplies the classes; the default, cache.cached_provider() with no
    directory, searches each group once a call and touches no file.  A
    provider may return more classes than those that colour the
    tiling, every class included: the census keeps only the colouring
    ones.
    """
    if max_colours < 1:
        raise DomainError("max_colours must be at least 1")
    if not isinstance(kind, TilingKind):
        raise DomainError(f"bad tiling kind: {kind!r}")
    if not isinstance(scope, Scope):
        raise DomainError(f"bad scope: {scope!r}")
    if strategy not in ("a", "b", "both"):
        raise DomainError(f"unknown strategy {strategy!r}")
    from .cache import cached_provider  # here, as cache imports this module
    provider = classes_provider or cached_provider()

    started = time.perf_counter()
    tag = "a" if scope is Scope.FULL else strategy  # the full scope has one route
    if tag == "a":
        entries = _census_reflection(p, q, kind, scope, max_colours, provider)
    elif tag == "b":
        entries = _census_rotation_b(p, q, kind, max_colours, provider)
    else:  # "both"
        ea = _census_reflection(p, q, kind, scope, max_colours, provider)
        eb = _census_rotation_b(p, q, kind, max_colours, provider)
        ma = {e.colours: e.count for e in ea}
        mb = {e.colours: e.count for e in eb}
        if ma != mb:
            raise InternalError(
                f"rotation strategies disagree for ({p},{q}) {kind.value}: "
                f"a={ma} b={mb}"
            )
        entries = ea

    return CensusReport(
        p=p,
        q=q,
        kind=kind,
        scope=scope,
        max_colours=max_colours,
        strategy=tag,
        entries=entries,
        elapsed=time.perf_counter() - started,
    )


def _bucket(records: dict[int, list[SubgroupRecord]]) -> tuple[CensusEntry, ...]:
    return tuple(
        CensusEntry(k, len(recs), tuple(recs))
        for k, recs in sorted(records.items())
    )


def _census_reflection(p, q, kind, scope, max_colours, provider) -> tuple[CensusEntry, ...]:
    """Full scope, or rotation scope via the reflection group (route a).

    An index-k subgroup of the rotation half has index 2k in the full
    group, and conjugacy classes taken in the full group are exactly
    what "colourings up to symmetry of the uncoloured tiling" means,
    reflections included.
    """
    scale = 1 if scope is Scope.FULL else 2
    words = required_words(kind, scope)
    classes = provider(triangle_group(p, q), scale * max_colours)
    buckets: dict[int, list[SubgroupRecord]] = {}
    for t in classes.tables:
        if scale == 2 and orientation_sides(t) is None:
            continue
        fixed = fixed_cosets(t, words)
        if fixed:
            buckets.setdefault(t.n // scale, []).append(_rerooted_record(t, fixed))
    return _bucket(buckets)


def _census_rotation_b(p, q, kind, max_colours, provider) -> tuple[CensusEntry, ...]:
    """Rotation scope via the rotation group itself.

    Classes there are conjugacy classes under rotations only; the mirror
    twist (an outer automorphism) can identify two of them, and such a
    pair is one colouring class of the unoriented tiling.  The twist is
    an involution, so each class has exactly one partner (possibly
    itself); the first class of each pair is counted.
    """
    word = rotation_required_word(kind)
    classes = provider(von_dyck_group(p, q), max_colours)
    # each qualifying class with the cosets its tile rotation fixes
    qualifying = [(t, fixed) for t in classes.tables if (fixed := fixed_cosets(t, (word,)))]
    slot = {t.rows: i for i, (t, _) in enumerate(qualifying)}
    partner = []
    for t, _ in qualifying:
        j = slot.get(canonical_table(transform_subgroup(t, MIRROR_TWIST)).rows)
        if j is None:
            raise InternalError("mirror twist left the qualifying class list")
        partner.append(j)

    buckets: dict[int, list[SubgroupRecord]] = {}
    for i, (t, fixed) in enumerate(qualifying):
        if partner[partner[i]] != i:
            raise InternalError("mirror twist does not act as an involution")
        if partner[i] >= i:  # keep the first class of each fused pair
            buckets.setdefault(t.n, []).append(_rerooted_record(t, fixed))
    return _bucket(buckets)


def colour_permutation(t: CosetTable, w: Word) -> tuple[int, ...]:
    """How the symmetry w permutes the colours of t's colouring.

    Colour i is the left coset (word of coset i)S; the symmetry carries
    tile gF to wgF, so colour i goes to the coset reached from i by
    w^-1 on the right.
    """
    iw = t.alphabet.inverse_word(w)
    return tuple(t.apply(i, iw) for i in range(t.n))


def format_census(report: CensusReport, style: str = "plain") -> str:
    """Render a report: 'plain' one-line multiplicity list, 'json', or 'csv'."""
    if style == "plain":
        parts = []
        for e in report.entries:
            parts.append(
                f"{e.colours}^{{{e.count}}}" if e.count >= 2 else str(e.colours)
            )
        label = report.kind.display(report.p, report.q)
        return f"{label} {report.scope.value} <= {report.max_colours}: " + ", ".join(
            parts
        )
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
