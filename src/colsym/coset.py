"""Coset tables: re-rooting and canonical forms.

A coset table for a subgroup S of a group G presented on k letters is
an n x k array: rows are cosets (row 0 is S itself), columns follow the
alphabet, and entry (i, g) is the coset S w_i g.  A complete table is a
transitive permutation representation of G on the cosets.  The tables
themselves come from the low-index search (lowindex.py).

Re-rooting and canonical forms share one renumbering (_renumbered): a
column-ordered BFS from a base coset, which the canonical form runs
from every base against the least result so far.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .words import Alphabet, Word


@dataclass(frozen=True)
class CosetTable:
    """Immutable complete coset table over a fixed alphabet."""

    alphabet: Alphabet
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def apply(self, i: int, w: Word) -> int:
        """Coset reached from coset i by reading w left to right."""
        rows = self.rows
        for g in w:
            i = rows[i][g]
        return i

    def flat(self) -> tuple[int, ...]:
        """Row-major serialization; the key used for sorting and hashing."""
        return tuple(v for row in self.rows for v in row)


def _renumbered(t: CosetTable, base: int, bound: list[int] | None, loc: list[int]) -> list[int] | None:
    """t's entries, row-major, with `base` moved to slot 0; None if above bound.

    Cosets are relabelled in first-visit order of a column-ordered BFS
    from base, and each entry is relabelled as the BFS reads it.  Given
    bound, the entries of another renumbering of t, the BFS stops at the
    first entry above bound's with all earlier entries equal, and returns
    None; once one falls below bound's, it compares no more.  loc is
    t.n slots of -1, which a None result leaves as they were.
    """
    rows = t.rows
    order = [base]
    loc[base] = 0
    flat: list[int] = []
    less = bound is None  # decided below bound; compare no more
    i = 0
    while i < len(order):
        for w in rows[order[i]]:
            e = loc[w]
            if e < 0:
                e = loc[w] = len(order)
                order.append(w)
            if not less:
                b = bound[len(flat)]
                if e > b:
                    for o in order:
                        loc[o] = -1
                    return None
                less = e < b
            flat.append(e)
        i += 1
    if len(order) != t.n:
        raise DomainError("table is not transitive; cannot renumber")
    return flat


def _table(t: CosetTable, flat: list[int]) -> CosetTable:
    m = t.alphabet.size
    return CosetTable(t.alphabet, tuple(tuple(flat[i : i + m]) for i in range(0, len(flat), m)))


def reroot(t: CosetTable, base: int) -> CosetTable:
    """Standardized table of the same action with `base` moved to slot 0.

    The result is the table of the conjugate subgroup w S w^-1 where w
    is any word carrying coset 0 to base.
    """
    return _table(t, _renumbered(t, base, None, [-1] * t.n))


def canonical_table(t: CosetTable) -> CosetTable:
    """Lexicographically least re-rooting; the class representative.

    Two complete tables have equal canonical forms iff their subgroups
    are conjugate, since re-rooting runs over exactly the conjugates.
    Every base, 0 included, is renumbered with the least re-rooting so
    far as its bound, so a base is dropped at the first entry above it
    and only the least table is built.
    """
    best, loc = None, [-1] * t.n  # loc is reused while the bases lose
    for base in range(t.n):
        flat = _renumbered(t, base, best, loc)
        if flat is not None:
            best, loc = flat, [-1] * t.n
    return _table(t, best)
