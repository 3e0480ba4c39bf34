"""Coset tables: re-rooting and canonical forms.

A coset table for a subgroup S of a group G presented on k letters is
an n x k array: rows are cosets (row 0 is S itself), columns follow the
alphabet, and entry (i, g) is the coset S w_i g.  A complete table is a
transitive permutation representation of G on the cosets.  The tables
themselves come from the low-index search (lowindex.py).
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


def reroot(t: CosetTable, base: int) -> CosetTable:
    """Standardized table of the same action with `base` moved to slot 0.

    Cosets are relabelled in first-visit order of a column-ordered BFS
    from base.  The result is the table of the conjugate subgroup
    w S w^-1 where w is any word carrying coset 0 to base.
    """
    rows = t.rows
    order = [base]
    loc = [-1] * t.n
    loc[base] = 0
    i = 0
    while i < len(order):
        for w in rows[order[i]]:
            if loc[w] < 0:
                loc[w] = len(order)
                order.append(w)
        i += 1
    if len(order) != t.n:
        raise DomainError("table is not transitive; cannot renumber")
    return CosetTable(t.alphabet, tuple(tuple([loc[w] for w in rows[o]]) for o in order))


def canonical_table(t: CosetTable) -> CosetTable:
    """Lexicographically least re-rooting; the class representative.

    Two complete tables have equal canonical forms iff their subgroups
    are conjugate, since re-rooting runs over exactly the conjugates.
    Every base, 0 included, is renumbered in reroot's order one entry at
    a time and dropped at the first entry above the least re-rooting so
    far; only the winner's rows are built.
    """
    m = t.alphabet.size
    rows = t.rows
    best: list[int] | None = None
    loc = [-1] * t.n
    for base in range(t.n):
        order = [base]
        loc[base] = 0
        flat: list[int] = []
        less = best is None  # decided below best; compare no more
        i = 0
        while i < len(order):
            row = rows[order[i]]
            for c in range(m):
                w = row[c]
                e = loc[w]
                if e < 0:
                    e = loc[w] = len(order)
                    order.append(w)
                if not less:
                    b = best[len(flat)]
                    if e > b:
                        break
                    less = e < b
                flat.append(e)
            else:
                i += 1
                continue
            break
        for o in order:
            loc[o] = -1
        if best is None and len(order) != t.n:
            raise DomainError("table is not transitive; cannot renumber")
        if less:
            best = flat
    return CosetTable(t.alphabet, tuple(tuple(best[i : i + m]) for i in range(0, len(best), m)))
