"""Coset tables: re-rooting, canonical forms and validation.

A coset table for a subgroup S of a group G presented on k letters is
an n x k array: rows are cosets (row 0 is S itself), columns follow the
alphabet, and entry (i, g) is the coset S w_i g.  A complete table is a
transitive permutation representation of G on the cosets.  The tables
themselves come from the low-index search (lowindex.py).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .presentations import Presentation
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


def _renumber(t: CosetTable, base: int) -> CosetTable:
    """Relabel cosets in first-visit order of a column-ordered BFS from base."""
    m = t.alphabet.size
    rows = t.rows
    order = [base]
    loc = {base: 0}
    i = 0
    while i < len(order):
        row = rows[order[i]]
        for c in range(m):
            w = row[c]
            if w not in loc:
                loc[w] = len(order)
                order.append(w)
        i += 1
    if len(order) != t.n:
        raise DomainError("table is not transitive; cannot renumber")
    new_rows = tuple(tuple(loc[rows[o][c]] for c in range(m)) for o in order)
    return CosetTable(t.alphabet, new_rows)


def reroot(t: CosetTable, base: int) -> CosetTable:
    """Standardized table of the same action with `base` moved to slot 0.

    The result is the table of the conjugate subgroup w S w^-1 where w
    is any word carrying coset 0 to base.
    """
    return _renumber(t, base)


def canonical_table(t: CosetTable) -> CosetTable:
    """Lexicographically least re-rooting; the class representative.

    Two complete tables have equal canonical forms iff their subgroups
    are conjugate, since re-rooting runs over exactly the conjugates.
    """
    best = None
    for base in range(t.n):
        cand = _renumber(t, base)
        if best is None or cand.rows < best.rows:
            best = cand
    return best


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def validate(t: CosetTable, pres: Presentation) -> ValidationReport:
    """Check totality, inverse consistency, transitivity, relator closure."""
    m = t.alphabet.size
    inv = t.alphabet.inv
    n = t.n
    failures: list[str] = []

    for i, row in enumerate(t.rows):
        if len(row) != m:
            failures.append(f"row {i} has {len(row)} entries, expected {m}")
            return ValidationReport(False, tuple(failures))
        for c in range(m):
            v = row[c]
            if not (0 <= v < n):
                failures.append(f"entry ({i},{t.alphabet.names[c]}) = {v} out of range")
                return ValidationReport(False, tuple(failures))

    for i in range(n):
        for c in range(m):
            j = t.rows[i][c]
            if t.rows[j][inv[c]] != i:
                failures.append(
                    f"inverse mismatch: ({i},{t.alphabet.names[c]}) = {j} but "
                    f"({j},{t.alphabet.names[inv[c]]}) = {t.rows[j][inv[c]]}"
                )
                break
        if failures:
            break

    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for c in range(m):
            j = t.rows[i][c]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        failures.append(f"not transitive: {len(seen)} of {n} cosets reachable from 0")

    for rel in pres.relators:
        bad = next((i for i in range(n) if t.apply(i, rel) != i), None)
        if bad is not None:
            failures.append(
                f"relator {t.alphabet.word_str(rel)} does not close at coset {bad}"
            )
            break

    return ValidationReport(not failures, tuple(failures))
