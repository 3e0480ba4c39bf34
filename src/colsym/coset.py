"""Coset tables: the action of words, re-rooting and canonical forms.

A coset table for a subgroup S of a group G presented on k letters
holds its n * k entries as one row-major tuple: entry i * k + g is the
coset S w_i g that letter g takes coset i to (coset 0 is S itself).  A
complete table is a transitive permutation representation of G on the
cosets (Sims, Computation with Finitely Presented Groups, ch. 5), so a
word acts as one permutation of them (CosetTable.action).  The tables
themselves come from the low-index search (lowindex.py).

The table determines its subgroup, the words that fix coset 0, so the
predicates and transforms here need no generators: the least coset
some words fix (least_fixed_coset), orientation (a 2-colouring of
the coset graph), and the image under a letter permutation.

Re-rooting and canonical forms share one renumbering (_renumbered): a
column-ordered BFS from a base coset, which the canonical form runs
from every base against the least result so far.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError
from .words import REFLECTIONS, Alphabet, Word


@dataclass(frozen=True, init=False)
class CosetTable:
    """Immutable complete coset table over a fixed alphabet: n cosets' entries, row-major."""

    alphabet: Alphabet
    entries: tuple[int, ...]
    n: int = field(init=False)  # found once, from the entries

    def __init__(self, alphabet: Alphabet, entries: tuple[int, ...]):
        n, rest = divmod(len(entries), alphabet.size)
        if rest or not n:
            raise DomainError(f"a table of {len(entries)} entries: none, or not a multiple "
                              f"of the alphabet size {alphabet.size}")
        d = self.__dict__  # as cached_property sets: object.__setattr__ costs twice as much
        d["alphabet"], d["entries"], d["n"] = alphabet, entries, n

    def action(self, w: Word) -> list[int]:
        """The coset each coset reaches by reading w left to right; w's letters are checked."""
        self.alphabet.check_word(w)
        e, k, perm = self.entries, self.alphabet.size, list(range(self.n))
        for g in w:
            column = e[g::k]
            perm = [column[i] for i in perm]
        return perm

    @cached_property
    def _sides(self) -> tuple[int, ...] | None:
        """orientation_sides' bipartition, run once a table (route a asks once a tiling kind)."""
        e, k = self.entries, self.alphabet.size
        side = [-1] * self.n
        side[0] = 0
        stack = [0]
        while stack:
            i = stack.pop()
            s = side[i]
            for j in e[i * k : i * k + k]:
                if side[j] == -1:
                    side[j] = s ^ 1
                    stack.append(j)
                elif side[j] == s:
                    return None
        return tuple(side)


def least_fixed_coset(t: CosetTable, words) -> int | None:
    """The least coset that every one of the given words fixes, or None.

    Coset i is fixed by w exactly when w lies in the subgroup conjugate
    w_i S w_i^-1 attached to coset i, so one is found exactly when some
    conjugate of S contains all the words.  The walk stops at the first.
    Unlike action, it does not check the letters, as every census runs
    it on every class it scans: a letter outside the alphabet reads
    another coset's entry.
    """
    e, k = t.entries, t.alphabet.size
    for i in range(t.n):
        for w in words:
            j = i
            for g in w:
                j = e[j * k + g]
            if j != i:
                break
        else:
            return i
    return None


def orientation_sides(t: CosetTable) -> list[int] | None:
    """Parity of the words reaching each coset, or None if it is not defined.

    The subgroup is orientation-preserving exactly when the coset graph
    is bipartite with every generator edge crossing sides, since each
    reflection letter flips orientation.  Then coset i lies on side 0
    when the words reaching it have even length and on side 1 when odd.
    Only meaningful over the reflection alphabet, where every letter
    reverses orientation.
    """
    a = t.alphabet  # the shared reflection alphabet passes at once
    if a is not REFLECTIONS and any(g != c for c, g in enumerate(a.inv)):
        raise DomainError("orientation test needs the reflection alphabet")
    side = t._sides
    return None if side is None else list(side)  # a fresh list: the cached sides stay as found


def transform_subgroup(t: CosetTable, perm: tuple[int, ...]) -> CosetTable:
    """Coset table of the image of t's subgroup under an involutive letter permutation.

    Letter g acts as t's letter perm[g], which is another transitive
    action when perm respects the inverse pairing and the relators.  Its
    base coset is stabilized by the preimage of the subgroup under perm,
    which is the image when perm is an involution.  The result has t's
    index and base coset but is not standardized.
    """
    e, k = t.entries, t.alphabet.size
    return CosetTable(t.alphabet, tuple(e[i + g] for i in range(0, len(e), k) for g in perm))


def _columns(t: CosetTable) -> list[tuple[int, ...]]:
    """t's entries a letter at a time: entry (i, g) is _columns(t)[g][i]."""
    return [t.entries[g :: t.alphabet.size] for g in range(t.alphabet.size)]


def _renumbered(columns, base: int, bound: list[int] | None, loc: list[int]) -> list[int] | None:
    """A table's entries, row-major, with `base` moved to slot 0; None if above bound.

    The table comes as its _columns.  Cosets are relabelled in first-visit
    order of a column-ordered BFS from base, and each entry is relabelled
    as the BFS reads it.  Given bound, the entries of another renumbering,
    the BFS stops at the first entry above bound's with all earlier entries
    equal, and returns None; once one falls below bound's, it compares no
    more.  loc holds -1 a coset, which a None result leaves as it was.
    """
    order = [base]
    loc[base] = 0
    flat: list[int] = []
    less = bound is None  # decided below bound; compare no more
    i = 0
    while i < len(order):
        o = order[i]
        for column in columns:
            w = column[o]
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
    if len(order) != len(loc):
        raise DomainError("table is not transitive; cannot renumber")
    return flat


def reroot(t: CosetTable, base: int) -> CosetTable:
    """Standardized table of the same action with `base` moved to slot 0.

    The result is the table of the conjugate subgroup w S w^-1 where w
    is any word carrying coset 0 to base.
    """
    if not 0 <= base < t.n:
        raise DomainError(f"coset {base} is not one of the table's {t.n}")
    return CosetTable(t.alphabet, tuple(_renumbered(_columns(t), base, None, [-1] * t.n)))


def canonical_table(t: CosetTable) -> CosetTable:
    """Lexicographically least re-rooting; the class representative.

    Two complete tables have equal canonical forms iff their subgroups
    are conjugate, since re-rooting runs over exactly the conjugates.
    Every base, 0 included, is renumbered with the least re-rooting so
    far as its bound, so a base is dropped at the first entry above it
    and only the least table is built.
    """
    columns, best, loc = _columns(t), None, [-1] * t.n  # loc is reused while the bases lose
    for base in range(t.n):
        flat = _renumbered(columns, base, best, loc)
        if flat is not None:
            best, loc = flat, [-1] * t.n
    return CosetTable(t.alphabet, tuple(best))
