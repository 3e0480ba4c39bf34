"""Predicates and transforms on subgroups given by their coset tables.

A complete coset table determines its subgroup: the words that fix coset
0.  Membership of a specific word is one table walk, orientation is a
2-colouring of the coset graph, and an automorphism acts on the table
by precomposition, so none of these needs the subgroup's generators.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coset import CosetTable
from .errors import DomainError
from .words import Word


def fixed_cosets(t: CosetTable, words) -> frozenset[int]:
    """Cosets fixed by every one of the given words.

    Coset i is fixed by w exactly when w lies in the subgroup conjugate
    w_i S w_i^-1 attached to coset i, so a nonempty result says some
    conjugate of S contains all the words.
    """
    words = tuple(words)  # read once per coset
    rows = t.rows
    out = []
    for i in range(t.n):
        for w in words:
            j = i
            for g in w:
                j = rows[j][g]
            if j != i:
                break
        else:
            out.append(i)
    return frozenset(out)


def orientation_sides(t: CosetTable) -> list[int] | None:
    """Parity of the words reaching each coset, or None if it is not defined.

    The subgroup is orientation-preserving exactly when the coset graph
    is bipartite with every generator edge crossing sides, since each
    reflection letter flips orientation.  Then coset i lies on side 0
    when the words reaching it have even length and on side 1 when odd.
    Only meaningful over the reflection alphabet, where every letter
    reverses orientation.
    """
    if any(g != c for c, g in enumerate(t.alphabet.inv)):
        raise DomainError("orientation test needs the reflection alphabet")
    rows = t.rows
    side = [-1] * t.n
    side[0] = 0
    stack = [0]
    while stack:
        i = stack.pop()
        s = side[i]
        for j in rows[i]:
            if side[j] == -1:
                side[j] = s ^ 1
                stack.append(j)
            elif side[j] == s:
                return None
    return side


def transform_subgroup(t: CosetTable, gmap: dict[int, Word]) -> CosetTable:
    """Coset table of the image of t's subgroup under an involutive automorphism.

    gmap sends generator letters to words; an inverse letter goes to the
    inverse of its partner's image.  Precomposing t's action with the
    automorphism s (letter g takes coset i to t.apply(i, s(g))) gives
    another transitive action.  Its base coset is stabilized by the
    preimage of the subgroup under s, which is the image when s is an
    involution.  The result has t's index and base coset but is not
    standardized.
    """
    alphabet = t.alphabet
    inv = alphabet.inv
    images = [gmap[g] if g in gmap else alphabet.inverse_word(gmap[inv[g]])
              for g in range(alphabet.size)]
    rows = t.rows
    out = []
    for i in range(t.n):
        row = []
        for w in images:
            j = i
            for g in w:
                j = rows[j][g]
            row.append(j)
        out.append(tuple(row))
    return CosetTable(alphabet, tuple(out))


@dataclass(frozen=True)
class SubgroupRecord:
    """A census representative: a table whose base coset the tile stabilizer fixes."""

    table: CosetTable
