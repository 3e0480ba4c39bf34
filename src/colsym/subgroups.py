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
from .presentations import apply_generator_map
from .words import Word


def fixed_cosets(t: CosetTable, words) -> frozenset[int]:
    """Cosets fixed by every one of the given words.

    Coset i is fixed by w exactly when w lies in the subgroup conjugate
    w_i S w_i^-1 attached to coset i, so a nonempty result says some
    conjugate of S contains all the words.
    """
    out = frozenset(range(t.n))
    for w in words:
        out = frozenset(i for i in out if t.apply(i, w) == i)
    return out


def orientation_sides(t: CosetTable) -> list[int] | None:
    """Parity of the words reaching each coset, or None if it is not defined.

    The subgroup is orientation-preserving exactly when the coset graph
    is bipartite with every generator edge crossing sides, since each
    reflection letter flips orientation.  Then coset i lies on side 0
    when the words reaching it have even length and on side 1 when odd.
    Only meaningful over the reflection alphabet, where every letter
    reverses orientation.
    """
    if any(t.alphabet.inv[c] != c for c in range(t.alphabet.size)):
        raise DomainError("orientation test needs the reflection alphabet")
    side = [-1] * t.n
    side[0] = 0
    stack = [0]
    while stack:
        i = stack.pop()
        for c in range(t.alphabet.size):
            j = t.rows[i][c]
            if side[j] == -1:
                side[j] = side[i] ^ 1
                stack.append(j)
            elif side[j] == side[i]:
                return None
    return side


def is_orientation_subgroup(t: CosetTable) -> bool:
    """Does the subgroup consist of orientation-preserving words only?"""
    return orientation_sides(t) is not None


def transform_subgroup(t: CosetTable, gmap: dict[int, Word]) -> CosetTable:
    """Coset table of the image of t's subgroup under an involutive automorphism.

    gmap sends generator letters to words (see apply_generator_map).
    Precomposing t's action with the automorphism s (letter g takes
    coset i to t.apply(i, s(g))) gives another transitive action.  Its
    base coset is stabilized by the preimage of the subgroup under s,
    which is the image when s is an involution.  The result has t's
    index and base coset but is not standardized.
    """
    alphabet = t.alphabet
    images = [apply_generator_map((g,), gmap, alphabet) for g in range(alphabet.size)]
    rows = tuple(tuple(t.apply(i, w) for w in images) for i in range(t.n))
    return CosetTable(alphabet, rows)


@dataclass(frozen=True)
class SubgroupRecord:
    """A census representative: a table whose base coset the tile stabilizer fixes."""

    table: CosetTable
