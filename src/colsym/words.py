"""Words over the generator alphabets.

A group element is a plain tuple of letter indices (a ``Word``).  Two
alphabets appear throughout:

* the reflection alphabet ``a, b, c`` where every letter is its own
  inverse, so a word needs no sign flags, and
* a signed rotation alphabet ``x, X, z, Z`` where capital letters are
  the formal inverses of their lowercase partners.

Letter indices double as coset-table column numbers, which is why the
inverse pairing lives on the alphabet rather than on the word.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

Word = tuple[int, ...]

# reflection letters
A, B, C = 0, 1, 2

# rotation letters (x and z generate; X, Z are their inverses)
XGEN, XINV, ZGEN, ZINV = 0, 1, 2, 3


@dataclass(frozen=True)
class Alphabet:
    """Letter names plus the involution pairing letter -> inverse letter."""

    names: tuple[str, ...]
    inv: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.inv):
            raise DomainError("alphabet names and inverse table differ in length")
        if any(self.inv[self.inv[i]] != i for i in range(len(self.inv))):
            raise DomainError("inverse pairing is not an involution")

    @property
    def size(self) -> int:
        return len(self.names)

    def check_word(self, w: Word, what: str = "word") -> None:
        """Raise DomainError unless every letter of w is an int index of this alphabet."""
        if any(type(g) is not int or not 0 <= g < self.size for g in w):
            raise DomainError(f"{what} {w} has letters outside the alphabet {self.names}")

    def inverse_word(self, w: Word) -> Word:
        self.check_word(w)
        inv = self.inv
        return tuple(inv[g] for g in reversed(w))


REFLECTIONS = Alphabet(("a", "b", "c"), (0, 1, 2))
ROTATIONS = Alphabet(("x", "X", "z", "Z"), (1, 0, 3, 2))

