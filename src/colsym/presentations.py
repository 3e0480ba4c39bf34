"""Reflection and rotation group presentations for the (p, q) tilings.

The full symmetry group of the tiling by p-gons meeting q at a vertex is
generated by the three reflections in the sides of a right triangle with
angles pi/p and pi/q.  Its orientation-preserving half is generated by
the two rotations x = ab (order q, about the pi/q corner) and z = bc
(order p, about the pi/p corner).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, check_count
from .words import (
    A,
    B,
    C,
    XGEN,
    XINV,
    ZGEN,
    ZINV,
    Alphabet,
    REFLECTIONS,
    ROTATIONS,
    Word,
)


class Geometry(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Presentation:
    """A finite presentation over one of the two alphabets.

    Relators are written with positive letters only.  The involution
    relators aa, bb, cc are kept in the relator list even though they
    are not freely reduced words; they carry the torsion that the
    alphabet's inverse pairing alone does not impose on the group.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    name: str

    def __post_init__(self):
        for r in self.relators:
            if not r:
                raise DomainError("empty relator")
            self.alphabet.check_word(r, "relator")


def _check_pq(p: int, q: int) -> None:
    check_count(p, "p", 3)
    check_count(q, "q", 3)


def classify_geometry(p: int, q: int) -> Geometry:
    """Sign of 1/p + 1/q - 1/2 decides the geometry; exact arithmetic."""
    _check_pq(p, q)
    s = 4 - (p - 2) * (q - 2)  # 2pq (1/p + 1/q - 1/2), in integers
    if s > 0:
        return Geometry.SPHERICAL
    if s == 0:
        return Geometry.EUCLIDEAN
    return Geometry.HYPERBOLIC


def triangle_group(p: int, q: int) -> Presentation:
    """Reflection group <a,b,c | a^2, b^2, c^2, (ab)^q, (ac)^2, (bc)^p>.

    a is the reflection in the triangle side opposite the pi/p corner,
    b opposite the right-angled corner, c opposite the pi/q corner; so
    ab fixes the pi/q corner and bc fixes the pi/p corner.
    """
    _check_pq(p, q)
    relators = (
        (A, A),
        (B, B),
        (C, C),
        (A, B) * q,
        (A, C) * 2,
        (B, C) * p,
    )
    return Presentation(REFLECTIONS, relators, f"triangle-{p}-{q}")


# the outer automorphism of every von Dyck group induced by conjugating
# with the reflection b, as the letter each letter goes to: b(ab)b = ba
# and b(bc)b = cb, so x <-> X and z <-> Z; applied to a subgroup it tells
# whether two rotation-conjugacy classes fuse under the full reflection group
MIRROR_TWIST: tuple[int, ...] = (XINV, XGEN, ZINV, ZGEN)


def von_dyck_group(p: int, q: int) -> Presentation:
    """Rotation group <x,z | x^q, z^p, (xz)^2>; MIRROR_TWIST is its mirror twist."""
    _check_pq(p, q)
    relators = (
        (XGEN,) * q,
        (ZGEN,) * p,
        (XGEN, ZGEN) * 2,
    )
    return Presentation(ROTATIONS, relators, f"vondyck-{p}-{q}")
