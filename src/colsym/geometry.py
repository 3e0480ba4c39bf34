"""Matrix models of the triangle reflection groups and tiling patches.

One 3x3 linear model per geometry: the unit sphere in R^3, the upper
sheet of the hyperboloid <v,v> = -1 for the Minkowski form
diag(1,1,-1), and homogeneous coordinates (x, y, 1) for the Euclidean
plane.  In all three the fundamental triangle sits with its pi/p corner
at a fixed base point, one leg along the plane y = 0 (mirror c) and the
hypotenuse side at polar angle pi/p (mirror b); mirror a is the far
side, opposite the pi/p corner.

A patch is a table of the tiles across each tile's three mirrors, grown
breadth-first by word length; the Coxeter relations decide exactly which
words meet, and matrices, made a level at a time, only place the drawing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimit
from .presentations import Geometry, classify_geometry
from .words import A, B, C, Word

# the most triangles a patch may hold; a deeper patch is a ResourceLimit
TILE_BUDGET = 200_000


def form_matrix(geometry: Geometry) -> np.ndarray:
    if geometry is Geometry.HYPERBOLIC:
        return np.diag([1.0, 1.0, -1.0])
    return np.eye(3)


@dataclass(frozen=True, eq=False)
class FundamentalTriangle:
    """Mirrors and corners of the (p, q) right triangle in its model."""

    p: int
    q: int
    geometry: Geometry
    mirrors: np.ndarray  # (3, 3, 3): the reflections a, b, c
    # (3, 3), one corner per row: the pi/p corner (centre of a p-gon tile),
    # the right angle (centre of a Laves tile), the pi/q corner (a q-gon's)
    corners: np.ndarray


def _reflection(n: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Reflection in the plane J-orthogonal to the unit normal n."""
    return np.eye(3) - 2.0 * np.outer(n, J @ n)


def fundamental_triangle(p: int, q: int) -> FundamentalTriangle:
    """The right triangle with angles pi/p, pi/q realized in its geometry.

    The side lengths come from the right-triangle relations: with the
    pi/p corner at the base point, the leg to the right-angle corner
    has cos (resp. cosh) equal to cos(pi/q)/sin(pi/p), and the
    hypotenuse to the pi/q corner has cot(pi/p)cot(pi/q).  In the
    Euclidean case only the shape matters and the leg is normalized to
    length 1.
    """
    geometry = classify_geometry(p, q)
    ap, aq = math.pi / p, math.pi / q

    if geometry is Geometry.EUCLIDEAN:
        corners = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, math.tan(ap), 1.0]])
        c2, s2 = math.cos(2 * ap), math.sin(2 * ap)
        mirrors = np.array([
            [[-1.0, 0, 2.0], [0, 1.0, 0], [0, 0, 1.0]],
            [[c2, s2, 0], [s2, -c2, 0], [0, 0, 1.0]],
            [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]],
        ])
        return FundamentalTriangle(p, q, geometry, mirrors, corners)

    J = form_matrix(geometry)
    leg = math.cos(aq) / math.sin(ap)
    hyp = (math.cos(ap) / math.sin(ap)) * (math.cos(aq) / math.sin(aq))
    if geometry is Geometry.SPHERICAL:
        sl, sh = math.sqrt(1 - leg * leg), math.sqrt(1 - hyp * hyp)
    else:
        sl, sh = math.sqrt(leg * leg - 1), math.sqrt(hyp * hyp - 1)
    corners = np.array(
        [[0.0, 0.0, 1.0], [sl, 0.0, leg], [sh * math.cos(ap), sh * math.sin(ap), hyp]]
    )

    nc = np.array([0.0, 1.0, 0.0])
    nb = np.array([math.sin(ap), -math.cos(ap), 0.0])
    na = J @ np.cross(corners[1], corners[2])
    na = na / math.sqrt(float(na @ J @ na))
    interior = corners.sum(axis=0)
    if float(interior @ J @ na) < 0:
        na = -na

    mirrors = np.array([_reflection(na, J), _reflection(nb, J), _reflection(nc, J)])
    return FundamentalTriangle(p, q, geometry, mirrors, corners)


@dataclass(frozen=True, eq=False)
class TrianglePatch:
    """All tiles within a word-length ball of the fundamental triangle.

    tiles[i] is tile i's reduced word, and matrices[i] the product of
    its mirrors, left to right, which maps the fundamental triangle onto
    it.  neighbours[i][g] is the tile i.g across mirror g, or -1 outside
    the patch.  Tiles are numbered by word length and a link joins
    adjacent lengths, so 0 <= neighbours[i][g] < i exactly when g steps
    inward.
    """

    triangle: FundamentalTriangle
    depth: int
    tiles: tuple[Word, ...]
    matrices: np.ndarray  # (len(tiles), 3, 3)
    neighbours: tuple[tuple[int, int, int], ...]

    @property
    def p(self) -> int:
        return self.triangle.p

    @property
    def q(self) -> int:
        return self.triangle.q

    def walk(self, i: int, w: Word) -> int:
        """The tile i.w, or -1 once the walk leaves the patch."""
        for g in w:
            if i < 0:
                break
            i = self.neighbours[i][g]
        return i

    def image(self, w: Word) -> list[int]:
        """The tile w.x for each tile x, or -1 where it is not found.

        A tile x = parent.g, with g the last letter of its word, has
        w.x = (w.parent).g, and parents come first in tile order, so one
        pass from w.e = walk(0, w) maps x wherever the images of its
        ancestors stay in the patch.  That covers every tile within
        depth - len(w) of the centre; w longer than the depth is an error.
        """
        if len(w) > self.depth:
            raise DomainError(
                f"a word of {len(w)} letters is longer than the patch depth {self.depth}"
            )
        nbrs = self.neighbours
        image = [self.walk(0, w)]
        for word, links in zip(self.tiles[1:], nbrs[1:]):
            g = word[-1]
            y = image[links[g]]
            image.append(nbrs[y][g] if y >= 0 else -1)
        return image


def _link_descents(nbrs: list[list[int]], i: int, g: int, orders) -> None:
    """Link the new tile u = i.g to its other inward neighbours.

    Mirror h is a descent of u exactly when the walk from i by h, g, h,
    ... steps inward m(g,h) - 1 times; going on alternating for as many
    steps outward goes round the 2m-gon to u.h.
    """
    u = nbrs[i][g]
    for h in (A, B, C):
        if h == g:
            continue
        m = orders[g][h]
        cur, s = i, h
        for step in range(2 * m - 2):
            nxt = nbrs[cur][s]
            if step < m - 1 and not 0 <= nxt < cur:
                break  # h is not a descent of u
            cur, s = nxt, g if s == h else h
        else:
            nbrs[u][h] = cur
            nbrs[cur][h] = u


def generate_patch(p: int, q: int, depth: int) -> TrianglePatch:
    """Breadth-first ball of reduced words, one tile per group element.

    Each new tile is linked at once to every tile one step inward, so a
    link already set leads inward or to a tile already made.  Then the
    matrices are made a level at a time, each tile's its parent's times
    its last mirror: the product of its word's mirrors, left to right.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    tri = fundamental_triangle(p, q)
    orders = ((1, q, 2), (q, 1, p), (2, p, 1))  # m(g, h) of the Coxeter group
    words: list[Word] = [()]
    steps = [(0, -1)]  # each tile's parent and last letter; the centre has none
    nbrs: list[list[int]] = [[-1, -1, -1]]
    ends = [0, 1]  # level d is tiles ends[d] to ends[d + 1] - 1, empty once a finite group ends
    for d in range(1, depth + 1):
        for i in range(ends[-2], ends[-1]):
            for g in (A, B, C):
                if nbrs[i][g] >= 0:
                    continue  # i.g is nearer the centre or already made
                if len(words) >= TILE_BUDGET:
                    raise ResourceLimit(f"tile budget {TILE_BUDGET} exceeded at depth {d}")
                u = len(words)
                words.append(words[i] + (g,))
                steps.append((i, g))
                nbrs.append([-1, -1, -1])
                nbrs[i][g] = u
                nbrs[u][g] = i
                _link_descents(nbrs, i, g, orders)
        ends.append(len(words))
    parent, last = np.array(steps).T
    mats = np.tile(np.eye(3), (len(words), 1, 1))
    for a, b in zip(ends[1:], ends[2:]):  # one stacked product per level
        mats[a:b] = mats[parent[a:b]] @ tri.mirrors[last[a:b]]
    return TrianglePatch(tri, depth, tuple(words), mats, tuple(map(tuple, nbrs)))
