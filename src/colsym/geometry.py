"""Matrix models of the triangle reflection groups and tiling patches.

One 3x3 linear model per geometry: the unit sphere in R^3, the upper
sheet of the hyperboloid <v,v> = -1 for the Minkowski form
diag(1,1,-1), and homogeneous coordinates (x, y, 1) for the Euclidean
plane.  In all three the fundamental triangle sits with its pi/p corner
at a fixed base point, one leg along the plane y = 0 (mirror c) and the
hypotenuse side at polar angle pi/p (mirror b); mirror a is the far
side, opposite the pi/p corner.

A patch is an (n, 3) array of the tiles across each tile's three
mirrors, grown a level (a word length) at a time by array gathers over
the level; the Coxeter relations decide exactly which words meet, and
matrices, made a level at a time too, only place the drawing.
numpy is imported inside the functions, so a census never loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import DomainError, ResourceLimit, check_count
from .presentations import Geometry, classify_geometry
from .words import A, B, C, REFLECTIONS, Word

# the most triangles a patch may hold; a deeper patch is a ResourceLimit
TILE_BUDGET = 200_000


def form_matrix(geometry: Geometry) -> np.ndarray:
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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

    mirrors = np.array([_reflection(na, J), _reflection(nb, J), _reflection(nc, J)])
    return FundamentalTriangle(p, q, geometry, mirrors, corners)


@dataclass(frozen=True, eq=False)
class TrianglePatch:
    """All tiles within a word-length ball of the fundamental triangle.

    Tiles are numbered by word length: level d, the tiles of words of d
    letters, is tiles ends[d] to ends[d + 1] - 1 (empty once a finite
    group runs out), n = ends[-1] in all.  last[i] is tile i's last letter
    (-1 for the centre), and matrices[i] the product of its mirrors, left
    to right, which maps the fundamental triangle onto it.  neighbours[i,
    g] is the tile i.g across mirror g, or -1 outside the patch.  A link
    joins adjacent levels, so 0 <= neighbours[i, g] < i exactly when g
    steps inward.  The reduced words, tiles, are built on first read.
    """

    triangle: FundamentalTriangle
    depth: int
    matrices: np.ndarray  # (n, 3, 3)
    neighbours: np.ndarray  # (n, 3) int
    last: np.ndarray  # (n,) int
    ends: tuple[int, ...]  # depth + 2 level boundaries, from 0 to n

    @property
    def p(self) -> int:
        return self.triangle.p

    @property
    def q(self) -> int:
        return self.triangle.q

    @property
    def parents(self) -> np.ndarray:
        """neighbours[i, last[i]], tile i's word less its last letter (i >= 1)."""
        import numpy as np
        return self.neighbours[np.arange(len(self.last)), self.last]

    @cached_property
    def tiles(self) -> tuple[Word, ...]:
        """tiles[i] is tile i's reduced word, its parent's and its last letter."""
        words, parent, last = [()], self.parents.tolist(), self.last.tolist()
        for a, b in zip(self.ends[1:], self.ends[2:]):
            words += [words[x] + (g,) for x, g in zip(parent[a:b], last[a:b])]
        return tuple(words)

    def walk(self, i: int, w: Word) -> int:
        """The tile i.w, or -1 once the walk leaves the patch."""
        if not 0 <= i < self.ends[-1]:
            raise DomainError(f"tile {i} is not one of the patch's {self.ends[-1]}")
        REFLECTIONS.check_word(w)
        for g in w:
            if i < 0:
                break
            i = int(self.neighbours[i, g])
        return i

    def image(self, w: Word) -> np.ndarray:
        """The tile w.x for each tile x, or -1 where it is not found.

        A tile x = parent.g, with g its last letter, has w.x = (w.parent).g,
        and parents lie one level nearer the centre, so a level at a time
        from w.e = walk(0, w) maps x wherever the images of its ancestors
        stay in the patch.  That covers every tile within depth - len(w)
        of the centre; w longer than the depth is an error.
        """
        import numpy as np
        if len(w) > self.depth:
            raise DomainError(
                f"a word of {len(w)} letters is longer than the patch depth {self.depth}"
            )
        nbrs, last, parent = self.neighbours, self.last, self.parents
        image = np.empty(len(last), np.intp)
        image[0] = self.walk(0, w)
        for a, b in zip(self.ends[1:], self.ends[2:]):
            y = image[parent[a:b]]
            image[a:b] = np.where(y >= 0, nbrs[y, last[a:b]], -1)
        return image


def generate_patch(p: int, q: int, depth: int) -> TrianglePatch:
    """Breadth-first ball of reduced words, one tile per group element.

    A level at a time: each tile i of the outer level and mirror g with no
    link yet (an ascent) gives a candidate u = i.g.  Mirror h != g is a
    descent of u exactly when the walk from i by h, g, h, ... steps
    inward m(g, h) - 1 times; going on alternating for as many steps
    outward goes round the 2m-gon to u.h.  u is made by its candidate
    with the least tile i, the one a tile-by-tile breadth-first search
    meets first, so the numbering is that search's, and it is linked
    both ways to every tile one step inward.  Its matrix is its parent's
    times its last mirror, one stacked product per level: the product of
    its word's mirrors, left to right.
    """
    import numpy as np
    check_count(depth, "depth", 0)
    tri = fundamental_triangle(p, q)
    orders = ((1, q, 2), (q, 1, p), (2, p, 1))  # m(g, h) of the Coxeter group
    nbrs = np.full((1, 3), -1)
    lasts = [np.full(1, -1)]
    mats = [np.eye(3)[None]]  # one stacked product per level
    ends = [0, 1]
    for d in range(1, depth + 1):
        a, b = ends[-2], ends[-1]
        i, g = np.nonzero(nbrs[a:b] < 0)  # the ascents, in (i, g) order
        i += a
        down = np.full((len(i), 3), -1)  # each candidate u's tiles u.h one step inward
        down[np.arange(len(i)), g] = i
        for s, h in permutations((A, B, C), 2):
            m, k = orders[s][h], np.flatnonzero(g == s)
            cur = i[k]
            for step in range(2 * m - 2):
                if not len(k):  # no candidate left, or none with last letter s
                    break
                nxt = nbrs[cur, h if step % 2 == 0 else s]
                if step < m - 1:  # keep the walks still stepping inward
                    keep = (0 <= nxt) & (nxt < cur)
                    k, nxt = k[keep], nxt[keep]
                cur = nxt
            down[k, h] = cur
        made = ((down < 0) | (down >= i[:, None])).all(axis=1)
        new = down[made]
        if b + len(new) > TILE_BUDGET:
            raise ResourceLimit(f"tile budget {TILE_BUDGET} exceeded at depth {d}")
        u, h = np.nonzero(new >= 0)
        nbrs = np.concatenate([nbrs, new])
        nbrs[new[u, h], h] = u + b
        up, last = i[made], g[made]
        lasts.append(last)
        mats.append(mats[-1][up - a] @ tri.mirrors[last])
        ends.append(len(nbrs))
    return TrianglePatch(tri, depth, np.concatenate(mats), nbrs, np.concatenate(lasts),
                         tuple(ends))
