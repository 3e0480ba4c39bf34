"""Matrix models of the triangle reflection groups and tiling patches.

One 3x3 linear model per geometry: the unit sphere in R^3, the upper
sheet of the hyperboloid <v,v> = -1 for the Minkowski form
diag(1,1,-1), and homogeneous coordinates (x, y, 1) for the Euclidean
plane.  In all three the fundamental triangle sits with its pi/p corner
at a fixed base point, one leg along the plane y = 0 (mirror c) and the
hypotenuse side at polar angle pi/p (mirror b); mirror a is the far
side, opposite the pi/p corner.

Words in the reflection letters multiply out to matrices; a patch of
the tiling is grown breadth-first by word length, with matrices
deduplicated by a quantized key so that each group element appears
once no matter how many words spell it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimit
from .presentations import Geometry, classify_geometry
from .words import A, B, C, Word

KEY_QUANTUM = 1e-6
REORTH_EVERY = 8  # matrix multiplications between re-orthogonalizations


def form_matrix(geometry: Geometry) -> np.ndarray:
    if geometry is Geometry.HYPERBOLIC:
        return np.diag([1.0, 1.0, -1.0])
    return np.eye(3)


def reorthogonalize(M: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Project M back onto the isometry group to stop drift."""
    if geometry is Geometry.SPHERICAL:
        u, _, vt = np.linalg.svd(M)
        return u @ vt
    if geometry is Geometry.EUCLIDEAN:
        out = M.copy()
        u, _, vt = np.linalg.svd(M[:2, :2])
        out[:2, :2] = u @ vt
        out[2] = (0.0, 0.0, 1.0)
        return out
    # hyperbolic: Newton steps toward M^T J M = J
    J = form_matrix(geometry)
    out = M
    for _ in range(3):
        E = J @ out.T @ J @ out - np.eye(3)
        if np.abs(E).max() < 1e-15:
            break
        out = out - 0.5 * (out @ E)
    return out


@dataclass(frozen=True, eq=False)
class FundamentalTriangle:
    """Mirrors and corners of the (p, q) right triangle in its model."""

    p: int
    q: int
    geometry: Geometry
    mirrors: tuple[np.ndarray, np.ndarray, np.ndarray]  # reflections a, b, c
    corner_p: np.ndarray  # angle pi/p, centre of a p-gon tile
    corner_right: np.ndarray  # right angle, centre of a Laves tile
    corner_q: np.ndarray  # angle pi/q, centre of a q-gon tile

    @property
    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.corner_p, self.corner_right, self.corner_q)

    def word_matrix(self, w: Word) -> np.ndarray:
        M = np.eye(3)
        for g in w:
            M = M @ self.mirrors[g]
        return M


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
        corner_p = np.array([0.0, 0.0, 1.0])
        corner_right = np.array([1.0, 0.0, 1.0])
        corner_q = np.array([1.0, math.tan(ap), 1.0])
        mc = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])
        c2, s2 = math.cos(2 * ap), math.sin(2 * ap)
        mb = np.array([[c2, s2, 0], [s2, -c2, 0], [0, 0, 1.0]])
        ma = np.array([[-1.0, 0, 2.0], [0, 1.0, 0], [0, 0, 1.0]])
        return FundamentalTriangle(
            p, q, geometry, (ma, mb, mc), corner_p, corner_right, corner_q
        )

    J = form_matrix(geometry)
    leg = math.cos(aq) / math.sin(ap)
    hyp = (math.cos(ap) / math.sin(ap)) * (math.cos(aq) / math.sin(aq))
    if geometry is Geometry.SPHERICAL:
        sl, sh = math.sqrt(1 - leg * leg), math.sqrt(1 - hyp * hyp)
    else:
        sl, sh = math.sqrt(leg * leg - 1), math.sqrt(hyp * hyp - 1)
    corner_p = np.array([0.0, 0.0, 1.0])
    corner_right = np.array([sl, 0.0, leg])
    corner_q = np.array([sh * math.cos(ap), sh * math.sin(ap), hyp])

    nc = np.array([0.0, 1.0, 0.0])
    nb = np.array([math.sin(ap), -math.cos(ap), 0.0])
    na = J @ np.cross(corner_right, corner_q)
    na = na / math.sqrt(float(na @ J @ na))
    interior = corner_p + corner_right + corner_q
    if float(interior @ J @ na) < 0:
        na = -na

    mirrors = (_reflection(na, J), _reflection(nb, J), _reflection(nc, J))
    return FundamentalTriangle(
        p, q, geometry, mirrors, corner_p, corner_right, corner_q
    )


def matrix_key(M: np.ndarray) -> tuple[int, ...]:
    """Quantized entries; equal keys identify equal group elements.

    The quantum is far above the float drift of short products and far
    below the separation of distinct elements at the patch depths used
    here, so rounding collisions do not occur in practice.
    """
    return tuple(int(round(v / KEY_QUANTUM)) for v in M.reshape(-1))


@dataclass(frozen=True)
class Tile:
    word: Word
    matrix: np.ndarray = field(compare=False)


@dataclass(frozen=True, eq=False)
class TrianglePatch:
    """All tiles within a word-length ball of the fundamental triangle."""

    triangle: FundamentalTriangle
    depth: int
    tiles: tuple[Tile, ...]
    index: dict[tuple[int, ...], int]  # matrix_key -> position in tiles

    @property
    def p(self) -> int:
        return self.triangle.p

    @property
    def q(self) -> int:
        return self.triangle.q

    def corners_of(self, i: int) -> tuple[np.ndarray, ...]:
        M = self.tiles[i].matrix
        return tuple(M @ v for v in self.triangle.corners)

    def find(self, M: np.ndarray) -> int | None:
        return self.index.get(matrix_key(M))


def generate_patch(
    p: int, q: int, depth: int, *, tile_budget: int = 200_000
) -> TrianglePatch:
    """Breadth-first ball of reduced words, one tile per group element.

    Words that spell the same isometry (relators other than the free
    cancellations) collapse onto the first, shortest spelling via the
    quantized matrix key.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    tri = fundamental_triangle(p, q)
    geometry = tri.geometry
    mirrors = tri.mirrors
    tiles: list[Tile] = [Tile((), np.eye(3))]
    index = {matrix_key(np.eye(3)): 0}
    frontier = [0]
    for d in range(1, depth + 1):
        new_frontier: list[int] = []
        for i in frontier:
            t = tiles[i]
            last = t.word[-1] if t.word else -1
            for g in (A, B, C):
                if g == last:
                    continue  # the letter would cancel itself
                M = t.matrix @ mirrors[g]
                if d % REORTH_EVERY == 0:
                    M = reorthogonalize(M, geometry)
                key = matrix_key(M)
                if key in index:
                    continue
                if len(tiles) >= tile_budget:
                    raise ResourceLimit(
                        f"tile budget {tile_budget} exceeded at depth {d}"
                    )
                index[key] = len(tiles)
                new_frontier.append(len(tiles))
                tiles.append(Tile(t.word + (g,), M))
        frontier = new_frontier
        if not frontier:
            break  # finite group exhausted before reaching the depth
    return TrianglePatch(tri, depth, tuple(tiles), index)
