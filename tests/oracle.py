"""Reference implementations the test suite checks the package against.

None of this is on the census path.  Each helper recomputes something
the package does another way, sharing as little code with it as
possible:

* enumerate_cosets: Todd-Coxeter coset enumeration from subgroup
  generators, a second way to build coset tables;
* canonical_by_rerooting: the class representative found by building
  every re-rooting, the route canonical_table cuts short;
* transversal_words, schreier_generators, conjugate_in: reading a
  subgroup back off its table;
* oracle_classes: conjugacy classes of subgroups of tiny index by brute
  force over permutation images;
* validate: the invariants of a complete coset table, checked one by
  one;
* colour-permutation, histogram, matrix and word helpers used by the
  property checks;
* free_reduce, apply_generator_map, word_matrix: words reduced, mapped
  by a homomorphism and multiplied out as mirror matrices, letter by
  letter;
* emit_svg_per_triangle: the SVG drawn one triangle at a time, the
  route emit_svg batches into arrays;
* word_str, parse_word, generator_columns, class_counts,
  classes_at_index: small readers of words, alphabets and class lists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from colsym.census import colour_permutation
from colsym.coset import CosetTable, reroot
from colsym.errors import DomainError, InternalError, ResourceLimit
from colsym.geometry import FundamentalTriangle, form_matrix
from colsym.lowindex import ClassList
from colsym.presentations import Geometry, Presentation
from colsym.render import _PROJECTIONS, _TILT, ColouredPatch, _project, palette
from colsym.words import (
    A, B, C, REFLECTIONS, XGEN, XINV, ZGEN, ZINV, Alphabet, Word,
)


def word_str(alphabet: Alphabet, w: Word) -> str:
    return "".join(alphabet.names[g] for g in w) if w else "e"


def parse_word(alphabet: Alphabet, s: str) -> Word:
    """Inverse of word_str; accepts "e" or "" for the identity."""
    if s in ("", "e"):
        return ()
    try:
        return tuple(alphabet.names.index(ch) for ch in s)
    except ValueError:
        raise DomainError(f"letter in {s!r} not in alphabet {alphabet.names}") from None


def free_reduce(w: Word, alphabet: Alphabet = REFLECTIONS) -> Word:
    """Delete adjacent inverse pairs until none remain.

    Over the reflection alphabet this cancels equal neighbours (aa, bb,
    cc); over a signed alphabet it cancels xX, Xx, zZ, Zz.  One stack
    pass is enough: a new cancellation can only appear at the stack top.
    """
    inv = alphabet.inv
    out: list[int] = []
    for g in w:
        if out and out[-1] == inv[g]:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def apply_generator_map(w: Word, gmap: dict[int, Word], alphabet: Alphabet) -> Word:
    """Image of w under a homomorphism given on generator letters, reduced.

    gmap maps each generator column to its image word; inverse columns
    are sent to the inverse of the partner's image.
    """
    inv = alphabet.inv
    out: list[int] = []
    for g in w:
        if g in gmap:
            out.extend(gmap[g])
        else:
            out.extend(alphabet.inverse_word(gmap[inv[g]]))
    return free_reduce(tuple(out), alphabet)


def word_matrix(tri: FundamentalTriangle, w: Word) -> np.ndarray:
    """The product of w's mirror matrices, left to right."""
    M = np.eye(3)
    for g in w:
        M = M @ tri.mirrors[g]
    return M


def generator_columns(alphabet: Alphabet) -> tuple[int, ...]:
    """Columns that stand for generators; an inverse pair counts once."""
    return tuple(i for i in range(alphabet.size) if alphabet.inv[i] >= i)


def class_counts(cl: ClassList) -> dict[int, int]:
    """Number of conjugacy classes per index."""
    out: dict[int, int] = {}
    for t in cl.tables:
        out[t.n] = out.get(t.n, 0) + 1
    return out


def classes_at_index(cl: ClassList, n: int) -> tuple[CosetTable, ...]:
    return tuple(t for t in cl.tables if t.n == n)


def standardize(t: CosetTable) -> CosetTable:
    """Renumber so cosets appear in first-visit scan order from coset 0."""
    return reroot(t, 0)


def canonical_by_rerooting(t: CosetTable) -> CosetTable:
    """Lexicographically least re-rooting, every re-rooting built in full."""
    best = None
    for base in range(t.n):
        cand = reroot(t, base)
        if best is None or cand.rows < best.rows:
            best = cand
    return best


def enumerate_cosets(
    pres: Presentation,
    subgroup_gens: Iterable[Word],
    max_cosets: int | None = None,
) -> CosetTable:
    """Complete standardized coset table of <subgroup_gens> in pres.

    The classic relator-scanning procedure with coincidence handling:
    scan every relator at every coset, define new cosets at scan gaps,
    and merge cosets identified by a completed scan.  max_cosets bounds
    the total number of cosets ever defined, dead ones included, and
    ResourceLimit is raised when it is hit; with no bound given a
    generous default lets runaway enumerations of infinite-index
    subgroups still terminate with an error.
    """
    if max_cosets is None:
        max_cosets = 1_000_000
    if max_cosets < 1:
        raise DomainError("max_cosets must be positive")

    m = pres.alphabet.size
    inv = pres.alphabet.inv

    table: list[list[int]] = [[-1] * m]
    parent = [0]  # union-find; merged cosets point to a smaller index
    n_total = 1  # live + dead cosets ever defined

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def define(alpha: int, x: int) -> None:
        nonlocal n_total
        if n_total >= max_cosets:
            raise ResourceLimit(f"coset budget exhausted (max_cosets={max_cosets})")
        beta = len(table)
        table.append([-1] * m)
        parent.append(beta)
        n_total += 1
        table[alpha][x] = beta
        table[beta][inv[x]] = alpha

    pending: list[int] = []  # dead cosets whose rows still need stripping

    def merge(k: int, l: int) -> None:
        k, l = rep(k), rep(l)
        if k == l:
            return
        if k < l:
            k, l = l, k
        parent[k] = l
        pending.append(k)

    def coincidence(alpha: int, beta: int) -> None:
        merge(alpha, beta)
        while pending:
            gamma = pending.pop()
            row = table[gamma]
            for x in range(m):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][inv[x]] = -1  # drop the back-reference
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] != -1:
                    merge(nu, table[mu][x])
                elif table[nu][inv[x]] != -1:
                    merge(mu, table[nu][inv[x]])
                else:
                    table[mu][x] = nu
                    table[nu][inv[x]] = mu

    def scan_and_fill(alpha: int, w: Word) -> None:
        r = len(w)
        if r == 0:
            return
        f, i = alpha, 0
        while True:
            while i < r and table[f][w[i]] != -1:
                f = table[f][w[i]]
                i += 1
            if i == r:
                if f != alpha:
                    coincidence(f, alpha)
                return
            b, j = alpha, r - 1
            while j >= i and table[b][inv[w[j]]] != -1:
                b = table[b][inv[w[j]]]
                j -= 1
            if j < i:
                # both scans met in the middle on the same position
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                # the gap is a single letter: a forced deduction
                table[f][w[i]] = b
                table[b][inv[w[i]]] = f
                return
            define(f, w[i])

    for w in subgroup_gens:
        scan_and_fill(0, tuple(w))
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for rel in pres.relators:
                scan_and_fill(alpha, rel)
                if parent[alpha] != alpha:
                    break
        alpha += 1

    live = [k for k in range(len(table)) if parent[k] == k]
    renum = {old: new for new, old in enumerate(live)}
    rows = tuple(
        tuple(renum[rep(table[old][x])] for x in range(m)) for old in live
    )
    return standardize(CosetTable(pres.alphabet, rows))


def transversal_words(t: CosetTable) -> tuple[Word, ...]:
    """One word per coset carrying coset 0 there; first-visit choices.

    On a standardized table these are exactly the words the scan order
    discovers, so word i ends at coset i.
    """
    m = t.alphabet.size
    words: dict[int, Word] = {0: ()}
    order = [0]
    i = 0
    while i < len(order):
        o = order[i]
        for c in range(m):
            j = t.rows[o][c]
            if j not in words:
                words[j] = words[o] + (c,)
                order.append(j)
        i += 1
    if len(words) != t.n:
        raise DomainError("table is not transitive")
    return tuple(words[i] for i in range(t.n))


def schreier_generators(t: CosetTable) -> tuple[Word, ...]:
    """Generating words for the subgroup that coset 0 stabilizes.

    For each table edge (i, g) -> j the word r_i g r_j^-1 fixes coset 0;
    the nontrivial ones generate.  Freely reduced, deduplicated, in
    table scan order.
    """
    trans = transversal_words(t)
    alphabet = t.alphabet
    out: list[Word] = []
    seen: set[Word] = set()
    for i in range(t.n):
        for c in range(alphabet.size):
            j = t.rows[i][c]
            w = free_reduce(trans[i] + (c,) + alphabet.inverse_word(trans[j]), alphabet)
            if w and w not in seen:
                seen.add(w)
                out.append(w)
    return tuple(out)


def conjugate_in(s: CosetTable, t: CosetTable) -> bool:
    """Are the subgroups of the two tables conjugate in the big group?

    Conjugates of t's subgroup are the stabilizers of t's cosets, whose
    standardized tables are the re-rootings of t.
    """
    if s.alphabet != t.alphabet or s.n != t.n:
        return False
    ss = standardize(s)
    return any(reroot(t, j).rows == ss.rows for j in range(t.n))


@dataclass(frozen=True)
class OracleCount:
    """Class count at one index from the brute-force permutation oracle."""

    index: int
    count: int
    witnesses: tuple[tuple[int, ...], ...]  # flattened generator images


def oracle_classes(pres: Presentation, index: int) -> OracleCount:
    """Count conjugacy classes of index-`index` subgroups by brute force.

    Enumerates all tuples of permutations of {0..index-1} satisfying the
    relators (involutions where a letter is its own inverse), keeps the
    transitive ones, and counts orbits under simultaneous relabelling.
    Exponential in index; anything past 7 is refused.
    """
    if index < 1:
        raise DomainError("index must be at least 1")
    if index > 7:
        raise DomainError("oracle is exponential; index > 7 refused")
    n = index
    inv = pres.alphabet.inv
    gen_cols = generator_columns(pres.alphabet)
    perms = list(itertools.permutations(range(n)))
    involutions = [p for p in perms if all(p[p[i]] == i for i in range(n))]
    pools = [involutions if inv[g] == g else perms for g in gen_cols]

    # a relator can be checked once every generator it uses is assigned
    stage_relators: list[list[Word]] = [[] for _ in gen_cols]
    for rel in pres.relators:
        need = max(gen_cols.index(g if g in gen_cols else inv[g]) for g in rel)
        stage_relators[need].append(rel)

    def relator_closes(rel: Word, acts: dict[int, tuple[int, ...]]) -> bool:
        for start in range(n):
            i = start
            for g in rel:
                i = acts[g][i]
            if i != start:
                return False
        return True

    found: set[tuple[int, ...]] = set()
    acts: dict[int, tuple[int, ...]] = {}

    def extend(stage: int) -> None:
        if stage == len(gen_cols):
            seen = {0}
            fringe = [0]
            while fringe:
                i = fringe.pop()
                for g in gen_cols:
                    j = acts[g][i]
                    if j not in seen:
                        seen.add(j)
                        fringe.append(j)
            if len(seen) == n:
                found.add(tuple(v for g in gen_cols for v in acts[g]))
            return
        g = gen_cols[stage]
        for perm in pools[stage]:
            acts[g] = perm
            if inv[g] != g:
                inverse = [0] * n
                for i, v in enumerate(perm):
                    inverse[v] = i
                acts[inv[g]] = tuple(inverse)
            if all(relator_closes(r, acts) for r in stage_relators[stage]):
                extend(stage + 1)

    extend(0)

    inverses = []
    for pi in perms:
        ipi = [0] * n
        for i, v in enumerate(pi):
            ipi[v] = i
        inverses.append(tuple(ipi))

    k = len(gen_cols)
    unseen = set(found)
    witnesses: list[tuple[int, ...]] = []
    while unseen:
        root = min(unseen)
        parts = [root[i * n : (i + 1) * n] for i in range(k)]
        orbit = set()
        for pi, ipi in zip(perms, inverses):
            orbit.add(tuple(pi[part[ipi[i]]] for part in parts for i in range(n)))
        if not orbit <= found:
            raise InternalError("oracle orbit escaped the solution set")
        witnesses.append(min(orbit))
        unseen -= orbit
    witnesses.sort()
    return OracleCount(index, len(witnesses), tuple(witnesses))


def oracle_seeded_count(pres: Presentation, res: OracleCount, seeds) -> int:
    """How many of the oracle's classes a search seeded with `seeds` finds.

    A class counts when, for some seed, one point of its witness action
    is fixed by every seed word, and, for an oriented seed, every letter
    joins the two sides of a 2-colouring of the points.
    """
    n = res.index
    inv = pres.alphabet.inv
    gen_cols = generator_columns(pres.alphabet)
    count = 0
    for wit in res.witnesses:
        acts = {g: wit[k * n : (k + 1) * n] for k, g in enumerate(gen_cols)}
        for g in gen_cols:
            acts[inv[g]] = tuple(sorted(range(n), key=acts[g].__getitem__))

        def image(i: int, w: Word) -> int:
            for g in w:
                i = acts[g][i]
            return i

        side = {0: 0}
        fringe = [0]
        two_sided = True
        while fringe:
            i = fringe.pop()
            for perm in acts.values():
                j = perm[i]
                if j not in side:
                    side[j] = side[i] ^ 1
                    fringe.append(j)
                elif side[j] == side[i]:
                    two_sided = False
        count += any(
            (two_sided or not seed.oriented)
            and any(all(image(i, w) == i for w in seed.words) for i in range(n))
            for seed in seeds
        )
    return count


def compose_permutations(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """u after v, matching colour_permutation(t, uv)."""
    return tuple(u[v[i]] for i in range(len(u)))


def permutation_homomorphism_check(t: CosetTable, u: Word, v: Word) -> bool:
    """colour_permutation is a homomorphism: uv acts as (u's perm)(v's perm)."""
    return colour_permutation(t, u + v) == compose_permutations(
        colour_permutation(t, u), colour_permutation(t, v)
    )


def colours_transitive(t: CosetTable) -> bool:
    """Can every colour be carried to every other by some symmetry?

    True for any complete transitive table, so this is a diagnostic for
    corrupted inputs rather than a filter.
    """
    reached = {0}
    stack = [0]
    gens = [colour_permutation(t, (c,)) for c in range(t.alphabet.size)]
    while stack:
        i = stack.pop()
        for g in gens:
            j = g[i]
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return len(reached) == t.n


def colour_histogram(cp: ColouredPatch, complete_only: bool = True) -> dict[int, int]:
    """Merged tiles per colour; by default only fully present tiles."""
    out = {c: 0 for c in range(1, cp.k + 1)}
    for poly in cp.polygons:
        if complete_only and len(poly) != cp.polygon_size:
            continue
        out[cp.colours[poly[0]]] += 1
    return out


def form_residual(M: np.ndarray, geometry: Geometry) -> float:
    """How far M is from preserving the geometry's structure."""
    if geometry is Geometry.EUCLIDEAN:
        L = M[:2, :2]
        r1 = np.abs(L.T @ L - np.eye(2)).max()
        r2 = np.abs(M[2] - np.array([0.0, 0.0, 1.0])).max()
        return float(max(r1, r2))
    J = form_matrix(geometry)
    return float(np.abs(M.T @ J @ M - J).max())


# How the rotation letters spell out as reflection words.
ROTATION_AS_REFLECTIONS: dict[int, Word] = {
    XGEN: (A, B),
    XINV: (B, A),
    ZGEN: (B, C),
    ZINV: (C, B),
}


def rotation_word_as_reflections(w: Word) -> Word:
    """Rewrite a word over x, X, z, Z as a reduced reflection word."""
    out: list[int] = []
    for g in w:
        out.extend(ROTATION_AS_REFLECTIONS[g])
    return free_reduce(tuple(out), REFLECTIONS)


def sign_parity(w: Word) -> int:
    """0 for orientation-preserving reflection words, 1 otherwise.

    Each reflection letter flips orientation, so the parity of the
    letter count is a homomorphism onto Z/2.  Only meaningful for words
    over the reflection alphabet.
    """
    return len(w) & 1


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
                f"relator {word_str(t.alphabet, rel)} does not close at coset {bad}"
            )
            break

    return ValidationReport(not failures, tuple(failures))


def _fmt(v: float) -> str:
    s = f"{v:.5f}"
    return "0.00000" if s == "-0.00000" else s


def _geodesic(
    u: np.ndarray, v: np.ndarray, geometry: Geometry, J: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Points along the geodesic from u to v at the fractions ts of its length."""
    if geometry is Geometry.EUCLIDEAN:
        return np.outer(1 - ts, u) + np.outer(ts, v)
    if geometry is Geometry.SPHERICAL:
        dot = float(np.clip(u @ v, -1.0, 1.0))
        om = math.acos(dot)
        if om < 1e-12:
            return np.outer(1 - ts, u) + np.outer(ts, v)
        return (
            np.outer(np.sin((1 - ts) * om), u) + np.outer(np.sin(ts * om), v)
        ) / math.sin(om)
    dot = float(u @ J @ v)
    d = math.acosh(max(1.0, -dot))
    if d < 1e-12:
        return np.outer(1 - ts, u) + np.outer(ts, v)
    return (
        np.outer(np.sinh((1 - ts) * d), u) + np.outer(np.sinh(ts * d), v)
    ) / math.sinh(d)


def emit_svg_per_triangle(
    cp: ColouredPatch,
    *,
    projection: str = "auto",
    palette_seed: int = 0,
    subdivision: int = 12,
    size: int = 700,
) -> bytes:
    """emit_svg's picture, computed and formatted one triangle at a time.

    Arguments are those of emit_svg and assumed valid.  Each triangle's
    corners are its tile matrix times the fundamental corners; its
    sides are geodesics of subdivision + 1 points, projected and
    formatted once, and kept for the strokes where the triangle across
    lies in another merged tile of cp.polygons or outside the patch.  The
    strokes follow every fill, triangle by triangle in patch order.
    """
    geometry = cp.patch.triangle.geometry
    if projection == "auto":
        projection = _PROJECTIONS[geometry][0]
    patch = cp.patch
    fills = palette(cp.k, palette_seed)
    J = form_matrix(geometry)
    ts = np.linspace(0.0, 1.0, subdivision + 1)
    sides_of = (((0, 1), C), ((1, 2), A), ((2, 0), B))

    def normalized(pt: np.ndarray) -> np.ndarray:
        if geometry is Geometry.SPHERICAL:
            return pt / np.linalg.norm(pt)
        if geometry is Geometry.EUCLIDEAN:
            return pt / pt[2]
        return pt / math.sqrt(max(1e-300, -float(pt @ J @ pt)))

    owner = {i: k for k, poly in enumerate(cp.polygons) for i in poly}
    fill_paths: list[str] = []
    edges: dict[int, list[str]] = {}
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for i, links in enumerate(patch.neighbours):
        M = patch.tiles[i].matrix
        corners = tuple(M @ v for v in patch.triangle.corners)
        if projection == "orthographic" and not (_TILT @ (sum(corners) / 3.0))[2] > 0.0:
            continue  # on the far side of the sphere
        cs = [normalized(c) for c in corners]
        segs = [_geodesic(cs[a_], cs[b_], geometry, J, ts) for (a_, b_), _ in sides_of]
        xy = _project(np.vstack(segs), projection).reshape(3, subdivision + 1, 2)
        ring = xy[:, :-1].reshape(-1, 2)
        lo, hi = np.minimum(lo, ring.min(axis=0)), np.maximum(hi, ring.max(axis=0))
        sides = [[f"{_fmt(x)} {_fmt(y)}" for x, y in side] for side in xy.tolist()]
        d = "M" + "L".join(pt for side in sides for pt in side[:-1]) + "Z"
        fill_paths.append(f'<path d="{d}" fill="{fills[cp.colours[i] - 1]}" stroke="none"/>')
        edges[i] = [
            "M" + "L".join(side)
            for side, (_, g) in zip(sides, sides_of)
            if links[g] < 0 or owner[links[g]] != owner[i]
        ]

    if projection in ("disk", "orthographic"):
        x0 = y0 = -1.05
        span = 2.1
    else:
        if projection == "stereographic":
            lo = np.maximum(lo, -3.0)
            hi = np.minimum(hi, 3.0)
        span = float(max(hi - lo)) * 1.07
        cx, cy = (lo + hi) / 2.0
        x0, y0 = float(cx) - span / 2, float(cy) - span / 2
    stroke = span * 0.003
    stroke_attrs = (
        f'fill="none" stroke="#1a1a1a" stroke-width="{_fmt(stroke)}" stroke-linecap="round"'
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(span)} {_fmt(span)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(span)}" height="{_fmt(span)}" fill="#ffffff"/>',
    ]
    parts += fill_paths
    for i in sorted(edges):
        parts += (f'<path d="{d}" {stroke_attrs}/>' for d in edges[i])
    if projection == "disk":
        parts.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("ascii")
