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
* colours_by_words: each triangle's colour read off the table along
  its reversed word, the route colour_patch replaces by a recurrence;
* random_words: random symmetries of a patch, the sample verify drew
  before it checked the generators on every triangle;
* merged_tiles_per_triangle: merged tiles found one triangle at a
  time, the route colour_patch takes a level at a time;
* patches_per_triangle, image_per_triangle: patches grown and mapped
  one triangle at a time, the routes generate_patch and
  TrianglePatch.image take a level at a time;
* colour-permutation, histogram, matrix and word helpers used by the
  property checks;
* free_reduce, apply_generator_map, word_matrix: words reduced, mapped
  by a homomorphism and multiplied out as mirror matrices, letter by
  letter;
* full_scope_via_rotations, twist_on_cosets: the full-scope classes of
  a tiling read off the rotation group's classes, with no reflection
  search;
* colouring_classes_by_walks, COLOURING_SPECIFICATION: the colouring
  classes of a reflection group from reflection-group walks alone, with
  no von Dyck lift, and the six ways a class colours a tiling;
* hom_counts, subgroup_counts, subgroups_in_classes: the number of
  subgroups of each index of a von Dyck group, from the characters of
  S_n with no search, and the same number read off a class list;
* euclidean_counts: the census of the (4^4) and (6^3) tilings in closed
  form, from the ideals of Z[i] and Z[w];
* emit_svg_per_triangle: the SVG drawn one triangle at a time, the
  route emit_svg batches into arrays;
* word_str, parse_word, generator_columns, class_counts,
  classes_at_index: small readers of words, alphabets and class lists.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from colsym.census import TILE_MIRRORS, Scope, TilingKind, colour_permutation
from colsym.coset import CosetTable, canonical_table, reroot
from colsym.errors import DomainError, InternalError, ResourceLimit
from colsym.geometry import (
    FundamentalTriangle, TrianglePatch, form_matrix, fundamental_triangle,
)
from colsym.lowindex import ClassList, low_index_classes
from colsym.presentations import Geometry, Presentation, triangle_group, von_dyck_group
from colsym.render import (
    _PROJECTIONS, _TILT, ColouredPatch, _coset_colours, _project, palette
)
from colsym.subgroups import orientation_sides
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


# The six ways a class of the reflection group colours a tiling, as
# (words, oriented): each tiling's two tile mirrors (full scope), and each
# tile rotation in an orientation subgroup (rotation scope).
COLOURING_SPECIFICATION: tuple[tuple[tuple[Word, ...], bool], ...] = tuple(
    (((r1,), (r2,)), False) for r1, r2 in TILE_MIRRORS.values()
) + tuple((((r1, r2),), True) for r1, r2 in TILE_MIRRORS.values())


def oracle_seeded_count(pres: Presentation, res: OracleCount, spec) -> int:
    """How many of the oracle's classes meet one of `spec`'s (words, oriented).

    A class counts when, for some entry, one point of its witness action
    is fixed by every word, and, where oriented, every letter joins the
    two sides of a 2-colouring of the points.
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
            (two_sided or not oriented)
            and any(all(image(i, w) == i for w in words) for i in range(n))
            for words, oriented in spec
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


def colours_by_words(
    patch: TrianglePatch, table: CosetTable, kind: TilingKind, scope: Scope
) -> tuple[int, ...]:
    """Each triangle's colour, from the coset its reversed word reaches.

    The colour of triangle f(F) is the coset of f^-1.  In rotation scope
    an odd word reaches a coset with no colour, and the stabilizer mirror
    r2 completes it to the even coset of the same merged tile.
    """
    r2 = TILE_MIRRORS[kind][1]
    colour_of = _coset_colours(table, scope)
    colours = []
    for word in patch.tiles:
        iw = table.alphabet.inverse_word(word)
        cos = table.apply(0, iw)
        if not colour_of[cos]:
            cos = table.apply(0, (r2,) + iw)
        colours.append(colour_of[cos])
    return tuple(colours)


def random_words(rng: random.Random, scope: Scope, depth: int, n: int) -> list[Word]:
    """n random words of 1 to min(12, depth) letters, no letter twice in a row.

    Only even words are colour symmetries in rotation scope, so there
    every length is even.
    """
    step = 2 if scope is Scope.ROTATION else 1
    words = []
    for _ in range(n):
        w: list[int] = []
        for _ in range(step * rng.randint(1, min(12, depth) // step)):
            w.append(rng.choice([g for g in (A, B, C) if not w or g != w[-1]]))
        words.append(tuple(w))
    return words


@dataclass(frozen=True)
class SequentialPatch:
    """A patch as the tile-by-tile breadth-first search builds it."""

    tiles: tuple[Word, ...]
    neighbours: list[list[int]]
    matrices: np.ndarray
    ends: list[int]  # level d is tiles ends[d] to ends[d + 1] - 1
    steps: list[tuple[int, int]]  # each tile's parent and last letter, but the centre's


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


def patches_per_triangle(p: int, q: int, depth: int) -> Iterator[SequentialPatch]:
    """The patches of depth 0 to depth, grown one tile at a time.

    The route generate_patch takes a level at a time: each tile in turn,
    and each of its mirrors with no link yet, makes a new tile, linked at
    once to every tile one step inward, and its matrix, its parent's
    times its last mirror.  The patch of each depth is yielded as soon as
    its last level is made, a copy of the search's state.
    """
    tri = fundamental_triangle(p, q)
    orders = ((1, q, 2), (q, 1, p), (2, p, 1))
    words: list[Word] = [()]
    nbrs: list[list[int]] = [[-1, -1, -1]]
    mats = [np.eye(3)]
    steps: list[tuple[int, int]] = []
    ends = [0, 1]
    for d in range(depth + 1):
        if d:
            for i in range(ends[-2], ends[-1]):
                for g in (A, B, C):
                    if nbrs[i][g] >= 0:
                        continue
                    u = len(words)
                    words.append(words[i] + (g,))
                    steps.append((i, g))
                    nbrs.append([-1, -1, -1])
                    mats.append(mats[i] @ tri.mirrors[g])
                    nbrs[i][g] = u
                    nbrs[u][g] = i
                    _link_descents(nbrs, i, g, orders)
            ends.append(len(words))
        yield SequentialPatch(tuple(words), [list(links) for links in nbrs], np.array(mats),
                              list(ends), list(steps))


def image_per_triangle(patch: SequentialPatch, w: Word) -> list[int]:
    """The tile w.x for each tile x, or -1, one tile at a time in tile order.

    A tile x = parent.g goes to (w.parent).g, and its parent comes earlier.
    """
    nbrs = patch.neighbours
    y = 0
    for g in w:
        y = nbrs[y][g] if y >= 0 else -1
    image = [y]
    for parent, g in patch.steps:
        y = image[parent]
        image.append(nbrs[y][g] if y >= 0 else -1)
    return image


def merged_tiles_per_triangle(neighbours, kind: TilingKind):
    """Each triangle's merged-tile root, and the merged tiles, one triangle at a time.

    A step inward across a stabilizer mirror, r1 tried before r2, leads
    to an earlier triangle of the same merged tile; a triangle with no
    such step is its tile's root.  The tiles come in the order of their
    roots, each in tile order.
    """
    r1, r2 = TILE_MIRRORS[kind]
    root = list(range(len(neighbours)))
    groups: dict[int, list[int]] = {}
    for i, links in enumerate(neighbours):
        for g in (r1, r2):
            j = links[g]
            if 0 <= j < i:
                root[i] = root[j]
                break
        groups.setdefault(root[i], []).append(i)
    return root, tuple(tuple(g) for g in groups.values())


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


# For the tile mirrors a and b: the rotation word of r g for each
# reflection letter g (ab = x, ac = xz, ba = X, bc = z), and conjugation
# by r on the rotation generators (a x a = X, a z a = x Z X; b x b = X, b z b = Z).
MIRROR_TIMES_LETTER: dict[int, tuple[Word, Word, Word]] = {
    A: ((), (XGEN,), (XGEN, ZGEN)),
    B: ((XINV,), (), (ZGEN,)),
}
MIRROR_TWIST: dict[int, dict[int, Word]] = {
    A: {XGEN: (XINV,), ZGEN: (XGEN, ZINV, XINV)},
    B: {XGEN: (XINV,), ZGEN: (ZINV,)},
}


def full_scope_via_rotations(p: int, q: int, r1: int, r2: int, max_index: int) -> set[CosetTable]:
    """Canonical tables of the classes of subgroups S of the reflection
    group, of index <= max_index, that contain a conjugate of <r1, r2>,
    found from the rotation group G+ alone.

    T = S ∩ G+ has S's index, contains the tile rotation r1 r2, and is
    fixed by σ, conjugation by r1; conversely each such T gives
    S = T ∪ r1 T.  So for each von Dyck class and each coset its tile
    rotation fixes, T is re-rooted there and kept if σ fixes it.  S's
    cosets are T's, and Su g = S r1 u g = S σ(u) (r1 g), so the letter g
    takes coset i to π(i) followed by the rotation word of r1 g.  The von
    Dyck search has one seed, so no seed exclusion.
    """
    vd = von_dyck_group(p, q)
    times = MIRROR_TIMES_LETTER[r1]
    rotation = times[r2]
    images = [apply_generator_map((g,), MIRROR_TWIST[r1], vd.alphabet)
              for g in range(vd.alphabet.size)]
    found: set[CosetTable] = set()
    for t in low_index_classes(vd, max_index, seeds=((rotation,),)).tables:
        for e in range(t.n):
            if t.apply(e, rotation) != e:
                continue
            u = reroot(t, e)
            pi = twist_on_cosets(u, images)
            if pi is not None:
                rows = tuple(tuple(u.apply(pi[i], w) for w in times) for i in range(u.n))
                found.add(canonical_table(CosetTable(REFLECTIONS, rows)))
    return found


def colouring_classes_by_walks(p: int, q: int, max_index: int) -> ClassList:
    """The classes that colour some tiling of the (p, q) reflection group,
    found by reflection-group walks alone.

    They are the classes the three mirror-pair seeds find, together with,
    for each tiling, the classes of an unoriented walk seeded with its
    tile rotation r1 r2 that orientation_sides finds to be orientation
    subgroups.  The package lifts these from the von Dyck group instead.
    """
    G = triangle_group(p, q)
    pairs = TILE_MIRRORS.values()
    mirrors = tuple(((r1,), (r2,)) for r1, r2 in pairs)
    found = set(low_index_classes(G, max_index, seeds=mirrors).tables)
    for r1, r2 in pairs:
        walk = low_index_classes(G, max_index, seeds=(((r1, r2),),))
        found.update(t for t in walk.tables if orientation_sides(t) is not None)
    return ClassList(G, max_index, tuple(sorted(found, key=lambda t: (t.n, t.flat()))))


def twist_on_cosets(t: CosetTable, images: list[Word]) -> list[int] | None:
    """π: Tu ↦ Tσ(u) for the automorphism σ sending letter g to images[g],
    or None if it is not well defined, that is, if σ(T) is not T.

    BFS sets π(i g) = π(i) σ(g) along tree edges and checks every other
    edge against it.
    """
    pi = [-1] * t.n
    pi[0] = 0
    bfs = [0]
    for i in bfs:  # grows as it goes
        for g, w in enumerate(images):
            j, k = t.rows[i][g], t.apply(pi[i], w)
            if pi[j] < 0:
                pi[j] = k
                bfs.append(j)
            elif pi[j] != k:
                return None
    return pi


# The von Dyck group <x, z | x^q, z^p, (xz)^2> is <x, z, y | x^q, z^p,
# y^2, x z y>, y = (xz)^-1; each tile rotation is, up to inverse, one of
# the triple's letters, and its slot in (x, z, y) is listed here.
TRIPLE_SLOT: dict[Word, int] = {(XGEN,): 0, (ZGEN,): 1, (XGEN, ZGEN): 2}


def _rim_hooks(lam: tuple[int, ...], length: int):
    """(sign, lam less a rim hook) for each rim hook of that length: on the
    beta-set, a bead moves down `length` to a free place, and the sign
    is -1 to the power of the beads it passes."""
    top = len(lam) - 1
    beta = [x + top - i for i, x in enumerate(lam)]
    for b in beta:
        c = b - length
        if c >= 0 and c not in beta:
            rest = sorted([x for x in beta if x != b] + [c], reverse=True)
            mu = tuple(x for x in (v - top + i for i, v in enumerate(rest)) if x)
            yield (-1) ** sum(c < x < b for x in beta), mu


@functools.cache
def _dimension(lam: tuple[int, ...]) -> int:
    """f^lam, the number of standard tableaux, by the hook length formula."""
    cols = [sum(x > j for x in lam) for j in range(lam[0])] if lam else []
    hooks = math.prod(x - j + cols[j] - i - 1 for i, x in enumerate(lam) for j in range(x))
    return math.factorial(sum(lam)) // hooks


@functools.cache
def _character(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi^lam on a permutation with these cycles of length > 1 and fixed
    points for the rest, by the Murnaghan-Nakayama rule."""
    if not cycles:
        return _dimension(lam)
    return sum(s * _character(mu, cycles[1:]) for s, mu in _rim_hooks(lam, cycles[0]))


def _cycle_types(n: int, lengths: tuple[int, ...]):
    """(cycles, z) for each multiset of cycle lengths from `lengths`, each
    > 1 and in decreasing order, with sum at most n; z is the product of
    d^k k! over the lengths d taken k times."""
    if not lengths:
        yield (), 1
        return
    d = lengths[0]
    for k in range(n // d + 1):
        for rest, z in _cycle_types(n - k * d, lengths[1:]):
            yield (d,) * k + rest, z * d**k * math.factorial(k)


def _partitions(n: int, most: int | None = None):
    if n == 0:
        yield ()
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@functools.cache
def hom_counts(p: int, q: int, max_n: int, free: int | None = None) -> tuple[int, ...]:
    """|Hom(G, S_n)| for n = 0..max_n, G the von Dyck group (p, q).

    Frobenius's formula counts the triples (x, z, y) of S_n with
    x z y = 1 and x^q = z^p = y^2 = 1 as (1/n!) times the sum, over the
    irreducible characters chi of degree f, of f^2 c_q c_p c_2.  Here
    c_m sums |K| chi(K) / f over the classes K whose cycle lengths
    divide m; each term is a central character value, so c_m is an
    integer.  With free set, the letter in that slot of (x, z, y) must
    move every point: its classes are those with no fixed point.
    """
    lengths = [tuple(d for d in range(m, 1, -1) if m % d == 0) for m in (q, p, 2)]
    counts = [1]
    for n in range(1, max_n + 1):
        order = math.factorial(n)
        total = 0
        for lam in _partitions(n):
            f = _dimension(lam)
            term = f * f
            for slot, ds in enumerate(lengths):
                central = 0
                for cycles, z in _cycle_types(n, ds):
                    fixed = n - sum(cycles)
                    if not (fixed and slot == free):
                        central += order // (z * math.factorial(fixed)) * _character(lam, cycles)
                assert central % f == 0
                term *= central // f
            total += term
        assert total % order == 0
        counts.append(total // order)
    return tuple(counts)


def subgroup_counts(p: int, q: int, max_n: int, rotation: Word | None = None) -> list[int]:
    """a_n, the number of subgroups of index n of the von Dyck group (p, q),
    for n = 0..max_n (a_0 = 0); with a tile rotation given, only those
    that contain a conjugate of it, that is, whose cosets it does not all
    move.

    M. Hall Jr., "Subgroups of finite index in free groups" (1949): the
    transitive actions on n points, with point 1 marked, number
    t_n = h_n - sum over k < n of C(n-1, k-1) t_k h_(n-k), where h_n
    counts every action (the orbit of point 1 has k points), and each
    subgroup of index n is the stabilizer of point 1 in (n - 1)! of them.
    Whether a letter moves every point is settled orbit by orbit, so the
    recurrence holds for the actions where it does, too.
    """

    def hall(h: tuple[int, ...]) -> list[int]:
        t = [0] * (max_n + 1)
        for n in range(1, max_n + 1):
            t[n] = h[n] - sum(math.comb(n - 1, k - 1) * t[k] * h[n - k] for k in range(1, n))
            assert t[n] % math.factorial(n - 1) == 0
        return [x // math.factorial(max(n - 1, 0)) for n, x in enumerate(t)]

    every = hall(hom_counts(p, q, max_n))
    if rotation is None:
        return every
    moving = hall(hom_counts(p, q, max_n, free=TRIPLE_SLOT[rotation]))
    return [a - b for a, b in zip(every, moving)]


def subgroups_in_classes(tables: Iterable[CosetTable], max_n: int) -> list[int]:
    """Subgroups per index, n = 0..max_n, in the classes of these
    canonical tables: a class of index n holds n / e subgroups, where e
    counts the cosets whose re-rooting is the table itself (e is the
    index of the subgroup in its normalizer)."""
    out = [0] * (max_n + 1)
    for t in tables:
        selves = sum(reroot(t, i).rows == t.rows for i in range(t.n))
        assert t.n % selves == 0
        out[t.n] += t.n // selves
    return out


def euclidean_counts(p: int, q: int, scope: Scope, n: int) -> dict[int, int]:
    """The census multiplicities of the pq tiling (4^4) or (6^3) to n
    colours, in closed form, with no search.

    The tile centres form a lattice T: the ring R = Z[i] for (4^4), or
    Z[w] with w a primitive cube root of 1 for (6^3).  The symmetry
    group is G = T x| P, with P = D4 or D6 the point group of a tile,
    and its rotations are G+ = T x| P+, with P+ = C4 or C6.  Colourings
    are counted up to every symmetry of the tiling, so conjugacy is
    taken in G whatever the scope.  A subgroup H of the scope's group
    that holds the stabilizer P_t of a tile t is L x| P_t, where
    L = H n T is invariant under P_t's point group and has index
    [T : L] = [G : H] (resp. [G+ : H]); every such L gives one.  For one
    L, the subgroups of all the tiles are conjugate by translations, and
    conjugation by (v, g) in G maps L to g(L).  So the colourings with
    k colours are the orbits of P on the invariant sublattices of
    index k.

    A sublattice closed under the tile rotation, multiplication by i
    (resp. -w^2), is an ideal of R: a principal ideal (a), of index
    N(a) = |a|^2.  R has sum over d | k of chi(d) ideals of norm k, with
    chi the character mod 4 (chi(d) = 0, 1, 0, -1 for d = 0..3 mod 4)
    for Z[i], and the one mod 3 (0, 1, -1) for Z[w].  A mirror of P maps
    (a) to (conj a).  Conjugation swaps the two primes over a split
    rational prime, and fixes the inert primes and the ramified one,
    1 + i of norm 2 (resp. sqrt(-3) of norm 3).  So the self-conjugate
    ideals are (m) and (m (1 + i)) (resp. (m sqrt(-3))), m = 1, 2, ...:
    one of norm k if k = m^2 or 2 m^2 (resp. 3 m^2), none otherwise.

    Full scope: L is invariant under the mirrors too, so it is a
    self-conjugate ideal, alone in its orbit.  Rotation scope: every
    ideal, and an orbit is a self-conjugate ideal or a pair (a), (conj a),
    so the count is (ideals + self-conjugate ideals) / 2.
    """
    ramified, chi = {(4, 4): (2, (0, 1, 0, -1)), (6, 3): (3, (0, 1, -1))}[p, q]

    def full(k: int) -> int:
        return (math.isqrt(k) ** 2 == k) + (k % ramified == 0 and math.isqrt(k // ramified) ** 2 == k // ramified)

    def ideals(k: int) -> int:
        return sum(chi[d % len(chi)] for d in range(1, k + 1) if k % d == 0)

    counts = {k: full(k) if scope is Scope.FULL else (ideals(k) + full(k)) // 2
              for k in range(1, n + 1)}
    return {k: c for k, c in counts.items() if c}


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
        M = patch.matrices[i]
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
