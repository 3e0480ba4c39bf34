"""One coset table per conjugacy class of subgroups up to a given index.

The search walks partial coset tables in row-major scan order.  At each
node the first undefined entry is branched on: every existing coset
whose matching inverse slot is free, then one fresh coset.  New entries
are propagated through the relators (a scan of a relator with a single
undefined gap forces that entry; a completed scan that fails to close is
a contradiction).  An edge a -c-> b sets two entries, but the relator
cycles through it are scanned once, from a: the cycles that leave b by
c^-1 are those same cycles read backwards when c is a reflection, and
there are none when c^-1 is an inverse letter, which no relator uses.
Because cosets are introduced in scan order, every complete table
produced is standardized, and distinct complete tables are distinct
subgroups.

Conjugacy classes, not subgroups, are wanted.  A complete table is kept
only if it is the lexicographically least among its re-rootings (the
tables of its conjugate subgroups); the same comparison applied to a
partial table prunes whole subtrees that can no longer win.

A seeded walk finds only the classes of subgroups that contain a
conjugate of H, the subgroup generated by the seed words (Sims,
Computation with Finitely Presented Groups, ch. 5): the words must fix
coset 0, so they are scanned there after every deduction, next to the
relators, and a table is compared only with its re-rootings at cosets
the words fix.  The walks run in seed order, and a walk leaves
to an earlier one every class that walk finds: it prunes a node as soon
as some coset is fixed by every word of an earlier seed, unless that
seed is oriented and this one is not.  So the colouring seeds (the
unoriented ones first) yield each class from one walk.

Down a branch the table only grows, so the root bookkeeping lives on
the trail next to the entries.  A root the seed words fix stays fixed,
and a re-rooting compared equal on a defined prefix stays equal there:
each fixed root keeps its renumbering and resumes its comparison where
the last one stopped.  So backtracking undoes two stacks: the entries
set, and the root records (a root fixed, a comparison advanced).
An unseeded walk has no words, so every coset is a fixed root.

The walk is one loop over an explicit stack of open nodes, not a
recursion: the frames under it do not grow with the branch depth, so
neither Python's recursion limit bounds the index nor the caller's
stack depth changes the speed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context

from .coset import CosetTable, canonical_table
from .errors import DomainError, InternalError, ResourceLimit
from .presentations import Presentation
from .words import Word

# branch depth whose subtrees the walk deals out to the parts in turn; on
# (7,3) <= 64 with 2 parts on 2 CPUs, 12 beat 10 and 14 (1.37 s against 2.07 and 1.67)
_SPLIT = 12


@dataclass(frozen=True)
class ClassList:
    """Sorted class representatives for all indices up to max_index."""

    presentation: Presentation
    max_index: int
    tables: tuple[CosetTable, ...]


@dataclass(frozen=True)
class Seed:
    """Words that must fix coset 0 of every table a seeded walk makes.

    oriented asks for orientation subgroups only: every coset gets a
    parity, and every letter joins cosets of opposite parity.  It needs
    the reflection alphabet, where every letter reverses orientation,
    with relators and seed words of even length.
    """

    words: tuple[Word, ...]
    oriented: bool = False


UNSEEDED = (Seed(()),)  # one walk that every subgroup passes


def _trace_words(pres: Presentation) -> tuple[tuple[Word, ...], ...]:
    """For each column, the relator rotations starting with that letter.

    Scanning these at a coset whose entry in that column was just set
    finds every deduction and contradiction the new entry implies.
    Length-2 relators of the form g g^-1 (the involution relators, since
    the reflection letters are their own inverses) are structural: the
    table stores both directions of every edge, so they cannot fail and
    are left out of the trace lists.

    An involution letter's list also holds the rotations of each
    relator's inverse, so every cycle through an edge a -c-> b is traced
    from a alone: the cycle that leaves b by c is, read backwards, one
    that leaves a by c.  In the triangle groups these are rotations of
    the relator itself ((cd)^k read backwards is (dc)^k), so nothing is
    added there.
    """
    alphabet = pres.alphabet
    inv = alphabet.inv
    per_col: list[list[Word]] = [[] for _ in range(alphabet.size)]
    for rel in pres.relators:
        if len(rel) == 2 and rel[1] == inv[rel[0]]:
            continue
        seen: set[Word] = set()
        for w, own in ((rel, True), (alphabet.inverse_word(rel), False)):
            for k in range(len(w)):
                rot = w[k:] + w[:k]
                if rot not in seen and (own or inv[rot[0]] == rot[0]):
                    seen.add(rot)
                    per_col[rot[0]].append(rot)
    return tuple(tuple(ws) for ws in per_col)


def _search(
    pres: Presentation,
    max_index: int,
    seeds: tuple[Seed, ...] = UNSEEDED,
    *,
    node_budget: int | None = None,
    prune: bool = True,
    part: int = 0,
    parts: int = 1,
) -> list[tuple[tuple[int, ...], ...]]:
    """Depth-first walks, one per seed; returns the complete tables as row tuples.

    Each walk is a loop over an explicit stack of open nodes (walk), so
    a branch as deep as max_index takes no Python frames.

    Each walk keeps the tables that are least among their re-rootings at
    cosets its seed words fix, so it yields one table per class of
    subgroups containing a conjugate of the seed's subgroup, except the
    classes that an earlier walk finds: settle cuts a node where a coset
    is fixed by an excluding earlier seed (see excluded), and so does
    the root once the seed words are propagated.  One node budget counts
    the nodes of all the walks.

    The seed words are scanned at coset 0 after every deduction, next
    to the relator scans (propagate).

    Backtracking undoes two stacks together: the entries set (trail),
    and the root records (roots_trail): each root that settle fixes,
    and each root comparison that rejectable advances.  The root
    records change how a verdict is reached, never which branches are
    pruned.

    Every part walks the same top of the tree.  The nodes reached at
    branch depth _SPLIT are numbered in walk order, across the walks,
    and part k explores only those numbered k mod parts; a table
    completed above that depth belongs to part 0.  So the parts are
    disjoint, and their union is the one-part result.
    """
    m = pres.alphabet.size
    inv = pres.alphabet.inv
    N = max_index
    trace = _trace_words(pres)
    # an edge sets two entries, but its first entry's scans trace every
    # cycle through it unless the twin's column is another letter with
    # trace words of its own (an X or Z branch of a von Dyck walk)
    twin = [inv[c] != c and bool(trace[inv[c]]) for c in range(m)]
    relators = pres.relators

    table = [-1] * (N * m)
    # side of each coset, kept by oriented walks: set where a coset is made
    # and checked where a branch joins two; a deduction closes a relator or
    # seed word of even length along alternating edges, so it joins
    # opposite sides unchecked
    parity = [0] * N
    trail: list[int] = []
    # roots other than 0 that every seed word fixes, in the order found; a
    # root stays fixed below the node that fixed it, and its record on
    # roots_trail unfixes it on backtrack
    fixed: list[int] = []
    # per root, its re-rooting so far: mu new index -> old coset, nu old
    # coset -> new index (nu[beta] is 0 just while beta is fixed), count
    # cosets numbered, done rows compared equal or N once beaten (larger on
    # a defined prefix); backtracking restores count 1 and done 0 first
    mus = [[beta] + [0] * (N - 1) for beta in range(N)]
    nus = [[-1] * N for _ in range(N)]
    count = [1] * N
    done = [0] * N
    # (root, done, count) before a comparison advanced, or (root, -1, 0)
    # where settle fixed the root
    roots_trail: list[tuple[int, int, int]] = []
    results: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    dealt = -1  # walk-order number of the last node reached at depth _SPLIT
    words: tuple[Word, ...] = ()  # the seed words of the current walk
    oriented = False
    # the words of each earlier seed whose walk finds every class that this
    # walk completes below a node where those words fix a coset: every
    # unoriented seed, and the oriented ones too when this walk is oriented
    excluded: tuple[tuple[Word, ...], ...] = ()

    def scan(alpha: int, w: Word, stack: list[int]) -> bool:
        """Trace w from alpha, pushing deductions; False on contradiction."""
        r = len(w)
        f, i = alpha, 0
        while i < r:
            nxt = table[f * m + w[i]]
            if nxt < 0:
                break
            f = nxt
            i += 1
        else:
            return f == alpha
        b, j = alpha, r - 1
        while j >= i:
            nxt = table[b * m + inv[w[j]]]
            if nxt < 0:
                break
            b = nxt
            j -= 1
        if j < i:
            return f == b
        if j == i:
            c = w[i]
            p1 = f * m + c
            table[p1] = b
            trail.append(p1)
            stack.append(p1)
            p2 = b * m + inv[c]
            if p2 != p1:
                table[p2] = f
                trail.append(p2)
                if twin[c]:
                    stack.append(p2)
        return True

    def propagate(stack: list[int]) -> bool:
        while stack:
            pos = stack.pop()
            alpha, c = divmod(pos, m)
            for w in trace[c]:
                if not scan(alpha, w, stack):
                    return False
            for w in words:
                if not scan(0, w, stack):
                    return False
        return True

    def fixes(beta: int, ws: tuple[Word, ...]) -> bool:
        """Does every word of ws walk from beta back to beta?"""
        for w in ws:
            i = beta
            for g in w:
                i = table[i * m + g]
                if i < 0:
                    return False
            if i != beta:
                return False
        return True

    def settle(mark: int) -> bool:
        """Add the roots that the entries set since trail[mark] fix, or
        return False once a coset at an end of one of them, coset 0
        included, is fixed by an excluding seed.  A seed word has at most
        two letters, so the entry that completes its walk from beta back
        to beta has beta at one end; each entry's twin is on the trail
        too, so the rows of the entries hold both ends."""
        for beta in {p // m for p in trail[mark:]}:
            for ws in excluded:
                if fixes(beta, ws):
                    return False
            if beta and nus[beta][beta] < 0 and fixes(beta, words):
                nus[beta][beta] = 0
                fixed.append(beta)
                roots_trail.append((beta, -1, 0))
        return True

    def unwind(mark: int, roots_mark: int) -> None:
        """Undo the entries and the root records since the marks."""
        for p in trail[mark:]:
            table[p] = -1
        del trail[mark:]
        for beta, i, cnt in reversed(roots_trail[roots_mark:]):
            if i < 0:  # settle fixed beta, the last of fixed
                fixed.pop()
                nus[beta][beta] = -1
                continue
            mu, nu = mus[beta], nus[beta]
            for k in range(cnt, count[beta]):
                nu[mu[k]] = -1
            done[beta] = i
            count[beta] = cnt
        del roots_trail[roots_mark:]

    def rejectable() -> bool:
        """True if no completion of this table can be its class minimum.

        For each fixed root beta, renumber cosets in scan order from
        beta and compare entry by entry against the table itself.  The
        comparison stops at the first undefined entry on either side
        (inconclusive for that beta) and resumes at that row on the next
        call below this node: the entries compared are defined for good.
        A strictly smaller re-rooted entry at a position where
        everything earlier is defined and equal survives any completion,
        so the branch is dead; a strictly larger one does too, so that
        beta is beaten and never compared again in the subtree.  On a
        complete table this is exactly the test of being least among
        the re-rootings at fixed cosets.
        """
        for beta in fixed:
            i, cnt = done[beta], count[beta]
            if i >= cnt:  # beaten, or equal to the table throughout
                continue
            mu, nu = mus[beta], nus[beta]
            i0, cnt0 = i, cnt
            verdict = 0
            while i < cnt:
                base_o = mu[i] * m
                base_i = i * m
                stop = False
                for c in range(m):
                    w = table[base_o + c]
                    v = table[base_i + c]
                    if w < 0 or v < 0:
                        stop = True
                        break
                    e = nu[w]
                    if e < 0:
                        e = cnt
                        nu[w] = cnt
                        mu[cnt] = w
                        cnt += 1
                    if e != v:
                        verdict = -1 if e < v else 1
                        stop = True
                        break
                if stop:
                    break
                i += 1
            if verdict or i != i0 or cnt != cnt0:
                roots_trail.append((beta, i0, cnt0))
                done[beta] = N if verdict else i
                count[beta] = cnt
            if verdict < 0:
                return True
        return False

    def snapshot(n: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(table[i * m : (i + 1) * m]) for i in range(n))

    def closed(n: int) -> bool:
        for alpha in range(n):
            for rel in relators:
                i = alpha
                for g in rel:
                    i = table[i * m + g]
                if i != alpha:
                    return False
        return True

    def walk() -> None:
        """Depth-first walk of the tree below the propagated root.

        path holds the open nodes, root first, each as [pos, n, next
        beta, marks of the child descended into]; a node's branch depth
        is its place on path.  Each pass of the loop opens one node (the
        frontier pos and coset count n of the entry just set) and then
        descends from the deepest open node into its next live child,
        unwinding the child it came back from and popping the nodes that
        have none left.
        """
        nonlocal nodes, dealt
        path: list[list[int]] = []
        pos, n = 0, 1
        while True:
            depth = len(path)
            if depth == _SPLIT:
                dealt += 1
            if depth != _SPLIT or dealt % parts == part:
                limit = n * m
                while pos < limit and table[pos] >= 0:
                    pos += 1
                if pos == limit:
                    if (depth >= _SPLIT or part == 0) and not rejectable():
                        if not closed(n):
                            raise InternalError("complete table fails a relator")
                        results.append(snapshot(n))
                else:
                    nodes += 1
                    if node_budget is not None and nodes > node_budget:
                        raise ResourceLimit(f"node budget {node_budget} exceeded")
                    path.append([pos, n, 0, 0, 0])
            while path:
                node = path[-1]
                pos, n, beta, mark, roots_mark = node
                if beta:
                    unwind(mark, roots_mark)
                alpha, c = divmod(pos, m)
                ic = inv[c]
                for beta in range(beta, n + 1 if n < N else n):
                    if beta < n:
                        if table[beta * m + ic] >= 0 or (oriented and parity[beta] == parity[alpha]):
                            continue
                    else:
                        parity[beta] = parity[alpha] ^ 1
                    mark, roots_mark = len(trail), len(roots_trail)
                    table[pos] = beta
                    trail.append(pos)
                    p2 = beta * m + ic
                    stack = [pos]
                    if p2 != pos:
                        table[p2] = alpha
                        trail.append(p2)
                        if twin[c]:
                            stack.append(p2)
                    if propagate(stack) and settle(mark) and not (prune and rejectable()):
                        break
                    unwind(mark, roots_mark)
                else:
                    path.pop()
                    continue
                node[2:] = beta + 1, mark, roots_mark
                if beta == n:
                    n += 1
                break
            else:
                return

    for j, seed in enumerate(seeds):
        words = seed.words
        oriented = seed.oriented
        excluded = tuple(s.words for s in seeds[:j] if oriented or not s.oriented)
        stack: list[int] = []
        # the root is one coset, so this checks every entry the seed words set
        if (all(scan(0, w, stack) for w in words) and propagate(stack)
                and not any(fixes(0, ws) for ws in excluded)):
            walk()
        unwind(0, 0)
    return results


def _worker(args) -> list[tuple[tuple[int, ...], ...]]:
    pres, max_index, seeds, node_budget, prune, part, parts = args
    return _search(pres, max_index, seeds, node_budget=node_budget, prune=prune,
                   part=part, parts=parts)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def low_index_classes(
    pres: Presentation,
    max_index: int,
    *,
    seeds: tuple[Seed, ...] | None = None,
    node_budget: int | None = None,
    jobs: int = 1,
    prune: bool = True,
) -> ClassList:
    """Conjugacy classes of subgroups of index <= max_index.

    seeds=None finds every class.  Otherwise each Seed gets one walk,
    and the list holds the classes of subgroups that contain a
    conjugate of some seed's subgroup (orientation subgroups only, for
    an oriented seed).  Either way it is one standardized table per
    class, each the lexicographic minimum of all its re-rootings,
    sorted by (index, serialized rows).  jobs > 1 runs one part of the
    search per forked worker process (see _search), but never more parts
    than the CPUs this process may use, and one where the platform cannot
    fork; the merged result is identical to a serial run.  node_budget,
    if given, bounds branch nodes per process, over all the walks and the
    shared top of the tree.
    """
    if max_index < 1:
        raise DomainError("max_index must be at least 1")
    if jobs < 1:
        raise DomainError("jobs must be at least 1")
    if node_budget is not None and node_budget < 0:
        raise DomainError("node_budget must be at least 0")
    walks = UNSEEDED if seeds is None else tuple(seeds)
    if not walks:
        raise DomainError("seeds must hold at least one seed")
    oriented = [s for s in walks if s.oriented]
    if oriented and (
        any(pres.alphabet.inv[c] != c for c in range(pres.alphabet.size))
        or any(len(w) % 2 for w in pres.relators)
        or any(len(w) % 2 for s in oriented for w in s.words)
    ):
        raise DomainError("an oriented seed needs the reflection alphabet, "
                          "relators and seed words of even length")

    parts = min(jobs, _cpus()) if "fork" in get_all_start_methods() else 1
    if parts == 1:
        results = _search(pres, max_index, walks, node_budget=node_budget, prune=prune)
    else:
        args = [(pres, max_index, walks, node_budget, prune, part, parts) for part in range(parts)]
        with get_context("fork").Pool(parts) as pool:
            results = [rows for found in pool.map(_worker, args) for rows in found]

    # a seeded walk's table is least over its fixed roots only, and an
    # oriented seed does not exclude a later unoriented one, so a class
    # with conjugates of both is found by both walks
    found = {t.rows: t for t in (canonical_table(CosetTable(pres.alphabet, rows)) for rows in results)}
    tables = sorted(found.values(), key=lambda t: (t.n, t.flat()))
    return ClassList(pres, max_index, tuple(tables))
