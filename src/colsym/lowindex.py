"""One coset table per conjugacy class of subgroups up to a given index.

The search walks partial coset tables in row-major scan order.  At each
node the first undefined entry is branched on: every existing coset
whose matching inverse slot is free, then one fresh coset.  New entries
are propagated through the relators (a scan of a relator with a single
undefined gap forces that entry; a completed scan that fails to close is
a contradiction).  An edge a -c-> b sets two entries, but the relator
cycles through it are scanned once, from a: a cycle that leaves b by
c^-1 is, read backwards, one that leaves a by c (see _trace_words).
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
coset 0, so they are scanned there after a deduction, next to the
relators, until the entries at the root close them; and a table is
compared only with its re-rootings at cosets the words fix.  The walks
run in seed order, and a walk leaves to an earlier one every class that
walk finds: it prunes a node as soon as some coset is fixed by every
word of an earlier seed.  So the walks yield each class from one walk.

Down a branch the table only grows, so the root bookkeeping lives on
the trail next to the entries.  A root the seed words fix stays fixed,
and a re-rooting compared equal on a defined prefix stays equal there:
each fixed root keeps its renumbering and resumes its comparison where
the last one stopped.  So backtracking undoes two stacks: the entries
set, and the root records (a root fixed, a comparison advanced).
An unseeded walk has no words, so every coset is a fixed root.

A twist, a letter involution that is an automorphism of the group (as
x <-> X, z <-> Z), carries each class to its twin.  A coset beta, 0
included, that the twisted seed words fix is then a twisted root N + beta,
compared through column twist[c] where a root reads c: with seeds
twist-invariant up to conjugacy, a walk keeps one table per twin pair.

The walk loops over an explicit stack of open nodes, so neither the
recursion limit bounds the index nor the caller's stack depth changes
the speed.  A visit to a node unwinds to the heights it opened at and
tries its next coset from the frontier row (the rows above are full).
"""
from __future__ import annotations

from dataclasses import dataclass

from .coset import CosetTable, canonical_table
from .errors import DomainError, InternalError, ResourceLimit, check_count
from .presentations import Presentation
from .words import Word


@dataclass(frozen=True)
class ClassList:
    """Sorted class representatives for all indices up to max_index."""

    presentation: Presentation
    max_index: int
    tables: tuple[CosetTable, ...]


# words that must fix coset 0 of every table a seeded walk makes
Seed = tuple[Word, ...]

UNSEEDED: tuple[Seed, ...] = ((),)  # one walk that every subgroup passes


def _trace_words(pres: Presentation) -> tuple[tuple[Word, ...], ...]:
    """For each letter, the rotations of the relators and of their
    inverses that start with that letter.

    Scanning these at a coset whose entry in that column was just set
    finds every deduction and contradiction the new edge a -c-> b
    implies: a cycle through it that leaves b by c^-1 is, read
    backwards, a rotation of an inverse relator that leaves a by c, so
    the edge's tail traces them all.  Length-2 relators of the form
    g g^-1 (the involution relators, since the reflection letters are
    their own inverses) are structural: the table stores both directions
    of every edge, so they cannot fail and are left out of the lists.
    """
    alphabet = pres.alphabet
    inv = alphabet.inv
    per_col: list[list[Word]] = [[] for _ in range(alphabet.size)]
    for rel in pres.relators:
        if len(rel) == 2 and rel[1] == inv[rel[0]]:
            continue
        seen: set[Word] = set()
        for w in (rel, alphabet.inverse_word(rel)):
            for k in range(len(w)):
                rot = w[k:] + w[:k]
                if rot not in seen:
                    seen.add(rot)
                    per_col[rot[0]].append(rot)
    return tuple(tuple(ws) for ws in per_col)


def _search(
    pres: Presentation,
    max_index: int,
    seeds: tuple[Seed, ...] = UNSEEDED,
    node_budget: int | None = None,
    twist: tuple[int, ...] | None = None,
    *,
    prune: bool = True,
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
    the nodes of all the walks; given a twist, one table per twin pair.

    The seed words are scanned at coset 0 next to the relator scans
    (propagate): all of them at the root, then only those the root left
    open, since the walk never unwinds the root's entries.

    Backtracking undoes two stacks to a node's heights when it opened:
    the entries set (trail), and the root records (roots_trail): each
    root that settle fixes, and each comparison that rejectable
    advances.  They change how a verdict is reached, never which
    branches are pruned.  prune=False skips the cuts of partial tables
    (rejectable); the tests keep that walk as the pruned one's reference.
    """
    m = pres.alphabet.size
    inv = pres.alphabet.inv
    N = max_index
    trace = _trace_words(pres)

    table = [-1] * (N * m)
    trail: list[int] = []
    # roots other than 0 that every seed word fixes, and twisted roots, in the
    # order found; a root stays fixed below the node that fixed it, and its
    # record on roots_trail unfixes it on backtrack
    fixed: list[int] = []
    # per root r of coset beta = r % N, its re-rooting so far: mu new index ->
    # old coset, nu old coset -> new index (nu[beta] is 0 just while r is fixed),
    # count cosets numbered, done rows compared equal or N once beaten (larger
    # on a defined prefix); backtracking restores count 1 and done 0 first.
    mus, nus = [None] * (2 * N), [None] * (2 * N)  # made when a branch first reaches beta
    mus[N], nus[N] = [0] * N, [-1] * N  # and at once for twisted root 0
    count, done = [1] * (2 * N), [0] * (2 * N)
    columns = (tuple(zip(range(m), range(m))), tuple(enumerate(twist or ())))
    # (root, done, count) before a comparison advanced, or (root, -1, 0)
    # where settle fixed the root
    roots_trail: list[tuple[int, int, int]] = []
    results: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    words: Seed = ()  # the seed words of the current walk
    open_words: Seed = ()  # the words propagate scans: all, then those the root left open
    # the words of each earlier seed, whose walk finds every class that this
    # walk completes below a node where those words fix a coset
    excluded: tuple[Seed, ...] = ()

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
        return True

    def propagate(stack: list[int]) -> bool:
        while stack:
            pos = stack.pop()
            alpha, c = divmod(pos, m)
            for w in trace[c]:
                if not scan(alpha, w, stack):
                    return False
            for w in open_words:
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
        """Add the roots, twisted ones too, that the entries set since
        trail[mark] fix, or return False once a coset at an end of one of
        them, 0 included, is fixed by an excluding seed.  A seed word has at
        most two letters, so the entry that completes its walk from beta
        back to beta has beta at one end; each entry's twin is on the trail
        too, so their rows hold both ends (and the root's first branch, 0)."""
        for beta in {p // m for p in trail[mark:]}:
            for ws in excluded:
                if fixes(beta, ws):
                    return False
            if beta and nus[beta][beta] < 0 and fixes(beta, words):
                nus[beta][beta] = 0
                fixed.append(beta)
                roots_trail.append((beta, -1, 0))
            if twisted is not None and nus[N + beta][beta] < 0 and fixes(beta, twisted):
                nus[N + beta][beta] = 0
                fixed.append(N + beta)
                roots_trail.append((N + beta, -1, 0))
        return True

    def unwind(mark: int, roots_mark: int) -> None:
        """Undo the entries and the root records since the marks."""
        while len(trail) > mark:
            table[trail.pop()] = -1
        while len(roots_trail) > roots_mark:
            r, i, cnt = roots_trail.pop()
            if i < 0:  # settle fixed r, the last of fixed
                fixed.pop()
                nus[r][r % N] = -1
                continue
            mu, nu = mus[r], nus[r]
            for k in range(cnt, count[r]):
                nu[mu[k]] = -1
            done[r] = i
            count[r] = cnt

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
        for r in fixed:
            i, cnt = done[r], count[r]
            if i >= cnt:  # beaten, or equal to the table throughout
                continue
            mu, nu = mus[r], nus[r]
            cols = columns[r >= N]  # (column compared, column read at mu[i]) pairs
            i0, cnt0 = i, cnt
            verdict = 0
            while i < cnt:
                base_o = mu[i] * m
                base_i = i * m
                stop = False
                for c, d in cols:
                    w = table[base_o + d]
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
                roots_trail.append((r, i0, cnt0))
                done[r] = N if verdict else i
                count[r] = cnt
            if verdict < 0:
                return True
        return False

    def walk() -> None:
        """Depth-first walk of the tree below the propagated root.

        path holds the open nodes, root first, each as [pos, n, next
        beta, trail and roots_trail heights when opened].  Each pass of
        the loop opens one node (the frontier pos and coset count n of the
        entry just set), then visits the deepest: it unwinds to the node's
        heights and descends into its next live child, or pops it if none
        is left.  Children start at the frontier row pos // m: every row
        above it is full.
        """
        nonlocal nodes
        path: list[list[int]] = []
        pos, n = 0, 1
        while True:
            limit = n * m
            while pos < limit and table[pos] >= 0:
                pos += 1
            if pos == limit:
                if not rejectable():
                    results.append(tuple(table[: n * m]))
            else:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise ResourceLimit(f"node budget {node_budget} exceeded")
                path.append([pos, n, pos // m, len(trail), len(roots_trail)])
            while path:
                node = path[-1]
                pos, n, beta, mark, roots_mark = node
                unwind(mark, roots_mark)
                alpha, c = divmod(pos, m)
                ic = inv[c]
                for beta in range(beta, n + 1 if n < N else n):
                    if beta < n and table[beta * m + ic] >= 0:
                        continue
                    table[pos] = beta
                    if beta == n and nus[n] is None:
                        for r in (n, N + n):
                            mus[r], nus[r] = [n] + [0] * (N - 1), [-1] * N
                    trail.append(pos)
                    p2 = beta * m + ic
                    stack = [pos]
                    if p2 != pos:
                        table[p2] = alpha
                        trail.append(p2)
                    if propagate(stack) and settle(mark) and not (prune and rejectable()):
                        break
                    unwind(mark, roots_mark)
                else:
                    path.pop()
                    continue
                node[2] = beta + 1
                if beta == n:
                    n += 1
                break
            else:
                return

    for j, words in enumerate(seeds):
        excluded = seeds[:j]
        twisted = None if twist is None else tuple(tuple(twist[g] for g in w) for w in words)
        stack: list[int] = []
        open_words = words
        # the root is one coset, so this checks every entry the seed words set
        if all(scan(0, w, stack) for w in words) and propagate(stack) and settle(0):
            open_words = tuple(w for w in words if not fixes(0, (w,)))
            walk()
        unwind(0, 0)
    return results


def low_index_classes(
    pres: Presentation,
    max_index: int,
    *,
    seeds: tuple[Seed, ...] | None = None,
    node_budget: int | None = None,
    twist: tuple[int, ...] | None = None,
) -> ClassList:
    """Conjugacy classes of subgroups of index <= max_index.

    seeds=None finds every class.  Otherwise each seed gets one walk,
    and the list holds the classes of subgroups that contain a
    conjugate of some seed's subgroup; a seed word has at most two
    letters (see settle).  Either way it is one standardized table per
    class, each the lexicographic minimum of all its re-rootings,
    sorted by (index, entries).  The walks run in this process, in seed
    order.  node_budget, if given, bounds the branch nodes over all the
    walks.  Given a twist, it is one class per twin pair.  Each table the
    walks complete is read against the relators here; one that fails
    raises InternalError.
    """
    check_count(max_index, "max_index", 1)
    if node_budget is not None:
        check_count(node_budget, "node_budget", 0)
    walks = UNSEEDED if seeds is None else tuple(seeds)
    if not walks:
        raise DomainError("seeds must hold at least one seed")
    for w in (w for seed in walks for w in seed):
        pres.alphabet.check_word(w, "seed word")
        if len(w) > 2:
            raise DomainError("a seed word has at most two letters")
    inv, cycles = pres.alphabet.inv, twist and {w for ws in _trace_words(pres) for w in ws}
    if twist is not None and (sorted(twist) != sorted(inv) or any(
            twist[twist[g]] != g or twist[inv[g]] != inv[twist[g]] for g in inv)
            or {tuple(twist[g] for g in w) for w in cycles} != cycles):
        raise DomainError(f"twist {twist} is no involution of the letters and relator cycles")

    # each class comes from one walk, as a table least over its fixed roots
    # only: once every relator acts trivially, its canonical form represents it
    tables = []
    for entries in _search(pres, max_index, walks, node_budget=node_budget, twist=twist):
        t = CosetTable(pres.alphabet, entries)
        if any(t.action(rel) != list(range(t.n)) for rel in pres.relators):
            raise InternalError("complete table fails a relator")
        tables.append(canonical_table(t))
    tables.sort(key=lambda t: (t.n, t.entries))
    if len(set(tables)) != len(tables):
        raise InternalError("the walks found a class twice")
    return ClassList(pres, max_index, tuple(tables))
