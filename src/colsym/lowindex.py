"""One coset table per conjugacy class of subgroups up to a given index.

The search walks partial coset tables in row-major scan order.  At each
node the first undefined entry is branched on: every existing coset
whose matching inverse slot is free, then one fresh coset.  New entries
are propagated through the relators (a scan of a relator with a single
undefined gap forces that entry; a completed scan that fails to close is
a contradiction).  Because cosets are introduced in scan order, every
complete table produced is standardized, and distinct complete tables
are distinct subgroups.

Conjugacy classes, not subgroups, are wanted.  A complete table is kept
only if it is the lexicographically least among its re-rootings (the
tables of its conjugate subgroups); the same comparison applied to a
partial table prunes whole subtrees that can no longer win.
"""
from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context

from .coset import CosetTable
from .errors import DomainError, InternalError, ResourceLimit
from .presentations import Presentation
from .words import Word


@dataclass(frozen=True)
class ClassList:
    """Sorted class representatives for all indices up to max_index."""

    presentation: Presentation
    max_index: int
    tables: tuple[CosetTable, ...]


def _trace_words(pres: Presentation) -> tuple[tuple[Word, ...], ...]:
    """For each column, the relator rotations starting with that letter.

    Scanning these at a coset whose entry in that column was just set
    finds every deduction and contradiction the new entry implies.
    Length-2 relators of the form g g^-1 (the involution relators, since
    the reflection letters are their own inverses) are structural: the
    table stores both directions of every edge, so they cannot fail and
    are left out of the trace lists.
    """
    m = pres.alphabet.size
    inv = pres.alphabet.inv
    per_col: list[list[Word]] = [[] for _ in range(m)]
    for rel in pres.relators:
        if len(rel) == 2 and rel[1] == inv[rel[0]]:
            continue
        seen: set[Word] = set()
        for k in range(len(rel)):
            rot = rel[k:] + rel[:k]
            if rot not in seen:
                seen.add(rot)
                per_col[rot[0]].append(rot)
    return tuple(tuple(ws) for ws in per_col)


def _search(
    pres: Presentation,
    max_index: int,
    *,
    node_budget: int | None = None,
    prune: bool = True,
    prefix: tuple[int, ...] = (),
    cut_depth: int | None = None,
) -> tuple[list[tuple[tuple[int, ...], ...]], list[tuple[int, ...]]]:
    """Depth-first walk; returns (complete tables as row tuples, tasks).

    With cut_depth set, subtrees rooted at that branch depth are not
    explored; their branch choice sequences come back as tasks instead.
    A nonempty prefix replays those choices to resume one subtree.
    """
    m = pres.alphabet.size
    inv = pres.alphabet.inv
    N = max_index
    trace = _trace_words(pres)
    relators = pres.relators

    table = [-1] * (N * m)
    mu = [0] * N  # scratch: new index -> old coset, per re-rooting test
    nu = [-1] * N  # scratch: old coset -> new index
    trail: list[int] = []
    branch_path: list[int] = []
    results: list[tuple[tuple[int, ...], ...]] = []
    tasks: list[tuple[int, ...]] = []
    nodes = 0
    prefix_len = len(prefix)

    def scan(alpha: int, w: Word, stack: list[int]) -> bool:
        """Trace w from alpha; False on contradiction, deductions pushed."""
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
                stack.append(p2)
        return True

    def propagate(stack: list[int]) -> bool:
        while stack:
            pos = stack.pop()
            alpha, c = divmod(pos, m)
            for w in trace[c]:
                if not scan(alpha, w, stack):
                    return False
        return True

    def rejectable(n: int) -> bool:
        """True if no completion of this table can be its class minimum.

        For each alternative root beta, renumber cosets in scan order
        from beta and compare entry by entry against the table itself.
        Comparison stops at the first undefined entry on either side
        (inconclusive for that beta).  A strictly smaller re-rooted
        entry at a position where everything earlier is defined and
        equal survives any completion, so the branch is dead.  On a
        complete table this is exactly the canonical-form test.
        """
        for beta in range(1, n):
            cnt = 1
            mu[0] = beta
            nu[beta] = 0
            verdict = 0
            i = 0
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
            for k in range(cnt):
                nu[mu[k]] = -1
            if verdict == -1:
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

    def recurse(frontier: int, n: int, depth: int) -> None:
        nonlocal nodes
        limit = n * m
        pos = frontier
        while pos < limit and table[pos] >= 0:
            pos += 1
        if pos == limit:
            if not rejectable(n):
                if not closed(n):
                    raise InternalError("complete table fails a relator")
                results.append(snapshot(n))
            return
        if cut_depth is not None and depth >= cut_depth:
            tasks.append(tuple(branch_path))
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        alpha, c = divmod(pos, m)
        ic = inv[c]
        if depth < prefix_len:
            candidates = (prefix[depth],)
        else:
            candidates = range(n + 1) if n < N else range(n)
        for beta in candidates:
            if beta < n and table[beta * m + ic] >= 0:
                continue
            n2 = n + 1 if beta == n else n
            mark = len(trail)
            table[pos] = beta
            trail.append(pos)
            p2 = beta * m + ic
            stack = [pos]
            if p2 != pos:
                table[p2] = alpha
                trail.append(p2)
                stack.append(p2)
            ok = propagate(stack)
            if ok and prune and rejectable(n2):
                ok = False
            if ok:
                branch_path.append(beta)
                recurse(pos, n2, depth + 1)
                branch_path.pop()
            while len(trail) > mark:
                table[trail.pop()] = -1

    recurse(0, 1, 0)
    return results, tasks


def _worker(args) -> list[tuple[tuple[int, ...], ...]]:
    pres, max_index, prefix, node_budget, prune = args
    results, _ = _search(
        pres, max_index, node_budget=node_budget, prune=prune, prefix=prefix
    )
    return results


def low_index_classes(
    pres: Presentation,
    max_index: int,
    *,
    node_budget: int | None = None,
    jobs: int = 1,
    prune: bool = True,
) -> ClassList:
    """All conjugacy classes of subgroups of index <= max_index.

    One standardized table per class, each the lexicographic minimum of
    its re-rootings, sorted by (index, serialized rows).  jobs > 1
    splits the search tree at a shallow depth and farms the subtrees out
    to worker processes; the merged result is identical to a serial run.
    node_budget, if given, bounds branch nodes per process.
    """
    if max_index < 1:
        raise DomainError("max_index must be at least 1")
    if jobs < 1:
        raise DomainError("jobs must be at least 1")

    if jobs == 1:
        results, _ = _search(
            pres, max_index, node_budget=node_budget, prune=prune
        )
    else:
        cut = 2
        results, tasks = _search(
            pres, max_index, node_budget=node_budget, prune=prune, cut_depth=cut
        )
        while tasks and len(tasks) < 2 * jobs and cut < 6:
            cut += 1
            results, tasks = _search(
                pres, max_index, node_budget=node_budget, prune=prune, cut_depth=cut
            )
        if tasks:
            payload = [(pres, max_index, t, node_budget, prune) for t in tasks]
            ctx = get_context("fork")
            with ctx.Pool(jobs) as pool:
                for part in pool.map(_worker, payload, chunksize=1):
                    results.extend(part)

    tables = [CosetTable(pres.alphabet, rows) for rows in results]
    tables.sort(key=lambda t: (t.n, t.flat()))
    return ClassList(pres, max_index, tuple(tables))
