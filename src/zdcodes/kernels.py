"""Exact total-perfect-code search and the edge-pair sweep, on bitsets.

A graph is given by its open neighbourhoods as Python-int bitmasks
(`Graph.neighbor_masks`) and by its twin map (`graphs.twin_map`, kept as
`Graph.twins`): each neighbourhood mask mapped to the bitmask of the
vertices that have it.

A total perfect code C covers every vertex exactly once by the sets N(c),
c in C, so the search is Knuth's Algorithm X for exact cover ("Dancing
Links", arXiv:cs/0011047) with vertices as both items and options.
Choosing c covers N(c) and removes from the candidates every u whose
neighbourhood meets N(c); that set is `conflict[c]`, the OR of N(w) over w
in N(c), and holds c itself.  Each state (covered, chosen, candidates)
first takes forced moves: an uncovered vertex with no candidate neighbour
fails the state, one with a single candidate neighbour takes it.  The
state then branches on its lowest candidate, "in the code" before "out of
it".  Codes therefore come out in sorted-vertex-sequence order: both
branches share every vertex below the branch vertex, and no two codes are
nested, so the code holding it is the lexicographically smaller.

Twins, vertices with equal neighbourhoods, are never adjacent.  A code
holds at most one vertex of each twin class, since two would cover their
common neighbours twice, and swapping a member for a twin maps codes to
codes.  So the search runs in place on the representatives, the least
vertex of each class, with their neighbourhoods cut to the representatives
(`graphs.representatives`; a graph without twins keeps its masks), and
each code it finds lifts to every choice of one member per chosen class
(`lift`).  The least lift is the representative code itself, so the first
representative code is the least code.  In Γ(R) the elements with one
annihilator and a nonzero square are twins, so the search runs on about as
many vertices as the compressed zero-divisor graph on annihilator classes
has (Spiroff and Wickham, Comm. Algebra 39, 2011).  `zdg.zero_divisor_graph`
reads Γ(R)'s twin map off those classes without hashing a mask per
vertex: one class per annihilator class with nonzero square, and a
singleton per element with zero square.  It counts the classes it forms and
raises when the map holds fewer masks, so the search never runs on a twin
map that is not its masks' own.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .graphs import bits, representatives


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


def representative_codes(masks, limit: int, twins) -> list[int]:
    """The total perfect codes made of twin-class representatives, as
    bitmasks in sorted-vertex-sequence order, up to `limit` of them, on the
    graph with neighbourhood bitmasks `masks` and twin map `twins`."""
    if 0 in twins:
        return []  # an isolated vertex can never be covered
    reps, nb = representatives(masks, twins)
    found: list[int] = []
    stack = [(0, 0, reps)]
    while stack:
        state = _propagate(stack.pop(), nb, reps)
        if state is None:
            continue
        covered, chosen, cand = state
        if covered == reps:
            found.append(chosen)
            if len(found) >= limit:
                break
            continue
        low = cand & -cand
        stack.append((covered, chosen, cand ^ low))
        stack.append(_take(low.bit_length() - 1, state, nb))
    return found


def lifted_count(codes, masks, twins) -> int:
    """How many codes of the whole graph the representative `codes` lift to:
    the product of the sizes of each code's classes, summed."""
    return sum(prod(twins[masks[v]].bit_count() for v in bits(code)) for code in codes)


def lift(codes, masks, twins, limit: int) -> list[frozenset[int]]:
    """The first `limit` codes of the whole graph, in sorted-vertex-sequence
    order, that the representative `codes` lift to, when `codes` are the
    first `limit` representative codes in order.

    Each lift replaces every member by a twin of it, so it is no less than
    its representative code, and the first `limit` lifts are all lifts of
    the first `limit` representative codes.  Those are all built and sorted.
    The least lift of a code is the code itself, and without twins it is
    the only one."""
    if limit == 1 or len(twins) == len(masks):
        return [frozenset(bits(code)) for code in codes]
    picks = sorted(
        sorted(p) for code in codes for p in product(*(bits(twins[masks[v]]) for v in bits(code)))
    )
    return [frozenset(p) for p in picks[:limit]]


def cover_codes(masks, limit: int, twins) -> list[frozenset[int]]:
    """Total perfect codes of the graph with neighbourhood bitmasks `masks`
    and twin map `twins`, in sorted-vertex-sequence order, up to `limit` of
    them."""
    return lift(representative_codes(masks, limit, twins), masks, twins, limit)


def pair_sweep(masks, twins) -> tuple[int, int] | None:
    """The first edge (x, y), x < y, in ascending order that is a total
    perfect code of the graph with neighbourhood bitmasks `masks` and twin
    map `twins`, or None.

    {x, y} is a code exactly when N(x) and N(y) partition the vertices,
    that is when N(y) is the complement of N(x); such x and y are adjacent,
    since neither lies in its own neighbourhood.  The first x with a partner
    is the least vertex of any code pair, so the least vertex of its class,
    and its least partner, the least vertex of the class with the
    complementary mask, completes the first code edge.  The twin map lists
    its classes in ascending order of their least vertices."""
    full = (1 << len(masks)) - 1
    for m, cls in twins.items():
        partners = twins.get(full ^ m)
        if partners:
            return (cls & -cls).bit_length() - 1, (partners & -partners).bit_length() - 1
    return None
