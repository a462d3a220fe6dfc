"""Immutable simple undirected graphs: generators, metrics and file formats.

Vertices are dense integer indices; optional text labels ride along in a
sidecar map so solvers never see them, and a `LazyLabels` map names a
vertex only when its label is read.  The one adjacency kept is a Python-int
bitmask of each vertex's neighbourhood; the edge list is derived from it
when read.  `Graph(n, edges)` validates its edges; `Graph.from_masks` is the
one unchecked constructor, for callers that derive the masks of a graph
already known to be valid.  The shapes with closed-form codes are read off
the masks: `Graph.walk` (paths, cycles), `Graph.complete_bipartite_sides`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import cached_property
from numbers import Integral
from typing import Callable


class GraphError(ValueError):
    pass


#: the most vertices of a graph read from outside the program (a graph
#: target, a graph file, a grown tree); larger ones are refused before any
#: edge or mask is built.  Gamma(R) is bounded by the ring cap instead.
MAX_VERTICES = 4096


def check_vertices(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the vertex bound {MAX_VERTICES}")


class LazyLabels(Mapping):
    """Read-only labels for vertices 0..n-1, each computed by `name(v)` when
    it is read rather than when the graph is built."""

    def __init__(self, n: int, name: Callable[[int], str]):
        self._n = n
        self._name = name

    def __getitem__(self, v: int) -> str:
        if v not in self:
            raise KeyError(v)
        return self._name(v)

    def __contains__(self, v) -> bool:
        return isinstance(v, Integral) and 0 <= v < self._n

    def __iter__(self):
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n


def bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(masks, frontier: int):
    """Breadth-first layers, as bitmasks, from the vertex set `frontier`
    (the first layer) in the graph with neighbourhood bitmasks `masks`."""
    seen = frontier
    while frontier:
        yield frontier
        grown = 0
        for v in bits(frontier):
            grown |= masks[v]
        frontier = grown & ~seen
        seen |= frontier


def twin_map(masks) -> dict[int, int]:
    """Each neighbourhood bitmask in `masks` mapped to the bitmask of the
    vertices that have it, the classes in ascending order of their least
    vertices.  Vertices with one neighbourhood are twins; they are never
    adjacent, since no vertex is its own neighbour."""
    twins: dict[int, int] = {}
    for v, m in enumerate(masks):
        twins[m] = twins.get(m, 0) | 1 << v
    return twins


def representatives(masks, twins) -> tuple[int, list[int] | tuple[int, ...]]:
    """(reps, cut): the bitmask of the least vertex of each twin class in
    `twins` (`twin_map(masks)`), and the masks with each representative's
    neighbourhood cut to reps.  Only the representatives' entries of cut are
    meant to be read; a graph without twins gets its masks back unchanged.

    Adjacent vertices are in distinct classes, and a vertex adjacent to one
    twin is adjacent to all of them, so replacing each vertex of a walk by
    its representative gives a walk: the graph on the representatives keeps
    every distance between distinct classes."""
    if len(twins) == len(masks):
        return (1 << len(masks)) - 1, masks
    reps = 0
    for cls in twins.values():
        reps |= cls & -cls
    cut = list(masks)
    for m, cls in twins.items():
        cut[(cls & -cls).bit_length() - 1] = m & reps
    return reps, cut


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable once built.
    `neighbor_masks[v]` has bit w set exactly when v and w are adjacent."""

    __slots__ = ("n", "labels", "name", "__dict__")

    def __init__(self, n: int, edges, labels: Mapping[int, str] | None = None, name: str = "G"):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        masks = [0] * n
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise GraphError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) out of range for n={n}")
            if masks[a] >> b & 1:
                raise GraphError(f"duplicate edge {(min(a, b), max(a, b))}")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self._setup(tuple(masks), labels, name)

    @classmethod
    def from_masks(
        cls, masks, labels: Mapping[int, str] | None = None, name: str = "G", twins=None
    ) -> "Graph":
        """The graph whose vertex v has neighbourhood bitmask `masks[v]`,
        unchecked: the masks must be symmetric with clear diagonal bits.
        `twins`, when given, must be `twin_map(masks)` in its order and
        becomes `Graph.twins`: Gamma(R) reads its twin classes off the
        annihilator classes and counts them (`zdg.zero_divisor_graph`)."""
        g = cls.__new__(cls)
        g._setup(tuple(masks), labels, name)
        if twins is not None:
            g.__dict__["twins"] = twins
        return g

    def _setup(self, masks: tuple[int, ...], labels, name: str) -> None:
        n = len(masks)
        if labels is not None and not (isinstance(labels, LazyLabels) and len(labels) == n):
            bad = [v for v in labels if not (0 <= v < n)]
            if bad:
                raise GraphError(f"label for unknown vertex {bad[0]}")
        if labels and not isinstance(labels, LazyLabels):
            labels = dict(labels)
        self.n = n
        self.neighbor_masks = masks
        self.labels = labels or None
        self.name = name

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (a, b) with a < b, in ascending order."""
        return tuple(
            (a, b) for a, m in enumerate(self.neighbor_masks) for b in bits(m >> a + 1 << a + 1)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.neighbor_masks == other.neighbor_masks
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash(self.neighbor_masks)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count}, name={self.name!r})"

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.neighbor_masks)) // 2

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.neighbor_masks)

    def is_regular(self) -> int | None:
        """The common degree t when the graph is t-regular, else None; the
        scan stops at the first degree that differs from vertex 0's."""
        if self.n == 0:
            return None
        t = self.neighbor_masks[0].bit_count()
        return t if all(m.bit_count() == t for m in self.neighbor_masks) else None

    def end_vertices(self) -> frozenset[int]:
        return frozenset(v for v, m in enumerate(self.neighbor_masks) if m.bit_count() == 1)

    def relabeled(self, labels: dict[int, str] | None, name: str | None = None) -> "Graph":
        name = name if name is not None else self.name
        return Graph.from_masks(self.neighbor_masks, labels, name)

    # -- traversal ---------------------------------------------------------

    def bfs_distances(self, source: int) -> list[int]:
        """-1 marks unreachable vertices."""
        dist = [-1] * self.n
        for d, layer in enumerate(_layers(self.neighbor_masks, 1 << source)):
            for v in bits(layer):
                dist[v] = d
        return dist

    def connected_components(self) -> list[list[int]]:
        """Vertex lists in ascending order, by least vertex."""
        rest = (1 << self.n) - 1
        comps = []
        while rest:
            comp = 0
            for layer in _layers(self.neighbor_masks, rest & -rest):
                comp |= layer
            comps.append(list(bits(comp)))
            rest &= ~comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    @cached_property
    def twins(self) -> dict[int, int]:
        """`twin_map` of the neighbourhood masks, built once per graph
        unless `from_masks` was given it."""
        return twin_map(self.neighbor_masks)

    def is_tree(self) -> bool:
        return self._is_tree

    @cached_property
    def _is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    # -- shapes with closed forms -----------------------------------------

    def walk(self) -> tuple[int, ...] | None:
        """The vertices in walk order when the graph is a path or a cycle,
        that is connected with every degree at most 2: a path from its
        least end vertex, a cycle from vertex 0 towards its lesser
        neighbour.  None otherwise, and for the empty graph."""
        masks = self.neighbor_masks
        if self.n == 0 or any(m.bit_count() > 2 for m in masks):
            return None
        v = next((v for v, m in enumerate(masks) if m.bit_count() < 2), 0)
        order, seen = [v], 1 << v
        while step := masks[v] & ~seen:
            v = (step & -step).bit_length() - 1
            order.append(v)
            seen |= 1 << v
        return tuple(order) if len(order) == self.n else None

    def complete_bipartite_sides(self) -> tuple[int, int] | None:
        """The sides of K_{m,n} with m, n >= 1 as bitmasks, vertex 0's side
        first, or None when the graph is not complete bipartite.  The sides
        can only be N(0) and its complement, so one pass checks that every
        vertex sees exactly the side it is not on."""
        masks = self.neighbor_masks
        other = masks[0] if masks else 0
        own = ((1 << self.n) - 1) ^ other
        if not other or any(m != (own if other >> v & 1 else other) for v, m in enumerate(masks)):
            return None
        return own, other

    def is_star(self) -> bool:
        """K_{1,k} for some k >= 1 (P_2 counts as K_{1,1})."""
        sides = self.complete_bipartite_sides()
        return sides is not None and min(s.bit_count() for s in sides) == 1


def diameter(g: Graph) -> int | float:
    """Longest shortest-path length; inf when disconnected, 0 for n <= 1.
    The breadth-first searches run only from and over the twin-class
    representatives (`representatives`): distinct classes keep their
    distance there, and two twins are at distance 2 through any common
    neighbour once no vertex is isolated."""
    twins = g.twins
    if 0 in twins:  # an isolated vertex
        return float("inf") if g.n > 1 else 0
    reps, cut = representatives(g.neighbor_masks, twins)
    best = 0 if len(twins) == g.n else 2
    for v in bits(reps):
        seen = 0
        for depth, layer in enumerate(_layers(cut, 1 << v)):
            seen |= layer
        if seen != reps:
            return float("inf")
        best = max(best, depth)
    return best


def articulation_points(g: Graph) -> frozenset[int]:
    """Cut vertices via iterative DFS low-link, per component."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    out: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, bits(g.neighbor_masks[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, bits(g.neighbor_masks[w])))
                    advanced = True
                    break
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u != root and low[v] >= disc[u]:
                        out.add(u)
        if root_children >= 2:
            out.add(root)
    return frozenset(out)


def is_matching(g: Graph, code) -> bool:
    """True when the subgraph induced by `code` is a perfect matching of
    `code` itself: every member has exactly one neighbour inside it.
    """
    cs = frozenset(code)
    bad = [v for v in cs if not (0 <= v < g.n)]
    if bad:
        raise GraphError(f"code vertex {bad[0]} out of range")
    cmask = sum(1 << v for v in cs)
    return all((g.neighbor_masks[v] & cmask).bit_count() == 1 for v in cs)


# -- generators ------------------------------------------------------------


def make_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def make_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph.from_masks([full ^ 1 << v for v in range(n)], name=f"K{n}")


def make_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("complete bipartite needs m, n >= 1")
    left, right = (1 << m) - 1, ((1 << n) - 1) << m
    return Graph.from_masks([right] * m + [left] * n, name=f"K{m},{n}")


def make_star(n: int) -> Graph:
    if n < 1:
        raise GraphError("star needs n >= 1 leaves")
    return Graph.from_masks(make_complete_bipartite(1, n).neighbor_masks, name=f"star{n}")


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of g plus |V(g)| copies of h; vertex i of g is joined to
    every vertex of copy i.  Indices: g first, then copies in order.
    """
    edges = list(g.edges)
    base = g.n
    for i in range(g.n):
        off = base + i * h.n
        edges.extend((off + a, off + b) for a, b in h.edges)
        edges.extend((i, off + a) for a in range(h.n))
    return Graph(g.n + g.n * h.n, edges, name=f"corona({g.name},{h.name})")


#: 8-vertex non-regular fixture; {0,1,6,7} is a total perfect code, which
#: shows an even-order non-regular graph can admit one.
FIXTURE8_EDGES = ((0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7))


def fixture_graph8() -> Graph:
    return Graph(8, FIXTURE8_EDGES, name="fixture8")


# -- file formats ----------------------------------------------------------


def to_json_obj(g: Graph) -> dict:
    obj: dict = {"n": g.n, "edges": [[a, b] for a, b in g.edges]}
    if g.labels:
        obj["labels"] = {str(v): g.labels[v] for v in sorted(g.labels)}
    return obj


def to_json(g: Graph) -> str:
    return json.dumps(to_json_obj(g), indent=2, sort_keys=True) + "\n"


def from_json_obj(obj: dict, name: str = "G") -> Graph:
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:  # a bool is no vertex count
        raise GraphError("a graph must be a JSON object with an integer 'n'")
    edges, labels = obj.get("edges"), obj.get("labels")
    pair = lambda e: isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
    if not isinstance(edges, list) or not all(pair(e) for e in edges):
        raise GraphError(f"'edges' must be a list of [a, b] integer pairs, got {edges!r}")
    if labels is not None:
        if not isinstance(labels, dict):
            raise GraphError(f"'labels' must be an object, got {labels!r}")
        for k, v in labels.items():
            if not (k.isascii() and k.isdecimal() and isinstance(v, str)):
                raise GraphError(
                    f"'labels' must map decimal vertex numbers to strings, got {k!r}: {v!r}"
                )
        labels = {int(k): v for k, v in labels.items()}
    check_vertices(obj["n"])
    return Graph(obj["n"], [tuple(e) for e in edges], labels, name)


def from_json(text: str, name: str = "G") -> Graph:
    try:
        obj = json.loads(text)
    except RecursionError as exc:  # nested deeper than the decoder's stack
        raise GraphError(str(exc)) from None
    return from_json_obj(obj, name)


def _dot_quoted(text: str) -> str:
    """`text` as a DOT quoted string on one line."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def to_dot(g: Graph) -> str:
    lines = [f"graph {_dot_quoted(g.name)} {{"]
    for v in range(g.n):
        if g.labels and v in g.labels:
            lines.append(f"  {v} [label={_dot_quoted(g.labels[v])}];")
        else:
            lines.append(f"  {v};")
    for a, b in g.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
