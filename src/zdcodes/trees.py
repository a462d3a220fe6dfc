"""Tree constructions for total perfect codes.

Covers the grow operations A1-A4 that generate the code-admitting family
from legal starting paths, the two caterpillar constructions whose code is
the designated path subset, the pendant (corona) families that never admit
a code, the supporting vertex predicates, Pruefer-sequence tree sampling,
and a bounded reverse-reduction probe that checks small code-admitting
trees can be shrunk back to a legal path.

Grow steps enforce the documented preconditions as written; whether a step
actually preserves code existence is re-verified with the tree solver after
every application, so a wrong congruence surfaces as an explicit finding
rather than silent corruption.  The A1/A3 length classes are implemented
as n >= 5 with n != 2 mod 4.  Attaching a path by its endpoint keeps a code
for n = 0, 1 mod 4 (for n = 1 mod 4 the bridge covers the path head,
although the path alone has no code); n = 3 mod 4 lets through steps whose
tree has no code, and the verification step is what catches those.

A3 attaches exactly like A1: its condition, a non-quasi-isolated attachment
vertex, tests a member of the code, and no member of a set is
quasi-isolated with respect to it (see `is_quasi_isolated`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import MAX_VERTICES, Graph, bits, corona, make_complete, make_path
from .tpc import is_total_perfect_code, tree_tpc

OPS = ("A1", "A2", "A3", "A4")


def _check_size(vertices: int, what: str) -> None:
    """A grown tree has at most `graphs.MAX_VERTICES` vertices; larger
    traces and budgets are refused before any growth."""
    if vertices > MAX_VERTICES:
        raise ValueError(f"{what} {vertices} exceeds the tree bound {MAX_VERTICES}")


class StepPreconditionError(ValueError):
    pass


class FamilyTraceFinding(RuntimeError):
    """A grow step satisfied its preconditions but the resulting tree
    admits no code; carries the replayable trace."""

    def __init__(self, message: str, trace_obj: dict):
        super().__init__(message)
        self.trace_obj = trace_obj


# -- vertex predicates --------------------------------------------------------


def private_neighborhood(g: Graph, subset, v: int) -> frozenset[int]:
    """External private neighbourhood: neighbours of v outside the closed
    neighbourhood of the other members, N(v) minus N[S without v].  For
    vertices outside S this coincides with {u : N(u) & S = {v}}.
    """
    s = frozenset(subset)
    if v not in s:
        raise ValueError(f"vertex {v} is not in the subset")
    others = 0
    for u in s - {v}:
        others |= 1 << u | g.neighbor_masks[u]
    return frozenset(bits(g.neighbor_masks[v] & ~others))


def is_quasi_isolated(g: Graph, subset, v: int) -> bool:
    """v is the sole private neighbour of some member of the subset.

    Private neighbourhoods subtract the closed neighbourhoods of the other
    members, so no member of the subset is anyone's private neighbour: the
    answer is False for every v in the subset.
    """
    s = frozenset(subset)
    return any(private_neighborhood(g, s, u) == {v} for u in s)


def leaf_set(t: Graph) -> frozenset[int]:
    if not t.is_tree():
        raise ValueError("leaf_set expects a tree")
    return t.end_vertices()


def k_support_vertex(t: Graph, leaf: int, k: int) -> int:
    """The vertex at distance k from the given leaf (smallest index when
    the tree branches into several)."""
    if not t.is_tree():
        raise ValueError("k_support_vertex expects a tree")
    dist = t.bfs_distances(leaf)
    hits = [v for v in range(t.n) if dist[v] == k]
    if not hits:
        raise ValueError(f"distance {k} exceeds the eccentricity of leaf {leaf}")
    return min(hits)


# -- grow steps ----------------------------------------------------------------


@dataclass(frozen=True)
class TreeBuildStep:
    op: str  # A1 | A2 | A3 | A4
    v: int  # attachment vertex in the current tree
    n: int | None = None  # new path length (A1/A3/A4)
    k: int | None = None  # support depth into the new path (A4)

    def __post_init__(self):
        if self.op not in OPS:
            raise StepPreconditionError(f"unknown operation {self.op!r}")
        if self.op in ("A1", "A3", "A4") and self.n is None:
            raise StepPreconditionError(f"{self.op} needs a path length n")
        if self.op == "A4" and self.k is None:
            raise StepPreconditionError("A4 needs the support depth k")

    def to_obj(self) -> dict:
        obj: dict = {"op": self.op, "v": self.v}
        if self.n is not None:
            obj["n"] = self.n
        if self.k is not None:
            obj["k"] = self.k
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "TreeBuildStep":
        if not isinstance(obj, dict) or "op" not in obj or "v" not in obj:
            raise ValueError(f"trace step {obj!r} is not an object with 'op' and 'v'")
        v, n, k = obj["v"], obj.get("n"), obj.get("k")
        if type(v) is not int or not all(x is None or type(x) is int for x in (n, k)):
            raise ValueError(f"trace step {obj!r}: 'v', 'n' and 'k' must be integers")
        return TreeBuildStep(obj["op"], v, n, k)


@dataclass(frozen=True)
class BuildTrace:
    initial: int
    steps: tuple[TreeBuildStep, ...]
    graph: Graph
    codes: tuple[frozenset[int], ...] = field(default_factory=tuple)  # code after each stage

    def to_obj(self) -> dict:
        return {"initial": self.initial, "steps": [s.to_obj() for s in self.steps]}

    @staticmethod
    def obj_steps(obj: dict) -> tuple[int, list[TreeBuildStep]]:
        if not isinstance(obj, dict) or type(obj.get("initial")) is not int:
            raise ValueError("a build trace must be a JSON object with an integer 'initial'")
        steps = obj.get("steps", [])
        if not isinstance(steps, list):
            raise ValueError(f"trace 'steps' must be a list, got {steps!r}")
        return obj["initial"], [TreeBuildStep.from_obj(s) for s in steps]


def _attach_path(t: Graph, v: int, n: int, join_offset: int) -> Graph:
    """t plus a path on the new vertices t.n..t.n+n-1, its vertex
    `join_offset` joined to v."""
    _check_size(t.n + n, "the grown tree's vertex count")
    base = t.n
    span = (1 << n) - 1
    masks = list(t.neighbor_masks)
    # path vertex i is adjacent to path vertices i - 1 and i + 1
    masks.extend((5 << i >> 1 & span) << base for i in range(n))
    head = base + join_offset
    masks[v] |= 1 << head
    masks[head] |= 1 << v
    return Graph.from_masks(masks, name=t.name)


def apply_step(t: Graph, code, step: TreeBuildStep) -> Graph:
    """Grow the tree by one operation; the given code must be a total
    perfect code of t containing the attachment vertex.  Preconditions are
    checked individually and named on failure.
    """
    cs = frozenset(code)
    if not (0 <= step.v < t.n):
        raise StepPreconditionError(f"attachment vertex {step.v} is not in the tree")
    if not is_total_perfect_code(t, cs):
        raise StepPreconditionError("the supplied set is not a total perfect code of the tree")
    if step.v not in cs:
        raise StepPreconditionError(f"attachment vertex {step.v} is not in the supplied code")

    if step.op == "A2":
        return _attach_path(t, step.v, 1, 0)

    n = step.n
    if step.op in ("A1", "A3"):
        if n < 5:
            raise StepPreconditionError(f"{step.op} needs a path of length at least 5, got {n}")
        if n % 4 == 2:
            raise StepPreconditionError(f"{step.op} forbids path lengths of 2 mod 4, got {n}")
        return _attach_path(t, step.v, n, join_offset=0)

    # A4: attach by the k-support vertex of the new path's first leaf
    if n % 2 == 0:
        raise StepPreconditionError(f"A4 needs an odd path length, got {n}")
    if n % 8 == 3:
        raise StepPreconditionError(f"A4 forbids path lengths of 3 mod 8, got {n}")
    if not (0 <= step.k <= n - 1):
        raise StepPreconditionError(
            f"support depth {step.k} exceeds the new path (0..{n - 1})"
        )
    return _attach_path(t, step.v, n, join_offset=step.k)


def _grow(initial: int, next_step) -> BuildTrace:
    """Grow familyT(initial) from the legal starting path.  `next_step(t,
    code)` sees the current tree and the code of its latest stage and
    returns the next step, or None to stop.  The stage code serves as the
    step's code when it holds the attachment vertex; otherwise the tree
    solver forces that vertex in (membership in some code is what the
    preconditions quantify over).  Every new stage is solved once; a stage
    without a code aborts with the replayable trace.
    """
    if initial < 2:
        raise StepPreconditionError("the starting path needs at least two vertices")
    if initial % 4 == 1:
        raise StepPreconditionError(
            f"the starting path length {initial} is 1 mod 4 and admits no code"
        )
    _check_size(initial, "the starting path length")
    t = Graph.from_masks(make_path(initial).neighbor_masks, name=f"familyT({initial})")
    steps: list[TreeBuildStep] = []
    codes = [tree_tpc(t)]
    if codes[0] is None:
        raise FamilyTraceFinding(
            f"the starting path of length {initial} has no code", {"initial": initial, "steps": []}
        )
    while (step := next_step(t, codes[-1])) is not None:
        code = codes[-1]
        # a vertex outside the tree is left to apply_step's range check
        if step.v not in code and 0 <= step.v < t.n:
            code = tree_tpc(t, force_include=step.v)
            if code is None:
                raise StepPreconditionError(
                    f"vertex {step.v} lies in no total perfect code of the current tree"
                )
        t = apply_step(t, code, step)
        steps.append(step)
        after = tree_tpc(t)
        if after is None:
            partial = BuildTrace(initial, tuple(steps), t, tuple(codes))
            raise FamilyTraceFinding(
                f"step {len(steps) - 1} ({step.op} at {step.v}) produced a tree with no code",
                partial.to_obj(),
            )
        codes.append(after)
    return BuildTrace(initial, tuple(steps), t, tuple(codes))


def generate_family_T(initial: int, steps) -> BuildTrace:
    """Build a tree from a legal starting path by a step sequence, checking
    every precondition and re-verifying that each stage admits a code."""
    pending = iter(steps)
    return _grow(initial, lambda t, code: next(pending, None))


def random_family_T(seed: int, size_budget: int) -> BuildTrace:
    """Seeded random build: starting length and operations are drawn from
    parameter classes for which the grow arguments are known to preserve a
    code (A1/A3 lengths 0 or 1 mod 4, A4 split so both arms keep codes
    avoiding the junction).  Deterministic for a fixed seed.

    The attachment vertex is drawn from the current stage's code; every
    member of it is a legal attachment for all four operations.
    """
    if size_budget < 0:
        raise ValueError(f"the size budget must be nonnegative, got {size_budget}")
    _check_size(size_budget, "the size budget")
    starts = [n for n in (2, 3, 4, 6, 7, 8) if n <= size_budget]
    if not starts:
        raise ValueError(f"the size budget {size_budget} is below the shortest starting path, 2")
    rng = random.Random(seed)
    initial = rng.choice(starts)
    # parameter classes verified to preserve codes: endpoint attachments
    # with n = 0,1 mod 4 (the bridge covers the path head), interior
    # attachments whose two arms are both 0 or 3 mod 4
    a1_choices = [5, 8, 9, 12]
    a4_choices = [(7, 3), (9, 4), (13, 4), (15, 7), (15, 3)]

    def next_step(t: Graph, code: frozenset[int]) -> TreeBuildStep | None:
        op = rng.choice(["A1", "A2", "A2", "A3", "A4"])
        n = k = None
        if op == "A4":
            n, k = rng.choice(a4_choices)
        elif op != "A2":
            n = rng.choice(a1_choices)
        if t.n + (n or 1) > size_budget:
            return None
        return TreeBuildStep(op, rng.choice(sorted(code)), n, k)

    return _grow(initial, next_step)


# -- families without codes -----------------------------------------------------


def corona_family(class_mod4: int, length: int) -> Graph:
    """Pendant-per-vertex tree over a path whose length lies in one of the
    three classes 3, 0, 2 mod 4 (the classes whose base path admits a code
    while the pendant tree does not).
    """
    if class_mod4 not in (3, 0, 2):
        raise ValueError("the pendant families use length classes 3, 0 and 2 mod 4")
    if length < 1 or length % 4 != class_mod4:
        raise ValueError(f"length {length} is not {class_mod4} mod 4")
    return corona(make_path(length), make_complete(1))


def _caterpillar(
    name: str, base: int, code: list[int], hung: list[int]
) -> tuple[Graph, frozenset[int]]:
    """The path on `base` vertices with one pendant on each vertex of
    `hung`, and `code` once the verifier accepts it as its code."""
    edges = list(make_path(base).edges) + [(v, base + i) for i, v in enumerate(hung)]
    g = Graph(base + len(hung), edges, name=name)
    if not is_total_perfect_code(g, frozenset(code)):
        raise RuntimeError(f"the designated vertices of {name} are not a total perfect code")
    return g, frozenset(code)


def caterpillar_outer(k: int) -> tuple[Graph, frozenset[int]]:
    """Path of length 4k+6 with 2k+2 pendants on the leading outer-pair
    vertices {0,1,4,5,...}; that pair set is the code, verifier-checked.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = 4 * k + 6
    w = sorted(v for p in range(0, n, 4) for v in (p, p + 1))
    return _caterpillar(f"caterpillar_outer({k})", n, w, w[: 2 * k + 2])


def caterpillar_inner(n: int) -> tuple[Graph, frozenset[int]]:
    """Path on 4n-1 vertices with one pendant on each inner-pair vertex
    {1,2,5,6,...}; the 2n pair vertices form the code, verifier-checked.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = 4 * n - 1
    w = sorted(v for p in range(1, base - 1, 4) for v in (p, p + 1))
    return _caterpillar(f"caterpillar_inner({n})", base, w, w)


# -- Pruefer sequences -----------------------------------------------------------


def prufer_to_tree(seq) -> Graph:
    """Labelled tree on n = len(seq)+2 vertices from a Pruefer sequence."""
    seq = list(seq)
    n = len(seq) + 2
    if n == 2:
        return Graph(2, [(0, 1)])
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        for v in range(n):
            if degree[v] == 1:
                edges.append((s, v))
                degree[s] -= 1
                degree[v] -= 1
                break
    u, w = [v for v in range(n) if degree[v] == 1]
    edges.append((u, w))
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random labelled tree via a uniform Pruefer sequence."""
    if n < 2:
        raise ValueError("random trees start at two vertices")
    return prufer_to_tree([rng.randrange(n) for _ in range(n - 2)])


# -- bounded reverse-reduction probe ---------------------------------------------


def tree_canon(t: Graph) -> tuple:
    """Isomorphism-invariant encoding (AHU from the centroid centers)."""

    def encode(root: int, parent: int) -> tuple:
        subs = sorted(encode(w, root) for w in bits(t.neighbor_masks[root]) if w != parent)
        return tuple(subs)

    # centers: strip every leaf while more than two vertices remain
    masks = t.neighbor_masks
    alive = (1 << t.n) - 1
    while alive.bit_count() > 2:
        alive ^= sum(1 << v for v in bits(alive) if (masks[v] & alive).bit_count() <= 1)
    return tuple(sorted(encode(c, -1) for c in bits(alive)))


def _induced_tree(t: Graph, keep: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(keep)}
    masks = [sum(1 << pos[w] for w in bits(t.neighbor_masks[v]) if w in pos) for v in keep]
    return Graph.from_masks(masks)


def all_trees_upto(max_n: int) -> dict[int, list[Graph]]:
    """All trees up to isomorphism, by order, from iterated leaf extension
    with canonical-form deduplication; none when max_n is below one."""
    by_n: dict[int, list[Graph]] = {1: [Graph(1, [])]} if max_n >= 1 else {}
    for n in range(2, max_n + 1):
        seen = {}
        for t in by_n[n - 1]:
            for v in range(t.n):
                g = _attach_path(t, v, 1, 0)
                key = tree_canon(g)
                if key not in seen:
                    seen[key] = g
        by_n[n] = list(seen.values())
    return by_n


def _is_path_graph(t: Graph) -> bool:
    """Whether the tree t is a path: no vertex has more than two neighbours."""
    return all(m.bit_count() <= 2 for m in t.neighbor_masks)


def reducible_to_legal_path(t: Graph, _memo: dict | None = None) -> bool:
    """Whether the code-admitting tree can be shrunk to a path of legal
    length by reverse grow steps: deleting a leaf whose support lies in
    some code of the remainder, or detaching a hanging path that meets the
    A1/A4 length classes from an anchor lying in some code of the rest.
    """
    memo = _memo if _memo is not None else {}
    key = tree_canon(t)
    if key in memo:
        return memo[key]
    if _is_path_graph(t):
        memo[key] = t.n >= 2 and t.n % 4 != 1
        return memo[key]
    # reverse A2: delete one leaf
    for u in sorted(t.end_vertices()):
        (support,) = bits(t.neighbor_masks[u])
        keep = [v for v in range(t.n) if v != u]
        rest = _induced_tree(t, keep)
        if tree_tpc(rest, force_include=keep.index(support)) is None:
            continue
        if reducible_to_legal_path(rest, memo):
            memo[key] = True
            return True
    # reverse A1/A4: detach a hanging path across one edge
    for a, b in t.edges:
        for anchor, head in ((a, b), (b, a)):
            comp = _component_without_edge(t, head, anchor)
            piece = _induced_tree(t, sorted(comp))
            if not _is_path_graph(piece):
                continue
            n = piece.n
            is_endpoint = sum(w in comp for w in bits(t.neighbor_masks[head])) <= 1
            ok_a1 = is_endpoint and n >= 5 and n % 4 != 2
            ok_a4 = (not is_endpoint) and n % 2 == 1 and n % 8 != 3
            if not (ok_a1 or ok_a4):
                continue
            keep = [v for v in range(t.n) if v not in comp]
            rest = _induced_tree(t, keep)
            if tree_tpc(rest, force_include=keep.index(anchor)) is None:
                continue
            if reducible_to_legal_path(rest, memo):
                memo[key] = True
                return True
    memo[key] = False
    return False


def _component_without_edge(t: Graph, start: int, blocked: int) -> set[int]:
    comp = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in bits(t.neighbor_masks[v]):
            if w not in comp and w != blocked:
                comp.add(w)
                stack.append(w)
    return comp


def reduction_probe(max_n: int) -> tuple[int, int, list[str]]:
    """(trees checked, admitting trees, findings): every code-admitting
    tree up to max_n vertices should reduce to a legal path."""
    checked = 0
    admitting = 0
    findings: list[str] = []
    memo: dict = {}
    for n, forest in all_trees_upto(max_n).items():
        for t in forest:
            checked += 1
            if n < 2 or tree_tpc(t) is None:
                continue
            admitting += 1
            if not reducible_to_legal_path(t, memo):
                findings.append(f"irreducible code-admitting tree on {n} vertices: {t.edges}")
    return checked, admitting, findings
