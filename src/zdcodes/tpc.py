"""Total perfect code machinery for abstract graphs.

A total perfect code (efficient open dominating set) is a vertex set C with
|N(v) & C| = 1 for every vertex v, members of C included.  This module has
the verifier, the exact oracle (an exact-cover search, see `kernels`), a
linear tree dynamic program and the closed-form deciders for paths,
cycles, complete and complete bipartite graphs, each returning a
constructive code that the verifier accepts; `graph_routes` picks them by
the graph's shape, so any graph of that shape gets them.  It also holds
the verdict type every decider returns and `consensus`, the one rule that
joins the routes run on an instance.

Conventions (degenerate inputs are legal everywhere):

* the empty graph vacuously admits the empty code;
* a single vertex admits none (its neighbourhood is empty);
* disconnected graphs admit one iff every component does, and the solver
  handles them without splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import kernels
from .graphs import Graph, GraphError, bits


@dataclass(frozen=True)
class DeciderResult:
    """One route's answer on one instance.  `witness` holds the vertex or
    element ids the route found; `witness_names` is that witness as
    printed, sorted, named in the graph or ring the route ran on."""

    decider_id: str
    admits: bool
    witness: frozenset[int] | None = None
    witness_names: tuple | None = None

    def named(self, name=int) -> "DeciderResult":
        """Name the witness; `name` maps one id to its printed name (the
        default keeps vertex ids)."""
        if self.witness is None:
            return self
        return replace(self, witness_names=tuple(sorted(name(x) for x in self.witness)))


@dataclass(frozen=True)
class Verdict:
    """The routes run on one instance and the answer they give together
    (see `consensus`)."""

    name: str
    admits: bool
    witness: frozenset[int] | None
    witness_names: tuple | None
    deciders: tuple[DeciderResult, ...]
    cross_checked: bool
    discrepancy: bool
    #: why the verdict is flagged; empty when it is not
    notes: tuple[str, ...] = ()
    #: the graph the routes ran on, None when no route needed one
    graph: object = field(default=None, compare=False, repr=False)

    def to_obj(self) -> dict:
        """The verdict as JSON; `ring` holds the instance name."""
        return {
            "ring": self.name,
            "admits": self.admits,
            "witness": list(self.witness_names) if self.witness_names is not None else None,
            "deciders": [
                {
                    "id": d.decider_id,
                    "admits": d.admits,
                    "witness": list(d.witness_names) if d.witness_names is not None else None,
                }
                for d in self.deciders
            ],
            "cross_checked": self.cross_checked,
            "discrepancies": list(self.notes) if self.discrepancy else [],
        }


def consensus(name: str, results, notes: tuple[str, ...] = (), graph=None) -> Verdict:
    """The one rule that joins routes: when they agree, that is the answer;
    when they disagree, the first route whose id starts with "exact" wins
    and the verdict is flagged.  The witness is that of the first admitting
    route that has one.  `notes` are the disagreements a route's own nested
    routes raised; any flags this verdict too.  The verdict is cross-checked
    when some "exact" route ran."""
    results = tuple(results)
    answers = {r.admits for r in results}
    discrepancy = len(answers) > 1 or bool(notes)
    exact = next((r for r in results if r.decider_id.startswith("exact")), None)
    oracle = exact or results[0]
    chosen = next((r for r in results if r.admits and r.witness is not None), None)
    if len(answers) > 1:
        notes = notes + tuple(
            f"decider {r.decider_id} says {'admits' if r.admits else 'no code'}" for r in results
        )
    return Verdict(
        name=name,
        admits=oracle.admits,
        witness=chosen.witness if chosen else None,
        witness_names=chosen.witness_names if chosen else None,
        deciders=results,
        cross_checked=exact is not None,
        discrepancy=discrepancy,
        notes=notes,
        graph=graph,
    )


def is_total_perfect_code(g: Graph, code) -> bool:
    """Every vertex, code members included, has exactly one neighbour in
    `code`.  Read through the members only: their neighbourhoods cover
    every vertex and their sizes sum to n, which by double counting is
    one code neighbour per vertex."""
    covered = total = 0
    for v in frozenset(int(v) for v in code):
        if not (0 <= v < g.n):
            raise GraphError(f"code vertex {v} out of range")
        m = g.neighbor_masks[v]
        covered |= m
        total += m.bit_count()
    return total == g.n and covered == (1 << g.n) - 1


def find_tpc(g: Graph) -> frozenset[int] | None:
    """Lexicographically least total perfect code under sorted-vertex order,
    or None."""
    hits = kernels.cover_codes(g.neighbor_masks, 1, g.twins)
    return hits[0] if hits else None


#: most codes `enumerate_tpcs` lists before it gives up
MAX_CODES = 65536


def enumerate_tpcs(g: Graph) -> list[frozenset[int]]:
    """Every total perfect code, lexicographically ordered; a RuntimeError
    when there are more than MAX_CODES of them, raised from their count
    before any is built."""
    masks, twins = g.neighbor_masks, g.twins
    codes = kernels.representative_codes(masks, MAX_CODES + 1, twins)
    if kernels.lifted_count(codes, masks, twins) > MAX_CODES:
        raise RuntimeError(f"more than {MAX_CODES} total perfect codes; use find_tpc")
    return kernels.lift(codes, masks, twins, MAX_CODES)


# -- tree dynamic program ----------------------------------------------------


class NotATreeError(ValueError):
    pass


def tree_tpc(t: Graph, force_include: int | None = None) -> frozenset[int] | None:
    """Linear dynamic program over the tree rooted at `force_include`, or at
    vertex 0 without it; with it, the code must contain that vertex (the
    existential "v lies in some code" preconditions ask for this).

    A breadth-first walk keeps `kids[v]`, the bitmask of v's children.
    Bottom-up, four vertex bitmasks F[c][s] mark each v whose subtree has a
    code with v's membership c and s of v's children in it.  A child of a
    vertex with membership c needs need = 1 - c code children, so its own
    count lands on one; it is blocked when outside F[0][need].  (v, c, 0)
    is feasible when no child is blocked, (v, c, 1) when besides some child
    lies in F[1][need], or when the lone blocked child does.  Top-down, the
    code child of an s = 1 vertex is that lone blocked child, else the
    lowest child in F[1][need]; this pick rule fixes the witness.

    Agrees with find_tpc on existence by construction; the suites assert it.
    """
    n = t.n
    if t.edge_count != n - 1:
        raise NotATreeError(f"input is not a tree: {t.edge_count} edges on {n} vertices")
    if n == 1:
        return None
    root = force_include if force_include is not None else 0
    masks = t.neighbor_masks
    kids = [0] * n
    order = [root]
    seen = 1 << root
    for v in order:
        k = kids[v] = masks[v] & ~seen
        seen |= k
        while k:
            low = k & -k
            order.append(low.bit_length() - 1)
            k ^= low
    if len(order) != n:
        raise NotATreeError("input is not a tree: it is disconnected")

    # F[c][s] as four bitmasks: f01 is F[0][1], f10 is F[1][0] and so on
    f00 = f01 = f10 = f11 = 0
    for v in reversed(order):
        bit = 1 << v
        k = kids[v]
        if v != force_include:  # c = 0: each child needs one code child
            blocked = k & ~f01
            if not blocked:
                f00 |= bit
            if not blocked & (blocked - 1) and (blocked or k) & f11:
                f01 |= bit
        blocked = k & ~f00  # c = 1: each child needs none
        if not blocked:
            f10 |= bit
        if not blocked & (blocked - 1) and (blocked or k) & f10:
            f11 |= bit

    if not (f01 | f11) >> root & 1:
        return None
    inside = 0 if f01 >> root & 1 else 1 << root  # the root stays out when it may
    # top-down: `inside` marks code members, `one` the vertices with s = 1
    one = 1 << root
    for v in order:
        k = kids[v]
        if inside >> v & 1:
            out, member = f00, f10
        else:
            out, member = f01, f11
            one |= k
        if one >> v & 1:
            pick = (k & ~out or k) & member
            inside |= pick & -pick
    return frozenset(bits(inside))


# -- closed-form deciders ----------------------------------------------------


def path_decider(n: int) -> bool:
    """Paths admit a code except when n is 1 modulo 4, P_1 included."""
    if n < 1:
        raise ValueError("path decider needs n >= 1")
    return n % 4 != 1


def path_code(n: int) -> frozenset[int]:
    """The constructive code (0-indexed) for an admitting path length:
    pairs {1,2},{5,6},... for n = 0 mod 4, {0,1},{4,5},... otherwise.
    """
    if not path_decider(n):
        raise ValueError(f"P_{n} admits no total perfect code (n = 1 mod 4)")
    start = 1 if n % 4 == 0 else 0
    return frozenset(v for p in range(start, n - 1, 4) for v in (p, p + 1))


def cycle_decider(n: int) -> bool:
    if n < 3:
        raise ValueError("cycle decider needs n >= 3")
    return n % 4 == 0


def cycle_code(n: int) -> frozenset[int]:
    if not cycle_decider(n):
        raise ValueError(f"C_{n} admits no total perfect code (n != 0 mod 4)")
    return frozenset(v for p in range(0, n, 4) for v in (p, p + 1))


def complete_decider(n: int) -> bool:
    if n < 1:
        raise ValueError("complete decider needs n >= 1")
    return n == 2


def complete_bipartite_code(m: int, n: int) -> frozenset[int]:
    """First vertex of each part; any cross pair works in K_{m,n}."""
    if m < 1 or n < 1:
        raise ValueError("complete bipartite needs m, n >= 1")
    return frozenset({0, m})


def regular_parity_check(g: Graph) -> bool | None:
    """Some(False) when a t-regular graph has odd order (no code can
    exist); None otherwise - even order alone proves nothing.
    """
    if g.n % 2 and g.is_regular():  # None, and 0 on an edgeless graph, are falsy
        return False
    return None


def graph_routes(g: Graph) -> list[DeciderResult]:
    """Every closed-form route whose shape the graph has, in this order:
    path- or cycle-congruence (the code mapped through `Graph.walk`),
    complete-size, complete-bipartite-construction (the least vertex of
    each side), tree-solver and regular-parity.  Witnesses are vertex ids."""
    n, edges = g.n, g.edge_count
    routes = []
    walk = g.walk()
    if walk is not None:
        kind, decider, code = (
            ("path", path_decider, path_code) if edges == n - 1
            else ("cycle", cycle_decider, cycle_code)
        )
        admits = decider(n)
        witness = frozenset(walk[i] for i in code(n)) if admits else None
        routes.append(DeciderResult(f"{kind}-congruence", admits, witness))
    if n and 2 * edges == n * (n - 1):
        routes.append(DeciderResult("complete-size", complete_decider(n)))
    sides = g.complete_bipartite_sides()
    if sides is not None:
        witness = frozenset((s & -s).bit_length() - 1 for s in sides)
        routes.append(DeciderResult("complete-bipartite-construction", True, witness))
    if edges == n - 1 and g.is_connected():  # a tree
        code = tree_tpc(g)
        routes.append(DeciderResult("tree-solver", code is not None, code))
    parity = regular_parity_check(g)
    if parity is not None:
        routes.append(DeciderResult("regular-parity", parity))
    return routes


# -- end-vertex probe --------------------------------------------------------


@dataclass(frozen=True)
class EndVertexReport:
    """Empirical probe: does some code avoid every end vertex?  The claim
    holds for some graphs and provably fails for others (P_7), so this is
    reporting, never an assumed fact.
    """

    excluded: bool  # hypothesis not met (order < 3 or a star)
    tpc_exists: bool
    some_code_avoids_ends: bool | None
    codes_checked: int
    note: str = ""
    findings: tuple[str, ...] = field(default_factory=tuple)


def end_vertex_analysis(g: Graph) -> EndVertexReport:
    codes = enumerate_tpcs(g)
    if not codes:
        return EndVertexReport(False, False, None, 0, note="no code exists")
    excluded = g.n < 3 or g.is_star()
    ends = g.end_vertices()
    avoids = any(not (c & ends) for c in codes)
    note = "hypothesis excluded (order < 3 or star)" if excluded else ""
    findings: tuple[str, ...] = ()
    if not excluded and not avoids:
        findings = (
            f"graph {g.name}: every one of {len(codes)} codes touches an end vertex",
        )
    return EndVertexReport(excluded, True, avoids, len(codes), note, findings)
