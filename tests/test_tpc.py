import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcodes.graphs import (
    Graph,
    bits,
    corona,
    fixture_graph8,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
)
from zdcodes.tpc import (
    DeciderResult,
    NotATreeError,
    complete_bipartite_code,
    complete_decider,
    consensus,
    cycle_code,
    cycle_decider,
    end_vertex_analysis,
    enumerate_tpcs,
    find_tpc,
    is_total_perfect_code,
    path_code,
    path_decider,
    graph_routes,
    regular_parity_check,
    tree_tpc,
)
from zdcodes.trees import prufer_to_tree, random_tree


def brute_tpcs(g: Graph) -> list[frozenset[int]]:
    """Independent oracle: check |N(v) & C| = 1 over every vertex subset."""
    out = []
    for r in range(g.n + 1):
        for c in combinations(range(g.n), r):
            cs = set(c)
            if all(len(set(bits(g.neighbor_masks[v])) & cs) == 1 for v in range(g.n)):
                out.append(frozenset(c))
    return sorted(out, key=sorted)


def small_corpus():
    rng = random.Random(11)
    gs = [
        Graph(0, []),
        Graph(1, []),
        make_path(2),
        make_path(4),
        make_path(5),
        make_path(7),
        make_cycle(4),
        make_cycle(6),
        make_cycle(8),
        make_complete(3),
        make_complete(5),
        make_complete_bipartite(2, 3),
        make_star(5),
        fixture_graph8(),
        corona(make_path(3), make_complete(1)),
        Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8)]),
    ]
    for _ in range(25):
        n = rng.randint(2, 11)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        gs.append(Graph(n, sorted(edges)))
    return gs


def test_verifier_examples():
    assert is_total_perfect_code(fixture_graph8(), {0, 1, 6, 7})
    assert is_total_perfect_code(make_path(4), {1, 2})
    assert not is_total_perfect_code(make_complete(3), {0, 1})
    assert is_total_perfect_code(Graph(0, []), set())
    assert not is_total_perfect_code(Graph(1, []), set())


def test_verifier_large_uses_bitmask_path():
    g = make_cycle(80)
    code = cycle_code(80)
    assert is_total_perfect_code(g, code)
    assert not is_total_perfect_code(g, set(list(code)[:-1]))


def test_find_examples():
    assert find_tpc(make_path(5)) is None
    assert find_tpc(make_path(4)) == {1, 2}
    assert find_tpc(make_cycle(4)) == {0, 1}
    assert find_tpc(Graph(0, [])) == frozenset()
    assert find_tpc(Graph(1, [])) is None


@pytest.mark.parametrize("g", small_corpus(), ids=lambda g: f"{g.name}-{g.n}v{len(g.edges)}e")
def test_find_and_enumerate_match_bruteforce(g):
    oracle = brute_tpcs(g)
    got = find_tpc(g)
    assert (got is not None) == bool(oracle)
    if oracle:
        assert got == oracle[0]  # lexicographically least under sorted-sequence order
    assert enumerate_tpcs(g) == oracle


def test_find_is_deterministic():
    g = fixture_graph8()
    assert find_tpc(g) == find_tpc(g)


def test_enumeration_bound():
    # no vertex bound: a 30-vertex path enumerates in full
    g = make_path(30)
    codes = enumerate_tpcs(g)
    assert codes and codes[0] == find_tpc(g)
    assert all(is_total_perfect_code(g, c) for c in codes)
    # the one bound is the result buffer: nine disjoint 4-cycles have 4**9 codes
    c4s = Graph(36, [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(9) for j in range(4)])
    with pytest.raises(RuntimeError, match="find_tpc"):
        enumerate_tpcs(c4s)
    assert find_tpc(c4s) == frozenset(v for i in range(9) for v in (4 * i, 4 * i + 1))


def test_enumerate_examples():
    assert enumerate_tpcs(make_path(2)) == [frozenset({0, 1})]
    assert enumerate_tpcs(make_path(5)) == []
    assert frozenset({0, 1, 4, 5}) in enumerate_tpcs(make_cycle(8))


# -- closed forms ------------------------------------------------------------


def test_path_decider_against_exact():
    for n in range(2, 25):
        assert path_decider(n) == (find_tpc(make_path(n)) is not None)
        if path_decider(n):
            assert is_total_perfect_code(make_path(n), path_code(n))


def test_path_examples():
    assert not path_decider(5)
    assert path_decider(2) and path_code(2) == {0, 1}
    assert path_decider(4) and path_code(4) == {1, 2}
    with pytest.raises(ValueError):
        path_code(9)
    assert not path_decider(1)  # P_1 is a single vertex
    with pytest.raises(ValueError):
        path_decider(0)


def test_cycle_decider_against_exact():
    for n in range(3, 25):
        assert cycle_decider(n) == (find_tpc(make_cycle(n)) is not None)
        if cycle_decider(n):
            code = cycle_code(n)
            assert is_total_perfect_code(make_cycle(n), code)
            assert 2 * len(code) == n  # regular counting identity at t=2


def test_cycle_examples():
    assert cycle_decider(4) and cycle_code(4) == {0, 1}
    assert not cycle_decider(6)
    assert cycle_code(8) == {0, 1, 4, 5}
    with pytest.raises(ValueError):
        cycle_code(6)


def test_complete_decider():
    for n in range(1, 10):
        assert complete_decider(n) == (find_tpc(make_complete(n)) is not None)
    assert complete_decider(2)
    assert not complete_decider(3)
    assert not complete_decider(10)


def test_complete_bipartite_codes():
    for m in range(1, 7):
        for n in range(m, 7):
            code = complete_bipartite_code(m, n)
            assert code == {0, m}
            assert is_total_perfect_code(make_complete_bipartite(m, n), code)


@st.composite
def shaped_graphs(draw):
    """(route id, graph): a path, cycle, complete graph, K_{m,n} or random
    tree with its vertices relabelled by a random permutation."""
    route = draw(st.sampled_from(["path", "cycle", "complete", "kmn", "tree"]))
    if route == "path":
        g = make_path(draw(st.integers(1, 14)))
    elif route == "cycle":
        g = make_cycle(draw(st.integers(3, 14)))
    elif route == "complete":
        g = make_complete(draw(st.integers(1, 8)))
    elif route == "kmn":
        g = make_complete_bipartite(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    else:
        n = draw(st.integers(2, 14))
        g = prufer_to_tree(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    perm = draw(st.permutations(range(g.n)))
    ids = {"path": "path-congruence", "cycle": "cycle-congruence", "complete": "complete-size",
           "kmn": "complete-bipartite-construction", "tree": "tree-solver"}
    return ids[route], Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


@settings(max_examples=300, deadline=None)
@given(shaped_graphs())
def test_graph_routes_agree_with_the_exact_search(shaped):
    # the shape is recognised under any relabelling, and every route's
    # answer and witness holds against the exact search and the verifier
    route, g = shaped
    routes = graph_routes(g)
    assert route in [r.decider_id for r in routes]
    exact = find_tpc(g) is not None
    for r in routes:
        assert r.admits == exact, r.decider_id
        assert r.witness is None or is_total_perfect_code(g, r.witness), r.decider_id


def test_regular_parity():
    assert regular_parity_check(make_cycle(5)) is False
    assert regular_parity_check(fixture_graph8()) is None
    assert regular_parity_check(make_cycle(6)) is None
    assert regular_parity_check(make_complete(7)) is False


def test_matching_and_evenness_for_all_found_codes():
    for g in small_corpus():
        for code in brute_tpcs(g):
            assert len(code) % 2 == 0
            assert all(len(set(bits(g.neighbor_masks[v])) & code) == 1 for v in code)


# -- tree dynamic program ------------------------------------------------------


def test_tree_solver_examples():
    assert tree_tpc(make_path(2)) == {0, 1}
    assert tree_tpc(corona(make_path(3), make_complete(1))) is None
    p7 = tree_tpc(make_path(7))
    assert p7 is not None and is_total_perfect_code(make_path(7), p7)
    with pytest.raises(NotATreeError):
        tree_tpc(make_cycle(4))
    with pytest.raises(NotATreeError):
        tree_tpc(Graph(3, [(0, 1)]))
    # n - 1 edges but disconnected: a triangle plus an isolated vertex
    with pytest.raises(NotATreeError):
        tree_tpc(Graph(4, [(0, 1), (0, 2), (1, 2)]))


def test_tree_solver_against_exact_on_random_trees():
    rng = random.Random(424242)
    for _ in range(300):
        t = random_tree(rng, rng.randint(2, 12))
        dp = tree_tpc(t)
        exact = find_tpc(t)
        assert (dp is None) == (exact is None)
        if dp is not None:
            assert is_total_perfect_code(t, dp)


def test_tree_forced_membership():
    p4 = make_path(4)
    assert tree_tpc(p4, force_include=1) == {1, 2}
    assert tree_tpc(p4, force_include=0) is None
    p7 = make_path(7)
    for v in range(7):
        forced = tree_tpc(p7, force_include=v)
        brute = [c for c in brute_tpcs(p7) if v in c]
        assert (forced is not None) == bool(brute)
        if forced is not None:
            assert v in forced and is_total_perfect_code(p7, forced)


def _nested_list_tree_tpc(t: Graph, force_include: int | None = None):
    """The tree dynamic program as it stood on nested parent, children,
    feasibility and pick lists, kept as the reference that the bitmask
    version must match witness for witness."""
    n = t.n
    if t.edge_count != n - 1:
        raise NotATreeError(f"input is not a tree: {t.edge_count} edges on {n} vertices")
    if n == 1:
        return None
    root = force_include if force_include is not None else 0
    parent = [-1] * n
    order = [root]
    for v in order:
        for w in bits(t.neighbor_masks[v]):
            if w != parent[v] and parent[w] == -1 and w != root:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise NotATreeError("input is not a tree: it is disconnected")
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)

    feasible = [[[False, False], [False, False]] for _ in range(n)]
    pick = [[[None, None], [None, None]] for _ in range(n)]
    for v in reversed(order):
        for c in (0, 1):
            if force_include is not None and v == force_include and c == 0:
                continue
            need = 1 - c
            ok_out = all(feasible[u][0][need] for u in children[v])
            feasible[v][c][0] = ok_out
            if ok_out:
                for u in children[v]:
                    if feasible[u][1][need]:
                        feasible[v][c][1] = True
                        pick[v][c][1] = u
                        break
            else:
                blocked = [u for u in children[v] if not feasible[u][0][need]]
                if len(blocked) == 1 and feasible[blocked[0]][1][need]:
                    feasible[v][c][1] = True
                    pick[v][c][1] = blocked[0]

    root_c = next((c for c in (0, 1) if feasible[root][c][1]), None)
    if root_c is None:
        return None

    code: set[int] = set()
    stack = [(root, root_c, 1)]
    while stack:
        v, c, s = stack.pop()
        if c:
            code.add(v)
        chosen = pick[v][c][s]
        need = 1 - c
        for u in children[v]:
            if u == chosen:
                stack.append((u, 1, need))
            else:
                stack.append((u, 0, need))
    return frozenset(code)


@st.composite
def prufer_trees(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    return prufer_to_tree(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))


@settings(max_examples=300, deadline=None)
@given(prufer_trees())
def test_tree_solver_matches_the_nested_list_version(t):
    for force in (None, *range(t.n)):
        assert tree_tpc(t, force) == _nested_list_tree_tpc(t, force)


def _not_a_tree_message(solver, g, force):
    with pytest.raises(NotATreeError) as exc:
        solver(g, force)
    return str(exc.value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tree_solver_rejects_near_trees_like_the_nested_list_version(data):
    t = data.draw(prufer_trees(max_n=20))
    edges = list(t.edges)
    non_edges = [(a, b) for a in range(t.n) for b in range(a + 1, t.n) if (a, b) not in edges]
    if not non_edges:
        return
    if data.draw(st.booleans()):
        # cut one edge and close a cycle inside one side: n - 1 edges, disconnected
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
        side = Graph(t.n, edges).connected_components()[0]
        inside = [(a, b) for a, b in non_edges if a in side and b in side]
        if not inside:
            return
        edges.append(data.draw(st.sampled_from(inside)))
    else:
        edges.append(data.draw(st.sampled_from(non_edges)))
    g = Graph(t.n, edges)
    for force in (None, data.draw(st.integers(0, t.n - 1))):
        assert _not_a_tree_message(tree_tpc, g, force) == _not_a_tree_message(
            _nested_list_tree_tpc, g, force
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verifier_matches_the_per_vertex_definition(data):
    if data.draw(st.booleans()):
        g = data.draw(prufer_trees(max_n=12))
    else:
        n = data.draw(st.integers(0, 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    vertices = st.integers(0, g.n - 1) if g.n else st.nothing()
    code = data.draw(st.sets(vertices))
    found = find_tpc(g)
    if found is not None and g.n and data.draw(st.booleans()):
        # a code, or a near miss one vertex away from it
        code = set(found) ^ data.draw(st.sets(vertices, max_size=1))
    per_vertex = all(sum(m >> c & 1 for c in code) == 1 for m in g.neighbor_masks)
    assert is_total_perfect_code(g, code) == per_vertex


# -- end-vertex probe ------------------------------------------------------------


def test_end_vertex_probe():
    rep = end_vertex_analysis(make_path(4))
    assert rep.tpc_exists and rep.some_code_avoids_ends and not rep.excluded

    rep = end_vertex_analysis(make_path(2))
    assert rep.excluded and rep.some_code_avoids_ends is False

    rep = end_vertex_analysis(make_path(3))
    assert rep.excluded  # a star falls outside the claimed hypothesis

    # P7 refutes the claim: both of its codes touch an end vertex
    rep = end_vertex_analysis(make_path(7))
    assert not rep.excluded and rep.some_code_avoids_ends is False
    assert rep.findings

    rep = end_vertex_analysis(make_path(5))
    assert not rep.tpc_exists and rep.codes_checked == 0


def test_consensus_rule():
    code = DeciderResult("structural", True, frozenset({2, 1})).named()
    assert code.witness_names == (1, 2)
    # agreement: that answer; the witness is the first admitting one that has one
    v = consensus("G", [DeciderResult("parity", True), code])
    assert v.admits and not v.discrepancy and v.witness == {1, 2} and not v.notes
    assert not v.cross_checked  # no exact route ran
    # disagreement: the first exact route wins and the verdict is flagged
    routes = [code, DeciderResult("exact-pair", False), DeciderResult("exact-search", True)]
    v = consensus("G", routes)
    assert v.discrepancy and not v.admits and v.witness_names == (1, 2) and v.cross_checked
    assert "decider exact-pair says no code" in v.notes
    assert v.to_obj()["discrepancies"] == list(v.notes)
    # no exact route: the first route wins
    v = consensus("G", [DeciderResult("a", False), code])
    assert v.discrepancy and not v.admits and not v.cross_checked
    v = consensus("G", [DeciderResult("vacuous", True, frozenset(), ())])
    assert v.admits and v.witness == frozenset() and v.witness_names == ()
    # a disagreement among a route's nested routes flags the verdict
    v = consensus("G", [code, DeciderResult("exact-pair", True)], notes=("nested says no",))
    assert v.discrepancy and v.admits and v.notes == ("nested says no",)
