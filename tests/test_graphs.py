import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver import gnp_graphs, twin_blowups
from test_tpc import shaped_graphs
from zdcodes import graphs, suites
from zdcodes.graphs import (
    Graph,
    GraphError,
    LazyLabels,
    articulation_points,
    bits,
    corona,
    diameter,
    fixture_graph8,
    is_matching,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
)
from zdcodes.rings import make_product, make_zn
from zdcodes.trees import prufer_to_tree
from zdcodes.zdg import zero_divisor_graph


def test_generator_edge_counts():
    for n in range(1, 12):
        assert len(make_path(n).edges) == n - 1
        assert len(make_complete(n).edges) == n * (n - 1) // 2
    for n in range(3, 12):
        assert len(make_cycle(n).edges) == n
    for m in range(1, 5):
        for n in range(1, 5):
            assert len(make_complete_bipartite(m, n).edges) == m * n


def test_mask_built_generators_match_the_edge_built_graphs():
    for n in range(1, 13):
        ref = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], name=f"K{n}")
        assert make_complete(n) == ref and make_complete(n).name == ref.name
        for m in range(1, 13):
            ref = Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)], name=f"K{m},{n}")
            assert make_complete_bipartite(m, n) == ref
            assert make_complete_bipartite(m, n).name == ref.name


def test_lazy_labels_take_any_integer_vertex():
    labels = LazyLabels(5, str)
    assert np.int64(3) in labels and np.uint8(4) in labels
    assert 3.0 not in labels and 5 not in labels and "3" not in labels


def test_corona_counts():
    for g in (make_path(3), make_cycle(4), make_complete(3)):
        for h in (make_complete(1), make_path(2), make_complete(3)):
            c = corona(g, h)
            assert c.n == g.n + g.n * h.n
            assert len(c.edges) == len(g.edges) + g.n * (len(h.edges) + h.n)


def test_corona_small_shapes():
    assert corona(make_complete(1), make_complete(1)).edges == ((0, 1),)
    c = corona(make_path(2), make_complete(1))
    # a-b path with pendants a', b' is a 4-vertex path shape
    assert c.is_tree() and sorted(c.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_star_is_complete_bipartite_1n():
    assert make_star(3).edges == make_complete_bipartite(1, 3).edges
    # a star is K_{1,k}, whichever side holds the centre
    for m in range(1, 5):
        for n in range(1, 5):
            assert make_complete_bipartite(m, n).is_star() == (min(m, n) == 1)
    assert make_path(3).is_star() and not make_path(4).is_star()
    assert not make_complete(1).is_star() and not Graph(3, [(0, 1)]).is_star()


def _nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=300, deadline=None)
@given(st.one_of(gnp_graphs(max_n=12), shaped_graphs().map(lambda s: s[1])))
def test_shape_recognisers_match_networkx(g):
    h = _nx(g)
    connected = g.n > 0 and nx.is_connected(h)
    walk = g.walk()
    assert (walk is not None) == (connected and max(d for _, d in h.degree) <= 2)
    if walk is not None:
        assert sorted(walk) == list(range(g.n))
        assert all(h.has_edge(a, b) for a, b in zip(walk, walk[1:]))
    sides = g.complete_bipartite_sides()
    kmn = connected and g.n >= 2 and nx.is_bipartite(h)
    if kmn:
        a, b = nx.bipartite.sets(h)
        kmn = g.edge_count == len(a) * len(b)
    assert (sides is not None) == kmn
    if sides is not None:
        own, other = (set(bits(s)) for s in sides)
        assert 0 in own and own | other == set(range(g.n))
        assert all(h.has_edge(x, y) for x in own for y in other)


def test_fixture8():
    g = fixture_graph8()
    assert g.n == 8
    assert g.edges == tuple(sorted(graphs.FIXTURE8_EDGES))
    assert g.degree_sequence() == (2, 2, 3, 3, 3, 3, 2, 2)
    assert g.is_regular() is None


def test_degrees_and_regularity():
    assert make_path(3).degree(1) == 2
    assert make_cycle(5).is_regular() == 2
    assert make_complete(4).is_regular() == 3
    assert make_path(4).is_regular() is None


def test_diameter_examples():
    assert diameter(make_path(4)) == 3
    assert diameter(make_complete(5)) == 1
    assert diameter(Graph(3, [(0, 1)])) == math.inf
    assert diameter(Graph(1, [])) == 0


def test_articulation_examples():
    assert articulation_points(make_path(3)) == {1}
    assert articulation_points(make_cycle(6)) == frozenset()
    assert articulation_points(fixture_graph8()) == frozenset()


def _bruteforce_cuts(g: Graph) -> frozenset[int]:
    out = set()
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        pos = {u: i for i, u in enumerate(keep)}
        h = Graph(len(keep), [(pos[a], pos[b]) for a, b in g.edges if a != v and b != v])
        n_before = len(g.connected_components())
        n_after = len(h.connected_components())
        # removing an isolated vertex never disconnects; count components ignoring it
        if n_after > n_before - (1 if g.degree(v) == 0 else 0):
            out.add(v)
    return frozenset(out)


def _floyd_warshall_diameter(g: Graph):
    inf = math.inf
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for a, b in g.edges:
        d[a][b] = d[b][a] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    best = max((d[i][j] for i in range(g.n) for j in range(g.n)), default=0)
    return best


def _corpus():
    rng = random.Random(7)
    graphs_ = [
        make_path(1),
        make_path(2),
        make_path(7),
        make_cycle(5),
        make_cycle(8),
        make_complete(5),
        make_complete_bipartite(2, 3),
        make_star(4),
        fixture_graph8(),
        corona(make_path(3), make_complete(1)),
        Graph(5, []),
        Graph(6, [(0, 1), (2, 3), (3, 4)]),
    ]
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = set()
        for _ in range(rng.randint(0, n * 2)):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        graphs_.append(Graph(n, sorted(edges)))
    return graphs_


@pytest.mark.parametrize("g", _corpus(), ids=lambda g: f"{g.name}-{g.n}v{len(g.edges)}e")
def test_articulation_matches_bruteforce(g):
    assert articulation_points(g) == _bruteforce_cuts(g)


@pytest.mark.parametrize("g", _corpus(), ids=lambda g: f"{g.name}-{g.n}v{len(g.edges)}e")
def test_diameter_matches_floyd_warshall(g):
    assert diameter(g) == _floyd_warshall_diameter(g)


def test_is_matching():
    assert is_matching(make_path(4), {1, 2})
    assert not is_matching(make_complete(3), {0, 1, 2})
    assert is_matching(make_complete(3), set())
    with pytest.raises(GraphError):
        is_matching(make_path(3), {9})


def test_construction_errors():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])
    with pytest.raises(GraphError):
        make_cycle(2)


def test_json_round_trip_and_stability():
    g = Graph(4, [(2, 3), (0, 1)], labels={0: "a", 3: "b"}, name="t")
    text = graphs.to_json(g)
    assert graphs.from_json(text, name="t") == g
    assert graphs.to_json(g) == text  # byte-stable
    obj = graphs.to_json_obj(g)
    assert obj["edges"] == [[0, 1], [2, 3]]
    assert obj["labels"] == {"0": "a", "3": "b"}


def test_dot_deterministic():
    g = fixture_graph8().relabeled({0: "v1"})
    d1, d2 = graphs.to_dot(g), graphs.to_dot(g)
    assert d1 == d2
    assert '0 [label="v1"];' in d1
    assert "0 -- 1;" in d1


@st.composite
def labelled_graphs(draw):
    """G(n, p) graphs with no labels, or text labels on any set of vertices."""
    g = draw(gnp_graphs(max_n=12))
    if g.n == 0 or draw(st.booleans()):
        return g
    labels = draw(st.dictionaries(st.integers(0, g.n - 1), st.text(max_size=8)))
    return g.relabeled(labels, name=draw(st.text(max_size=8)))


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
def test_export_round_trip(g):
    text = graphs.to_json(g)
    assert graphs.from_json(text) == g
    assert graphs.to_json(graphs.from_json(text)) == text
    dot = graphs.to_dot(g)
    assert graphs.to_dot(g) == dot
    lines = dot.split("\n")
    # header, one line per vertex, one line per edge, footer, final newline
    assert len(lines) == g.n + len(g.edges) + 3 and lines[-2:] == ["}", ""]
    assert lines[g.n + 1 : -2] == [f"  {a} -- {b};" for a, b in g.edges]


def test_dot_quotes_names_and_labels():
    g = Graph(2, [(0, 1)], labels={0: 'a"b\\c\nd'}, name='say "hi"')
    assert graphs.to_dot(g) == (
        'graph "say \\"hi\\"" {\n  0 [label="a\\"b\\\\c\\nd"];\n  1;\n  0 -- 1;\n}\n'
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_neighbor_masks_match_networkx(data):
    n = data.draw(st.integers(0, 20))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips)]
    g = Graph(n, edges)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    assert g.neighbor_masks == tuple(sum(1 << w for w in h.adj[v]) for v in range(n))
    assert g.edges == tuple(sorted(chosen))
    assert g.degree_sequence() == tuple(h.degree[v] for v in range(n))
    assert g.edge_count == h.number_of_edges()


# -- networkx as an independent reference ------------------------------------


def _nx_reference(g: Graph):
    """(diameter, articulation points, connected) by networkx, under this
    package's conventions for the empty and disconnected graphs."""
    if g.n == 0:
        return 0, frozenset(), True
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    connected = nx.is_connected(h)
    diam = nx.diameter(h) if connected else math.inf
    return diam, frozenset(nx.articulation_points(h)), connected


def _ours(g: Graph):
    return diameter(g), articulation_points(g), g.is_connected()


@settings(max_examples=200, deadline=None)
@given(gnp_graphs(max_n=20))
def test_metrics_match_networkx_on_random_graphs(g):
    assert _ours(g) == _nx_reference(g)


@st.composite
def near_trees(draw, max_n=20):
    """A Pruefer tree on 1..max_n vertices, kept whole, less one edge or
    plus one edge."""
    n = draw(st.integers(1, max_n))
    length = max(n - 2, 0)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    edges = list(prufer_to_tree(seq).edges) if n > 1 else []
    change = draw(st.sampled_from(["keep", "drop", "add"]))
    if change == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    absent = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    if change == "add" and absent:
        edges.append(draw(st.sampled_from(absent)))
    return Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(st.one_of(gnp_graphs(max_n=20).filter(lambda g: g.n >= 1), near_trees()))
def test_is_tree_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = nx.is_tree(h)
    assert g.is_tree() == expected
    assert g.is_tree() == expected  # answered from the cache


def test_metrics_match_networkx_on_zero_divisor_graphs():
    for n in range(2, 201):
        g = zero_divisor_graph(make_zn(n)).graph
        assert _ours(g) == _nx_reference(g), f"Gamma(Z{n})"


# -- the diameter as it stood before it moved to twin-class representatives --


def _per_neighbourhood_diameter(g: Graph):
    """One breadth-first search over every vertex from each distinct
    neighbourhood; kept as the reference for the search on representatives."""
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    best = 0
    for v in dict(zip(masks, range(g.n))).values():
        seen = 0
        for depth, layer in enumerate(graphs._layers(masks, 1 << v)):
            seen |= layer
        if seen != full:
            return math.inf
        best = max(best, depth)
    return best


def test_diameter_matches_reference_on_zero_divisor_graphs():
    for n in range(2, 301):
        g = zero_divisor_graph(make_zn(n)).graph
        assert diameter(g) == _per_neighbourhood_diameter(g), f"Gamma(Z{n})"
    lpool, fpool = suites._mixed_pools()
    for lc, fc in suites._mixed_instances(128):
        g = zero_divisor_graph(make_product([lpool[i] for i in lc] + [fpool[i] for i in fc])).graph
        assert diameter(g) == _per_neighbourhood_diameter(g), g.name


@settings(max_examples=200, deadline=None)
@given(twin_blowups(max_base=8))
def test_diameter_matches_reference_on_twin_blowups(g):
    assert diameter(g) == _per_neighbourhood_diameter(g)
