"""The bitset exact-cover solver against brute force: same codes, same order,
and the first of them is the `find_tpc` witness."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_tpc import brute_tpcs
from zdcodes import kernels
from zdcodes.graphs import Graph, make_complete_bipartite, make_cycle, make_path
from zdcodes.rings import make_zn
from zdcodes.tpc import enumerate_tpcs, find_tpc, is_total_perfect_code
from zdcodes.zdg import zero_divisor_graph


@st.composite
def gnp_graphs(draw, max_n=14):
    """G(n, p): each of the n(n-1)/2 possible edges present with probability p."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 1.0))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, u in zip(pairs, keep) if u < p])


def _families():
    gs = [make_path(n) for n in range(1, 15)]
    gs += [make_cycle(n) for n in range(3, 15)]
    gs += [make_complete_bipartite(m, n) for m in range(1, 7) for n in range(m, 8)]
    return gs


def _check_against_brute(g: Graph):
    oracle = brute_tpcs(g)
    assert enumerate_tpcs(g) == oracle
    assert find_tpc(g) == (oracle[0] if oracle else None)
    codes_on_edges = [e for e in g.edges if frozenset(e) in oracle]
    assert kernels.pair_sweep(g.neighbor_masks, g.twins) == (codes_on_edges[0] if codes_on_edges else None)


@settings(max_examples=150, deadline=None)
@given(gnp_graphs())
def test_random_graphs_match_bruteforce(g):
    _check_against_brute(g)


@pytest.mark.parametrize("g", _families(), ids=lambda g: g.name)
def test_families_match_bruteforce(g):
    _check_against_brute(g)


def test_gamma_z720_has_no_code_quickly():
    g = zero_divisor_graph(make_zn(720)).graph
    t0 = time.perf_counter()
    assert find_tpc(g) is None
    assert time.perf_counter() - t0 < 5.0


def test_gamma_z4096_witness_is_the_least_edge():
    g = zero_divisor_graph(make_zn(4096)).graph
    assert g.n == 2047
    code = find_tpc(g)
    assert code == frozenset(kernels.pair_sweep(g.neighbor_masks, g.twins))
    assert is_total_perfect_code(g, code)


def test_gamma_z4096_enumerates_its_1024_pairs():
    g = zero_divisor_graph(make_zn(4096)).graph
    t0 = time.perf_counter()
    codes = enumerate_tpcs(g)
    assert time.perf_counter() - t0 < 5.0
    assert len(codes) == 1024 and codes[0] == find_tpc(g)
    assert all(len(c) == 2 and is_total_perfect_code(g, c) for c in codes)


@st.composite
def twin_blowups(draw, max_base=4, bases=None):
    """A small G(n, p), or a graph drawn from `bases`, with every vertex
    replaced by 1-4 twins: copies of v are pairwise non-adjacent and each is
    joined to every copy of each neighbour of v, so all copies share one
    neighbourhood."""
    base = draw(gnp_graphs(max_n=max_base) if bases is None else bases)
    sizes = draw(st.lists(st.integers(1, 4), min_size=base.n, max_size=base.n))
    starts = [sum(sizes[:v]) for v in range(base.n)]
    copies = [range(s, s + k) for s, k in zip(starts, sizes)]
    edges = [(x, y) for a, b in base.edges for x in copies[a] for y in copies[b]]
    return Graph(sum(sizes), edges)


@settings(max_examples=60, deadline=None)
@given(twin_blowups())
def test_twin_blowups_match_bruteforce(g):
    _check_against_brute(g)


def test_twins_are_kept_when_their_sibling_has_codes():
    # 0 and 2 are twins, as are 1 and 3; codes through 0 must not hide {1,2}, {2,3}
    assert enumerate_tpcs(make_cycle(4)) == brute_tpcs(make_cycle(4))
    assert len(enumerate_tpcs(make_cycle(4))) == 4


def test_gamma_z3633_twin_pruned_refutation():
    g = zero_divisor_graph(make_zn(3633)).graph
    assert g.n == 1568
    t0 = time.perf_counter()
    assert find_tpc(g) is None
    assert time.perf_counter() - t0 < 5.0

