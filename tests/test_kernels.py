from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver import gnp_graphs, twin_blowups
from zdcodes import config, kernels, suites
from zdcodes.graphs import make_complete_bipartite, make_cycle, make_path, twin_map
from zdcodes.rings import make_product, make_zn
from zdcodes.tpc import MAX_CODES, find_tpc
from zdcodes.zdg import zero_divisor_graph


def test_stale_backend_variable_is_ignored(monkeypatch):
    # the two-backend selector is gone; its old variable is an unknown name
    before = config.current()
    monkeypatch.setenv("ZDCODES_BACKEND", "bogus")
    assert config.current() == before
    assert find_tpc(make_path(4)) == {1, 2}


def test_search_empty_and_isolated():
    assert kernels.cover_codes([], 4, twin_map([])) == [frozenset()]
    assert kernels.cover_codes([0, 0], 4, twin_map([0, 0])) == []
    masks = [0b10, 0b01, 0]
    assert kernels.cover_codes(masks, 1, twin_map(masks)) == []  # vertex 2 is isolated


def test_search_collects_in_lex_order():
    g = make_cycle(8)
    hits = kernels.cover_codes(g.neighbor_masks, 100, g.twins)
    assert hits == sorted(hits, key=sorted)
    assert len(hits) == 4  # the four rotations of the paired pattern


def test_search_limit_short_circuits():
    g = make_complete_bipartite(4, 4)
    hits = kernels.cover_codes(g.neighbor_masks, 3, g.twins)
    assert len(hits) == 3
    everything = kernels.cover_codes(g.neighbor_masks, 100, g.twins)
    assert hits == everything[:3]
    assert kernels.cover_codes(g.neighbor_masks, 1, g.twins) == everything[:1]


def test_pair_sweep_matches_definition():
    g = make_path(4)
    assert kernels.pair_sweep(g.neighbor_masks, g.twins) == (1, 2)
    g = make_path(5)
    assert kernels.pair_sweep(g.neighbor_masks, g.twins) is None
    assert kernels.pair_sweep([], twin_map([])) is None


def test_config_env_and_file(monkeypatch):
    # the cap has no settings file any more: the environment, else the default
    monkeypatch.setenv("ZDCODES_RING_CAP", "99")
    assert config.current() == 99
    monkeypatch.delenv("ZDCODES_RING_CAP")
    assert config.current() == 4096


def test_deleted_search_bounds_are_ignored(monkeypatch):
    # the exact search, the enumeration and the ring tables no longer have bounds
    before = config.current()
    monkeypatch.setenv("ZDCODES_SOLVER_BOUND", "bogus")
    monkeypatch.setenv("ZDCODES_ENUM_BOUND", "-1")
    monkeypatch.setenv("ZDCODES_TABLE_CACHE_CAP", "-1")
    assert config.current() == before


def test_env_vars_document_exactly_the_settings(monkeypatch):
    ((var, doc),) = config.ENV_VARS.items()  # the ring cap is the only setting
    monkeypatch.delenv(var, raising=False)
    assert config.current() == 4096
    assert doc.endswith(f"(default {config.current()})")
    monkeypatch.setenv(var, "5")
    assert config.current() == 5


# -- the twin-pruned search the representative search replaced ---------------


def _pruned_take(v, state, nb):
    covered, chosen, cand = state
    conflict = 0
    m = nb[v]
    while m:
        low = m & -m
        conflict |= nb[low.bit_length() - 1]
        m ^= low
    return covered | nb[v], chosen | 1 << v, cand & ~conflict


def _pruned_propagate(state, nb, full):
    while True:
        forced = False
        rest = full & ~state[0]
        while rest:
            low = rest & -rest
            rest ^= low
            if state[0] & low:
                continue
            options = nb[low.bit_length() - 1] & state[2]
            if not options:
                return None
            if not options & (options - 1):
                state = _pruned_take(options.bit_length() - 1, state, nb)
                forced = True
        if not forced:
            return state


def _twin_pruned_cover_codes(masks, limit):
    """Algorithm X on every vertex, branching on the lowest candidate, "in"
    before "out"; when the "in" branch on v finds no code, the "out" branch
    drops v's twins from its candidates.  Kept as it stood before the search
    moved to twin-class representatives, as the reference for it."""
    n = len(masks)
    if not all(masks):
        return []
    full = (1 << n) - 1
    twins: dict[int, int] = {}
    for v, m in enumerate(masks):
        twins[m] = twins.get(m, 0) | 1 << v
    found = []
    stack = [((0, 0, full), 0, -1)]
    while stack:
        state, drop, mark = stack.pop()
        if len(found) == mark:
            state = (state[0], state[1], state[2] & ~drop)
        state = _pruned_propagate(state, masks, full)
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
        stack.append((_pruned_take(v, state, masks), 0, -1))
    return found


LIMITS = (1, 2, 3, 7, MAX_CODES + 1)


def _assert_matches_reference(masks):
    twins = twin_map(masks)
    for limit in LIMITS:
        assert kernels.cover_codes(masks, limit, twins) == _twin_pruned_cover_codes(masks, limit), limit


def test_representative_search_matches_reference_on_gamma_zn():
    for n in range(2, 301):
        _assert_matches_reference(zero_divisor_graph(make_zn(n)).graph.neighbor_masks)


def test_representative_search_matches_reference_on_mixed_products():
    lpool, fpool = suites._mixed_pools()
    instances = list(suites._mixed_instances(128))
    assert instances
    for lc, fc in instances:
        ring = make_product([lpool[i] for i in lc] + [fpool[i] for i in fc])
        _assert_matches_reference(zero_divisor_graph(ring).graph.neighbor_masks)


#: G(n, p), or C8 or C12 with their four codes each, blown up
#: so that the lifts of distinct representative codes interleave
BLOWUPS = twin_blowups(bases=st.one_of(gnp_graphs(max_n=6), st.sampled_from([make_cycle(8), make_cycle(12)])))


@settings(max_examples=150, deadline=None)
@given(BLOWUPS)
def test_representative_search_matches_reference_on_twin_blowups(g):
    _assert_matches_reference(g.neighbor_masks)


@settings(max_examples=150, deadline=None)
@given(BLOWUPS, st.data())
def test_a_limit_is_a_prefix_of_every_code(g, data):
    # a limit below the lifted count cuts the sorted lifts of the first
    # representative codes
    everything = kernels.cover_codes(g.neighbor_masks, MAX_CODES + 1, g.twins)
    k = data.draw(st.integers(1, len(everything) + 1))
    assert kernels.cover_codes(g.neighbor_masks, k, g.twins) == everything[:k]
