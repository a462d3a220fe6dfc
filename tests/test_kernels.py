import pytest

from zdcodes import config, kernels
from zdcodes.graphs import make_complete_bipartite, make_cycle, make_path
from zdcodes.tpc import find_tpc


def test_stale_backend_variable_is_ignored(monkeypatch):
    # the two-backend selector is gone; its old variable is an unknown name
    before = config.current()
    monkeypatch.setenv("ZDCODES_BACKEND", "bogus")
    assert config.current() == before
    assert find_tpc(make_path(4)) == {1, 2}


def test_search_empty_and_isolated():
    assert kernels.search_codes(0, [], limit=4) == [frozenset()]
    assert kernels.search_codes(2, [[], []], limit=4) == []
    assert kernels.search_first_code(3, [[1], [0], []]) is None


def test_search_collects_in_lex_order():
    g = make_cycle(8)
    hits = kernels.search_codes(g.n, [sorted(s) for s in g.neighbor_sets], limit=100)
    assert hits == sorted(hits, key=sorted)
    assert len(hits) == 4  # the four rotations of the paired pattern


def test_search_limit_short_circuits():
    g = make_complete_bipartite(4, 4)
    hits = kernels.search_codes(g.n, [sorted(s) for s in g.neighbor_sets], limit=3)
    assert len(hits) == 3
    everything = kernels.search_codes(g.n, [sorted(s) for s in g.neighbor_sets], limit=100)
    assert hits == everything[:3]
    assert kernels.search_first_code(g.n, [sorted(s) for s in g.neighbor_sets]) == everything[0]


def test_pair_sweep_matches_definition():
    g = make_path(4)
    assert kernels.pair_sweep(g.neighbor_masks, g.edges) == [(1, 2)]
    assert kernels.pair_sweep(g.neighbor_masks, g.edges, find_all=True) == [(1, 2)]
    assert kernels.pair_sweep(g.neighbor_masks, []) == []


def test_config_env_and_file(monkeypatch, tmp_path):
    monkeypatch.setenv("ZDCODES_SOLVER_BOUND", "99")
    assert config.current().solver_bound == 99
    cfg = tmp_path / "s.json"
    cfg.write_text('{"ring_cap": 64, "backend": "numpy"}')
    s = config.Settings().merged_with_file(str(cfg))
    assert s == config.Settings(ring_cap=64)  # the stale backend key is ignored
    with pytest.raises(OSError):
        config.Settings().merged_with_file(str(tmp_path / "missing.json"))
    cfg.write_text('{"backend": "bogus"}')
    assert config.Settings().merged_with_file(str(cfg)) == config.Settings()


def test_config_override(monkeypatch):
    monkeypatch.delenv("ZDCODES_SOLVER_BOUND", raising=False)
    config.set_override(config.Settings(solver_bound=7))
    try:
        assert config.current().solver_bound == 7
    finally:
        config.set_override(None)
    assert config.current().solver_bound == 64
