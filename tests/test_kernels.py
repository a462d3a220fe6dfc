import dataclasses

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
    assert kernels.cover_codes([], limit=4) == [frozenset()]
    assert kernels.cover_codes([0, 0], limit=4) == []
    assert kernels.cover_codes([0b10, 0b01, 0], limit=1) == []  # vertex 2 is isolated


def test_search_collects_in_lex_order():
    g = make_cycle(8)
    hits = kernels.cover_codes(g.neighbor_masks, limit=100)
    assert hits == sorted(hits, key=sorted)
    assert len(hits) == 4  # the four rotations of the paired pattern


def test_search_limit_short_circuits():
    g = make_complete_bipartite(4, 4)
    hits = kernels.cover_codes(g.neighbor_masks, limit=3)
    assert len(hits) == 3
    everything = kernels.cover_codes(g.neighbor_masks, limit=100)
    assert hits == everything[:3]
    assert kernels.cover_codes(g.neighbor_masks, limit=1) == everything[:1]


def test_pair_sweep_matches_definition():
    g = make_path(4)
    assert kernels.pair_sweep(g.neighbor_masks) == (1, 2)
    assert kernels.pair_sweep(make_path(5).neighbor_masks) is None
    assert kernels.pair_sweep([]) is None


def test_config_env_and_file(monkeypatch, tmp_path):
    monkeypatch.setenv("ZDCODES_RING_CAP", "99")
    assert config.current().ring_cap == 99
    cfg = tmp_path / "s.json"
    cfg.write_text('{"ring_cap": 64, "backend": "numpy"}')
    s = config.Settings().merged_with_file(str(cfg))
    assert s == config.Settings(ring_cap=64)  # the stale backend key is ignored
    with pytest.raises(OSError):
        config.Settings().merged_with_file(str(tmp_path / "missing.json"))
    cfg.write_text('{"backend": "bogus"}')
    assert config.Settings().merged_with_file(str(cfg)) == config.Settings()


def test_config_override(monkeypatch):
    monkeypatch.delenv("ZDCODES_RING_CAP", raising=False)
    config.set_override(config.Settings(ring_cap=7))
    try:
        assert config.current().ring_cap == 7
    finally:
        config.set_override(None)
    assert config.current().ring_cap == 4096


def test_deleted_search_bounds_are_ignored(monkeypatch, tmp_path):
    # the exact search, the enumeration and the ring tables no longer have bounds
    before = config.current()
    monkeypatch.setenv("ZDCODES_SOLVER_BOUND", "bogus")
    monkeypatch.setenv("ZDCODES_ENUM_BOUND", "-1")
    monkeypatch.setenv("ZDCODES_TABLE_CACHE_CAP", "-1")
    assert config.current() == before
    cfg = tmp_path / "s.json"
    cfg.write_text('{"solver_bound": "many", "enum_bound": 2.5, "table_cache_cap": 0}')
    assert config.Settings().merged_with_file(str(cfg)) == config.Settings()


def test_env_vars_document_exactly_the_settings():
    names = {config.ENV_PREFIX + f.name.upper() for f in dataclasses.fields(config.Settings)}
    assert set(config.ENV_VARS) == names
