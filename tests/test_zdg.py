import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rings import quotients

from zdcodes import config, suites, tables, zdg
from zdcodes.graphs import Graph, LazyLabels, bits, diameter, twin_map
from zdcodes.ringexpr import ring_from_text
from zdcodes.rings import RingError, make_gf, make_product, make_quotient, make_zn
from zdcodes.tpc import find_tpc
from zdcodes.zdg import (
    artinian_split,
    count_zero_divisors,
    cut_vertex_report,
    degree_one_vertices,
    is_exceptional_local_fingerprint,
    mixed_decider,
    tpc_pair_solver,
    zero_divisor_graph,
)


def brute_edges(ring):
    zs = sorted(ring.scan_zero_divisors())
    return {
        (x, y) for i, x in enumerate(zs) for y in zs[i + 1 :] if ring.mul(x, y) == 0
    }


def test_gamma_z12():
    z = zero_divisor_graph(make_zn(12))
    assert z.graph.n == 7
    assert z.elements == (2, 3, 4, 6, 8, 9, 10)
    elem_edges = {(z.elements[a], z.elements[b]) for a, b in z.graph.edges}
    assert elem_edges == {(2, 6), (3, 4), (3, 8), (4, 6), (4, 9), (6, 8), (6, 10), (8, 9)}
    assert elem_edges == brute_edges(make_zn(12))
    assert z.graph.labels[0] == "2"
    assert diameter(z.graph) == 3


def test_gamma_shapes():
    assert zero_divisor_graph(make_product([make_zn(2), make_zn(8)])).graph.n == 11
    g4 = zero_divisor_graph(make_zn(4)).graph
    assert g4.n == 1 and g4.edges == ()
    assert zero_divisor_graph(make_zn(7)).graph.n == 0


def test_gamma_of_an_order_25200_product_builds_in_a_second():
    # 19,439 vertices in 90 annihilator classes: no |Z*| x |Z*| matrix
    config.set_override(25200)
    try:
        ring = make_product([make_zn(k) for k in (16, 9, 25, 7)])
        t0 = time.perf_counter()
        z = zero_divisor_graph(ring)
        assert time.perf_counter() - t0 < 1.0
    finally:
        config.set_override(None)
    assert z.graph.n == 25200 - 1 - 8 * 6 * 20 * 6
    elems = np.array(z.elements, dtype=np.int64)
    for v in (0, z.graph.n // 2, z.graph.n - 1):
        row = set(np.flatnonzero(ring.vec_mul(elems[v], elems) == 0).tolist()) - {v}
        assert set(bits(z.graph.neighbor_masks[v])) == row


def test_gamma_of_many_classes_copies_the_class_matrix_at_most_once():
    # Z2^11 has 2048 annihilator classes over 2046 vertices: one vertices x
    # classes gather, no further matrix of that size (classes x vertices
    # member bits, a contiguous copy of the gather)
    import tracemalloc

    config.set_override(2 ** 11)
    try:
        ring = make_product([make_zn(2)] * 11)
        zero = ring.classes[1]
        tracemalloc.start()
        try:
            zero_divisor_graph(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        config.set_override(None)
    assert peak < 1.5 * zero.nbytes


def _small_rings():
    """Z_n, products of two or three small factors, the catalog table rings
    alone or times a field, random monic quotients, and a quotient times a
    small factor."""
    factor = st.sampled_from([make_zn(k) for k in (2, 3, 4, 6, 8, 9)] + [make_gf(2, 2)])
    catalog = st.sampled_from(tables.catalog_names()).map(tables.catalog_ring)
    return st.one_of(
        st.integers(2, 400).map(make_zn),
        st.lists(factor, min_size=2, max_size=3).map(make_product),
        catalog,
        st.tuples(catalog, st.sampled_from([make_zn(2), make_zn(3)])).map(list).map(make_product),
        quotients(),
        st.tuples(quotients(max_order=64), factor).map(list).map(make_product),
    )


@settings(max_examples=80, deadline=None)
@given(_small_rings())
def test_class_view_matches_multiplication_rows(ring):
    # classes are the zero patterns of the multiplication rows, their matrix
    # decides every product, and 0 is alone in its class
    idx = np.arange(ring.order)
    mul = ring.vec_mul(idx[:, None], idx[None, :]) == 0
    cls, zero = ring.classes
    rows = np.unique(mul, axis=0, return_inverse=True)[1]
    assert len(set(zip(cls.tolist(), rows.tolist()))) == len(set(cls.tolist())) == rows.max() + 1
    assert np.array_equal(zero[np.ix_(cls, cls)], mul)
    assert np.flatnonzero(cls == cls[0]).tolist() == [0]


@settings(max_examples=80, deadline=None)
@given(_small_rings())
def test_mask_built_gamma_matches_validating_constructor(ring):
    z = zero_divisor_graph(ring)
    elems = np.array(z.elements, dtype=np.int64)
    assert list(elems) == sorted(ring.scan_zero_divisors())
    adj = ring.vec_mul(elems[:, None], elems[None, :]) == 0
    labels = LazyLabels(len(elems), lambda i: ring.element_name(int(elems[i])))
    ref = Graph(len(elems), zip(*np.nonzero(np.triu(adj, 1))), labels, name=f"Gamma({ring.name})")
    assert z.graph.neighbor_masks == ref.neighbor_masks
    assert z.graph.edges == ref.edges
    assert dict(z.graph.labels or {}) == dict(ref.labels or {})
    assert z.graph.name == ref.name
    # the sweep's edge is the first edge that ring arithmetic calls a code
    first = next((e for e in ref.edges if zdg.is_code_pair(ring, *z.to_elements(e))), None)
    assert z.code_pair == first


def _zero_table(ring):
    """zero[x, y]: xy = 0, from the multiplication table; a product's from
    its factors' tables, coordinate by coordinate."""
    if ring.factors:
        zero = np.ones((1, 1), dtype=bool)
        for f in ring.factors:
            fz = _zero_table(f)
            k, j = len(zero), len(fz)
            zero = (zero[:, None, :, None] & fz[None, :, None, :]).reshape(k * j, k * j)
        return zero
    idx = np.arange(ring.order)
    return ring.vec_mul(idx[:, None], idx[None, :]) == 0


def _element_gamma(ring):
    """(elements, masks) of Gamma(R) by the element-level definition: the
    nonzero x with xy = 0 for some nonzero y, N(x) = ann(x) minus {0, x}."""
    zero = _zero_table(ring)
    elements = tuple(np.flatnonzero(zero[:, 1:].any(axis=1))[1:].tolist())
    adj = zero[np.ix_(elements, elements)]
    np.fill_diagonal(adj, False)
    packed = np.packbits(adj, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return elements, masks


def assert_gamma_matches_elements(ring):
    z = zero_divisor_graph(ring)
    elements, masks = _element_gamma(ring)
    assert z.elements == elements, ring.name
    assert z.graph.neighbor_masks == masks, ring.name
    # the twin classes read off the annihilator classes are the masks' own
    assert list(z.graph.twins.items()) == list(twin_map(masks).items()), ring.name


def test_gamma_of_every_zn_to_600_matches_the_element_definition():
    for n in range(2, 601):
        assert_gamma_matches_elements(make_zn(n))


def test_gamma_of_every_mixed_product_to_512_matches_the_element_definition():
    locals_, fields_ = suites._mixed_pools()
    instances = list(suites._mixed_instances(512))
    assert len(instances) == 1537
    for lc, fc in instances:
        factors = [locals_[i] for i in lc] + [fields_[i] for i in fc]
        assert_gamma_matches_elements(make_product(factors))


def test_gamma_of_every_catalog_ring_matches_the_element_definition():
    for slug in tables.catalog_names():
        assert_gamma_matches_elements(tables.catalog_ring(slug))


@settings(max_examples=60, deadline=None)
@given(quotients())
def test_gamma_of_monic_quotients_matches_the_element_definition(ring):
    assert_gamma_matches_elements(ring)


def test_twin_classes_that_share_a_mask_are_refused():
    # Z6 with {2, 4} split into two classes of one annihilator: vertices 2
    # and 4 then form two twin classes with the one neighbourhood {3}
    ring = make_zn(6)
    cls, zero = ring.classes
    split = len(zero)
    cls = cls.copy()
    cls[4] = split
    zero = np.pad(zero, ((0, 1), (0, 1)))
    zero[split, :] = zero[cls[2], :]
    zero[:, split] = zero[:, cls[2]]
    ring.__dict__["classes"] = cls, zero
    with pytest.raises(RingError, match="3 twin classes but 2 distinct neighbourhoods"):
        zero_divisor_graph(ring)


def test_gamma_is_read_off_the_class_view_alone(monkeypatch):
    # no element-level detour: no hashed twin map, no scan for Z*(R)
    from zdcodes import graphs
    from zdcodes.rings import FiniteRing

    def refuse(*args):
        raise AssertionError("element-level detour")

    monkeypatch.setattr(graphs, "twin_map", refuse)
    monkeypatch.setattr(FiniteRing, "scan_zero_divisors", refuse)
    table = tables.make_table_ring(tables.load_catalog_spec("Z4X-X2"))  # not the cached one
    rings = [make_zn(3600), make_product([make_zn(4), make_zn(8), make_gf(2, 2)])]
    rings += [make_quotient(4, (0, 2, 1)), table]
    for ring in rings:
        z = zero_divisor_graph(ring)
        assert z.graph.n > 0 and z.graph.twins
        z.code_pair, z.least_code  # the sweep and the search read that twin map


def test_pair_solver():
    assert tpc_pair_solver(zero_divisor_graph(make_zn(12))) == {4, 6}
    assert tpc_pair_solver(zero_divisor_graph(make_zn(16))) == {2, 8}
    assert tpc_pair_solver(zero_divisor_graph(make_product([make_zn(2), make_zn(8)]))) is None
    assert tpc_pair_solver(zero_divisor_graph(make_zn(7))) is None  # empty graph, no edges


def test_graph_answers_are_computed_once(monkeypatch):
    from zdcodes import kernels, suites

    calls = []

    def counting(name):
        real = getattr(kernels, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    # every exact search, for one code or for all of them, is one
    # representative search
    for name in ("pair_sweep", "representative_codes"):
        monkeypatch.setattr(kernels, name, counting(name))
    z = zero_divisor_graph(make_zn(16))
    assert tpc_pair_solver(z) == tpc_pair_solver(z) == {2, 8}
    assert zdg.ring_code_exact(z) == zdg.ring_code_exact(z) == {2, 8}
    assert calls == ["pair_sweep", "representative_codes"]
    # once the codes are enumerated, the least code is the first of them
    calls.clear()
    z = zero_divisor_graph(make_zn(16))
    assert len(z.codes) == 4 and z.least_code == z.codes[0]
    assert z.to_elements(z.least_code) == {2, 8}
    assert calls == ["representative_codes"]
    # the local catalog builds and enumerates each graph once and searches
    # it no more
    calls.clear()
    real = zdg.zero_divisor_graph
    monkeypatch.setattr(zdg, "zero_divisor_graph", lambda r: calls.append("graph") or real(r))
    rep = suites.suite_local_catalog()
    assert rep.exit_code() == 0
    assert calls.count("representative_codes") == rep.instances == len(suites.local_catalog())
    assert calls.count("graph") == rep.instances
    # so do the product suites, bar the reduced suite's three Z2^k anchors,
    # which are not enumerated
    for suite, kwargs, graphs, searches in (
        (suites.suite_reduced_products, {}, 204, 201),
        (suites.suite_mixed_products, {"max_order": 128}, 350, 350),
    ):
        calls.clear()
        rep = suite(**kwargs)
        assert rep.exit_code() == 0 and rep.instances == graphs
        assert calls.count("graph") == graphs
        assert calls.count("representative_codes") == searches


def test_counting_enumerates_by_brute_force(monkeypatch):
    from zdcodes.rings import FiniteRing

    scanned = []
    real = FiniteRing.scan_zero_divisors
    monkeypatch.setattr(
        FiniteRing, "scan_zero_divisors", lambda self: scanned.append(self.name) or real(self)
    )
    closed, rep = count_zero_divisors([make_zn(4), make_zn(4), make_zn(4)])
    assert scanned == ["Z4 x Z4 x Z4"] and rep.enumerated == closed == 55


def test_degree_one_vertices():
    assert degree_one_vertices(zero_divisor_graph(make_zn(16))) == {2, 6, 10, 14}
    assert degree_one_vertices(zero_divisor_graph(make_zn(25))) == frozenset()
    assert degree_one_vertices(zero_divisor_graph(make_zn(9))) == {3, 6}


def test_mixed_decider_local_case():
    v = mixed_decider([make_zn(16)], [])
    assert v.admits and v.witness == {2, 8} and not v.discrepancy
    assert {d.decider_id for d in v.deciders} >= {
        "ann-pair-structural",
        "degree-one",
        "exact-pair",
    }
    v = mixed_decider([make_zn(9)], [])
    assert v.admits and v.witness == {3, 6}
    v = mixed_decider([make_zn(25)], [])
    assert not v.admits and not v.discrepancy
    with pytest.raises(RingError, match="not local"):
        mixed_decider([make_zn(12)], [])
    with pytest.raises(RingError, match="a field"):
        mixed_decider([make_zn(7)], [])


def test_mixed_decider_local_quotients():
    v = mixed_decider([make_quotient(3, (0, 0, 1))], [])
    assert v.admits and not v.discrepancy  # two mutually annihilating vertices
    v = mixed_decider([make_quotient(5, (0, 0, 1))], [])
    assert not v.admits and not v.discrepancy  # a 4-clique


def test_cut_vertex_report():
    rep = cut_vertex_report(make_zn(16))
    assert rep.articulation_elements == {8}
    assert rep.code == {2, 8}
    assert not rep.findings

    rep = cut_vertex_report(make_zn(9))
    assert rep.articulation_elements == frozenset()
    assert rep.code == {3, 6}
    assert not rep.findings

    rep = cut_vertex_report(tables.catalog_ring("Z4X-X2"))
    assert rep.articulation_elements and rep.code is None
    assert not rep.findings

    obj = rep.to_obj()
    assert obj["ring"] and obj["checks"]


def test_exceptional_fingerprint():
    for slug in tables.EXCEPTIONAL_SEVEN:
        assert is_exceptional_local_fingerprint(tables.catalog_ring(slug))
    assert not is_exceptional_local_fingerprint(make_zn(16))
    assert not is_exceptional_local_fingerprint(tables.catalog_ring("Z2XY-RAD2"))


#: F2[x,y]/(x^3, xy, y^2) on the basis 1, x, x^2, y
F2XY_X3_XY_Y2 = {
    "name": "F2[x,y]/(x^3,xy,y^2)",
    "moduli": [2, 2, 2, 2],
    "one": [1, 0, 0, 0],
    "products": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
}


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring_from_text("Z4[x]/(x^2+x+1)"),
        lambda: ring_from_text("Z2[x]/(x^4+x^2+1)"),
        lambda: tables.make_table_ring(tables.TableRingSpec.from_obj(F2XY_X3_XY_Y2)),
    ],
    ids=["GR(4,2)", "F4[t]/(t^2)", "F2[x,y]/(x^3,xy,y^2)"],
)
def test_fingerprint_rejects_order16_rings_without_cut_vertex(build):
    # local of order 16 with no |ann(x)| = 2, but 3 vertices adjacent to all others
    ring = build()
    assert ring.order == 16 and ring.is_local
    idx = np.arange(16)
    assert 2 not in (ring.vec_mul(idx[:, None], idx[None, :]) == 0).sum(axis=1)
    assert not is_exceptional_local_fingerprint(ring)
    rep = cut_vertex_report(ring)
    assert not rep.articulation_elements and not rep.findings


def test_mixed_decider_reduced_case():
    v = mixed_decider([], [make_zn(2), make_zn(2)])
    assert v.admits and v.witness_names == ("(0,1)", "(1,0)") and not v.discrepancy
    v = mixed_decider([], [make_zn(2)] * 3)
    assert not v.admits and not v.discrepancy
    v = mixed_decider([], [make_zn(3), make_gf(2, 2)])
    assert v.admits and not v.discrepancy  # the 5-vertex complete bipartite graph
    with pytest.raises(RingError, match="not a field"):
        mixed_decider([], [make_zn(4), make_zn(2)])


def test_mixed_decider_cases():
    v = mixed_decider([make_zn(4)], [make_zn(2)])
    assert v.admits and v.witness_names == ("(0,1)", "(2,0)") and not v.discrepancy
    v = mixed_decider([make_zn(4)], [make_zn(3)])
    assert v.admits and not v.discrepancy
    v = mixed_decider([make_zn(9)], [make_zn(2)])
    assert not v.admits and not v.discrepancy
    v = mixed_decider([make_zn(4), make_zn(4)], [])
    assert not v.admits and not v.discrepancy
    v = mixed_decider([make_quotient(2, (0, 0, 1))], [make_zn(2), make_zn(2)])
    assert not v.admits and not v.discrepancy
    v = mixed_decider([tables.catalog_ring("Z2XY-RAD2")], [make_zn(2)])
    assert not v.admits and not v.discrepancy


def test_code_pair_refuses_non_vertices_and_repeats():
    z12 = make_zn(12)
    assert zdg.is_code_pair(z12, 4, 6) and zdg.is_code_pair(z12, 6, 4)
    assert not zdg.is_code_pair(z12, 6, 6)  # one vertex, however it squares
    assert not zdg.is_code_pair(z12, 0, 6) and not zdg.is_code_pair(z12, 5, 6)  # 0, a unit
    assert not zdg.is_code_pair(z12, 2, 3)  # not adjacent
    assert not zdg.is_code_pair(z12, 2, 6)  # adjacent, but 3 is covered by neither
    assert zdg.is_code_pair(make_zn(9), 3, 6)  # x^2 = 0 in both classes


@pytest.mark.parametrize(
    "locals_, fields_",
    [([make_zn(16)], []), ([make_zn(9)], []), ([], [make_zn(2), make_zn(3)]),
     ([make_zn(4)], [make_zn(2)])],
    ids=["ann-2", "two-vertex", "two-fields", "local-field"],
)
def test_mixed_decider_raises_on_a_refuted_witness(monkeypatch, locals_, fields_):
    # the witness check is a raise, not an assert, so it also runs under -O
    monkeypatch.setattr(zdg, "is_code_pair", lambda ring, a, b: False)
    with pytest.raises(RingError, match="not a total perfect code"):
        mixed_decider(locals_, fields_)


def test_no_check_in_the_package_is_an_assert():
    # python -O strips assert statements, and with them any check they make
    import ast
    from pathlib import Path

    import zdcodes

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(zdcodes.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_mixed_decider_delegation_and_errors():
    assert mixed_decider([make_zn(8)], []).admits  # pure local case
    assert not mixed_decider([], [make_zn(2)] * 3).admits  # pure reduced case
    v = mixed_decider([], [make_zn(5)])
    assert v.admits and v.witness == frozenset()  # field: vacuous empty code
    with pytest.raises(RingError, match="field"):
        mixed_decider([make_zn(2)], [make_zn(2)])
    with pytest.raises(RingError, match="not local"):
        mixed_decider([make_zn(12)], [])
    with pytest.raises(RingError):
        mixed_decider([], [])


@pytest.mark.parametrize(
    "locals_, fields_, route_ids, witness_names",
    [
        ([8], [], ["ann-pair-structural", "degree-one", "exact-pair", "exact-search"], ("2", "4")),
        ([], [5], ["field-vacuous"], ()),
        ([], [2, 3], ["field-count", "exact-pair"], ("(0,1)", "(1,0)")),
        ([], [2, 2, 2], ["field-count", "exact-pair"], None),
        ([4], [2], ["artinian-case", "exact-pair"], ("(0,1)", "(2,0)")),
        ([4], [2, 3], ["artinian-case", "exact-pair"], None),
        ([4, 9], [], ["artinian-case", "exact-pair"], None),
        ([4, 4], [2], ["artinian-case", "exact-pair"], None),
        ([4, 4, 4], [], ["artinian-case", "exact-pair"], None),
    ],
    ids=["1-0", "0-1", "0-2", "0-3", "1-1", "1-2", "2-0", "2-1", "3-0"],
)
def test_decider_route_shape_by_factor_counts(locals_, fields_, route_ids, witness_names):
    # (m, n) local non-field and field factors: the case analysis runs these
    # routes, in this order, to this witness, and decide_ring on the product
    # nests the same routes in its structural id
    locals_ = [make_zn(q) for q in locals_]
    fields_ = [make_zn(p) for p in fields_]
    v = mixed_decider(locals_, fields_)
    assert [d.decider_id for d in v.deciders] == route_ids
    assert v.witness_names == witness_names and not v.discrepancy
    factors = locals_ + fields_
    ring = factors[0] if len(factors) == 1 else make_product(factors)
    ids = [d.decider_id for d in zdg.decide_ring(ring).deciders]
    if route_ids == ["field-vacuous"]:
        assert ids == route_ids  # a field's empty graph gets the vacuous route only
    else:
        assert "structural:" + "+".join(route_ids) in ids


def test_package_all_names_every_public_name():
    # a name deleted from a module must leave the package's exports too
    import types

    import zdcodes

    public = [
        k for k, v in vars(zdcodes).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert sorted(zdcodes.__all__) == sorted(public)


def test_verdict_serialization():
    v = mixed_decider([make_zn(4)], [make_zn(2)])
    obj = v.to_obj()
    assert obj["ring"] == "Z4 x Z2"
    assert obj["admits"] is True
    assert obj["witness"] == ["(0,1)", "(2,0)"]
    assert obj["cross_checked"] is True
    assert obj["discrepancies"] == []
    json.dumps(obj)


def test_artinian_split():
    locals_, fields_ = artinian_split(make_zn(12))
    assert [r.name for r in locals_] == ["Z4"] and [r.name for r in fields_] == ["Z3"]
    locals_, fields_ = artinian_split(make_product([make_zn(6), make_zn(4)]))
    assert sorted(r.name for r in locals_) == ["Z4"]
    assert sorted(r.name for r in fields_) == ["Z2", "Z3"]
    assert artinian_split(make_quotient(6, (0, 0, 1))) is None
    locals_, fields_ = artinian_split(make_zn(7))
    assert not locals_ and [r.name for r in fields_] == ["Z7"]


def test_gamma_connected_small_diameter():
    for ring in (make_zn(12), make_zn(16), make_zn(24), make_product([make_zn(4), make_zn(9)])):
        g = zero_divisor_graph(ring).graph
        if g.n >= 2:
            assert g.is_connected() and diameter(g) <= 3


def test_counting_six_forms():
    cases = {
        "R1xF": ([4, 2], 5),
        "R1xR2": ([4, 4], 11),
        "R1xF1xF2": ([4, 2, 2], 13),
        "R1xR2xF": ([4, 4, 2], 27),
        "R1xF1xF2xF3": ([4, 2, 2, 2], 29),
        "R1xR2xR3": ([4, 4, 4], 55),
    }
    for form, (ns, expect) in cases.items():
        closed, rep = count_zero_divisors([make_zn(n) for n in ns])
        assert closed == expect
        assert rep.enumerated == expect
        assert rep.form == form


def test_counting_formula_readings():
    _, rep = count_zero_divisors([make_zn(4), make_zn(2)])
    assert rep.formula_by_reading["nonzero"] == 5
    assert rep.formula_by_reading["units"] == 4
    _, rep = count_zero_divisors([make_zn(4), make_zn(4)])
    assert all(v != 11 for v in rep.formula_by_reading.values())
    _, rep = count_zero_divisors([make_zn(4), make_zn(4), make_zn(2)])
    assert rep.formula_by_reading["nonzero-emended"] == 27
    assert rep.formula_by_reading["nonzero"] == 28  # the literal |F| term overshoots
    _, rep = count_zero_divisors([make_zn(4), make_zn(4), make_zn(4)])
    assert all(v != 55 for v in rep.formula_by_reading.values())


def test_counting_closed_form_matches_enumeration_on_catalog():
    rings = [
        [make_zn(12)],
        [make_zn(4), make_zn(9)],
        [make_gf(2, 2), make_gf(3, 2)],
        [tables.catalog_ring("Z8X-2X-X2p4"), make_zn(3)],
    ]
    for factors in rings:
        closed, rep = count_zero_divisors(factors)
        assert rep.enumerated == closed


def test_exact_search_agrees_on_small_gammas():
    for n in (8, 9, 12, 16, 18, 20, 24, 25, 27):
        z = zero_divisor_graph(make_zn(n))
        pair = tpc_pair_solver(z)
        exact = find_tpc(z.graph)
        assert (pair is None) == (exact is None)
        if exact is not None:
            assert len(exact) == 2


def test_code_pair_check_matches_verifier():
    # the ring-arithmetic witness check against the graph verifier, on every
    # edge of every mixed-catalog product of order at most 64
    from zdcodes import suites
    from zdcodes.tpc import is_total_perfect_code

    lpool, fpool = suites._mixed_pools()
    edges = codes = 0
    for lc, fc in suites._mixed_instances(64):
        ring = make_product([lpool[i] for i in lc] + [fpool[i] for i in fc])
        z = zero_divisor_graph(ring)
        for a, b in z.graph.edges:
            want = is_total_perfect_code(z.graph, {a, b})
            assert zdg.is_code_pair(ring, z.elements[a], z.elements[b]) == want, (ring.name, a, b)
            edges += 1
            codes += want
    assert edges > 1000 and codes > 0


def test_decide_ring_z2_to_z300_has_no_discrepancy():
    # the routes picked by Gamma's shape run beside the structural route and
    # the exact search; each witness they give is a code pair of the ring
    shaped = 0
    for n in range(2, 301):
        ring = make_zn(n)
        v = zdg.decide_ring(ring)
        assert not v.discrepancy, (n, v.notes)
        for d in v.deciders[2:-1]:
            shaped += 1
            assert d.witness is None or zdg.is_code_pair(ring, *d.witness), (n, d)
    assert shaped > 0


def test_zn_sweep_to_1000_is_clean():
    # every instance runs the pair sweep, the full enumeration and the diameter
    t0 = time.perf_counter()
    rep = suites.suite_zn_sweep(4, 1000)
    assert time.perf_counter() - t0 < 5.0
    assert rep.instances == 997 and rep.discrepancies == []


def test_decide_ring_routes():
    v = zdg.decide_ring(make_zn(12))
    assert [d.decider_id for d in v.deciders] == [
        "exact-pair",
        "structural:artinian-case+exact-pair",
        "exact-search",
    ]
    assert v.admits and not v.discrepancy and v.witness_names == ("4", "6")
    assert v.deciders[1].witness_names == ("(0,1)", "(2,0)")  # named in Z4 x Z3
    assert v.graph.ring is not None and v.graph.graph.n == 7
    # no Artinian split: the graph routes only
    v = zdg.decide_ring(make_quotient(6, (0, 0, 1)))
    assert [d.decider_id for d in v.deciders] == ["exact-pair", "exact-search"]
    # the exact search runs at every size, also inside a local ring's case analysis
    v = zdg.decide_ring(make_zn(256))
    assert v.graph.graph.n == 127 and v.cross_checked
    assert [d.decider_id for d in v.deciders] == [
        "exact-pair",
        "structural:ann-pair-structural+degree-one+exact-pair+exact-search",
        "exact-search",
    ]
    v = zdg.decide_ring(make_zn(7))
    assert [d.decider_id for d in v.deciders] == ["field-vacuous"]
    assert v.admits and v.witness == frozenset()
