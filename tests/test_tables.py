import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from zdcodes import tables
from zdcodes.rings import (
    FiniteRing, RingError, _mixed_encode, _quotient_products, bilinear_ops, make_quotient,
)
from zdcodes.tables import TableRingError, TableRingSpec, catalog_ring, make_table_ring

from test_rings import first_failing_law, idempotent_count


def brute_ann_sizes(ring):
    """|ann(x)| for each x in Z*(R), sorted, from the whole multiplication
    table."""
    idx = np.arange(ring.order)
    sizes = (ring.vec_mul(idx[:, None], idx[None, :]) == 0).sum(axis=1)
    return sorted(s for s in sizes[1:].tolist() if s > 1)


def test_catalog_loads_and_validates():
    for slug in tables.catalog_names():
        ring = catalog_ring(slug)
        assert ring.is_local and not ring.is_reduced
        assert idempotent_count(ring) == 2


def test_exceptional_seven_shape():
    assert len(tables.EXCEPTIONAL_SEVEN) == 7
    for slug in tables.EXCEPTIONAL_SEVEN:
        ring = catalog_ring(slug)
        assert ring.order == 16
        assert len(brute_ann_sizes(ring)) == ring.num_zero_divisors > 1
        # the defining exceptional property: no annihilator of size two
        assert 2 not in brute_ann_sizes(ring)


def test_supplementary_fixture():
    ring = catalog_ring("Z2XY-RAD2")
    assert ring.order == 8
    assert ring.num_zero_divisors == 3  # the squared radical collapses


def test_case_insensitive_lookup():
    assert catalog_ring("z8x-2x-x2p4").name == catalog_ring("Z8X-2X-X2p4").name


def test_catalog_rings_are_built_once_per_process(monkeypatch):
    assert catalog_ring("z4x-x2") is catalog_ring("Z4X-X2")
    rings = {slug: catalog_ring(slug.lower()) for slug in tables.catalog_names()}

    def refuse(*args):
        raise AssertionError("catalog ring rebuilt")

    monkeypatch.setattr(tables, "load_catalog_spec", refuse)
    monkeypatch.setattr(tables, "make_table_ring", refuse)
    for slug, ring in rings.items():
        assert catalog_ring(slug.upper()) is ring


def test_cached_catalog_rings_still_meet_the_cap(monkeypatch):
    catalog_ring("Z4X-X2")
    monkeypatch.setenv("ZDCODES_RING_CAP", "8")
    with pytest.raises(RingError, match="ring order 16 exceeds the cap 8"):
        catalog_ring("Z4X-X2")
    assert catalog_ring("Z2XY-RAD2").order == 8


def test_unknown_name_lists_known():
    with pytest.raises(TableRingError, match="known names"):
        tables.load_catalog_spec("missing")


def test_degenerate_single_modulus():
    spec = TableRingSpec("tiny", (2,), (1,), (((1,),),))
    ring = make_table_ring(spec)
    assert ring.order == 2 and ring.is_field


def test_example_spec_z8():
    spec = TableRingSpec("Z8[X]/(2X,X^2+4)", (8, 2), (1, 0),
                         (((1, 0), (0, 1)), ((0, 1), (4, 0))))
    ring = make_table_ring(spec)
    assert ring.order == 16
    # X * X = 4 in this presentation: X has index 1, the constant 4 index 8
    assert ring.mul(1, 1) == 8


def test_mutation_is_rejected():
    spec = tables.load_catalog_spec("Z4X-X2")
    rows = [list(map(tuple, row)) for row in spec.products]
    rows[0][1] = (0, 0)  # breaks 1*X = X
    rows[1][0] = (0, 0)
    bad = TableRingSpec(spec.name, spec.moduli, spec.one, tuple(tuple(r) for r in rows))
    with pytest.raises(RingError, match=r"one \* e1 != e1"):  # the one no longer fixes X
        make_table_ring(bad)


def test_asymmetric_products_rejected():
    spec = TableRingSpec("bad", (2, 2), (1, 0), (((1, 0), (0, 1)), ((1, 1), (0, 0))))
    with pytest.raises(TableRingError, match="differ"):
        make_table_ring(spec)


def test_ill_defined_bilinear_extension_rejected():
    # m_1 * (e1 e1) = 2 * (1,0) is nonzero mod (4,2): scaling is inconsistent
    spec = TableRingSpec("bad", (4, 2), (1, 0), (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    with pytest.raises(TableRingError, match="ill-defined"):
        make_table_ring(spec)


def test_shape_errors():
    with pytest.raises(TableRingError):
        make_table_ring(TableRingSpec("bad", (), (), ()))
    with pytest.raises(TableRingError):
        make_table_ring(TableRingSpec("bad", (2,), (1, 0), (((1,),),)))


@pytest.mark.parametrize(
    "slug,poly",
    [("Z4X-X2", (0, 0, 1)), ("Z4X-X2p2X", (0, 2, 1))],
)
def test_univariate_fixtures_match_quotient_construction(slug, poly):
    # two fixtures have one-variable presentations, so the polynomial
    # quotient constructor provides an independent second build
    from zdcodes.rings import make_quotient
    from zdcodes.zdg import tpc_pair_solver, zero_divisor_graph

    a = catalog_ring(slug)
    b = make_quotient(4, poly)
    assert a.order == b.order
    assert a.is_local == b.is_local and a.is_reduced == b.is_reduced
    assert brute_ann_sizes(a) == brute_ann_sizes(b)
    ga, gb = zero_divisor_graph(a).graph, zero_divisor_graph(b).graph
    assert sorted(ga.degree_sequence()) == sorted(gb.degree_sequence())
    assert (tpc_pair_solver(zero_divisor_graph(a)) is None) == (
        tpc_pair_solver(zero_divisor_graph(b)) is None
    )


def test_spec_file_round_trip(tmp_path):
    spec = tables.load_catalog_spec("Z2XY-X2-Y2")
    path = tmp_path / "ring.json"
    import json

    path.write_text(json.dumps(spec.to_obj()))
    again = tables.load_spec_file(str(path))
    assert again == spec
    assert make_table_ring(again).order == 16


def test_huge_entries_build_the_same_ring():
    # entries far beyond int64 are reduced before any numpy array is made
    for slug in tables.catalog_names():
        spec = tables.load_catalog_spec(slug)
        ms = spec.moduli
        huge = TableRingSpec(
            spec.name, ms, tuple(c + 2**70 * m for c, m in zip(spec.one, ms)),
            tuple(tuple(tuple(c + 2**70 * m for c, m in zip(cell, ms)) for cell in row)
                  for row in spec.products),
        )
        a, b = make_table_ring(spec), make_table_ring(huge)
        idx = np.arange(a.order, dtype=np.int64)
        pairs = (idx[:, None], idx[None, :])
        assert a.one == b.one and np.array_equal(a.vec_mul(*pairs), b.vec_mul(*pairs)), slug


# -- the basis checks against the ring axioms on every element -----------------


def quotient_spec(m, f):
    """Z_m[x]/(f) as a table spec on the basis x^(d-1), ..., x, 1."""
    d = len(f) - 1
    products = tuple(tuple(map(tuple, row)) for row in _quotient_products(m, f))
    return TableRingSpec(f"Z{m}[x]/{f}", (m,) * d, (0,) * (d - 1) + (1,), products)


def axioms_hold(spec):
    """The reference verdict: the spec's bilinear arithmetic, with no check
    at all, satisfies every ring axiom on all pairs and triples."""
    radices = list(spec.moduli)
    vadd, vmul = bilinear_ops(radices, spec.products)
    one = int(_mixed_encode([np.int64(c % m) for c, m in zip(spec.one, radices)], radices))
    if one == 0:
        return False
    ring = FiniteRing(math.prod(radices), spec.name, "table", vadd, vmul, one, str)
    return first_failing_law(ring) is None


@st.composite
def shaped_specs(draw):
    """Specs that pass the shape checks, with k <= 3 generators and moduli
    in 2..4: either random products, symmetric unless drawn otherwise, or
    a quotient ring's with one cell or the one vector redrawn."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 4))
        d = draw(st.integers(1, 3))
        spec = quotient_spec(m, (*draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d)), 1))
        moduli, one = spec.moduli, spec.one
        cells = {(i, j): spec.products[i][j] for i in range(d) for j in range(d)}
    else:
        moduli = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
        one, cells = None, {}
    k = len(moduli)
    vec = st.tuples(*[st.integers(0, m - 1) for m in moduli])
    if one is None or draw(st.booleans()):
        one = draw(vec)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    redraw = set(pairs) if not cells else set(draw(st.lists(st.sampled_from(pairs), max_size=1)))
    symmetric = draw(st.booleans()) or draw(st.booleans())
    for i, j in sorted(redraw):
        if i <= j or not symmetric:
            cells[i, j] = draw(vec)
            if symmetric:
                cells[j, i] = cells[i, j]
    products = tuple(tuple(cells[i, j] for j in range(k)) for i in range(k))
    return TableRingSpec("drawn", moduli, one, products)


@settings(max_examples=300, deadline=None)
@given(spec=shaped_specs())
def test_basis_checks_accept_exactly_the_rings(spec):
    try:
        make_table_ring(spec)
        accepted = True
    except RingError:  # a zero one is refused by FiniteRing itself
        accepted = False
    event("accepted" if accepted else "rejected")
    assert accepted == axioms_hold(spec)


def small_monic_quotients(max_order=256):
    """Every monic f over Z_m, m = 2..16, with m^deg(f) <= max_order."""
    for m in range(2, 17):
        for d in range(1, int(math.log(max_order + 0.5, m)) + 1):
            for low in itertools.product(range(m), repeat=d):
                yield m, low + (1,)


def test_every_small_monic_quotient_spec_matches_make_quotient():
    # both multiplications are bilinear, so agreeing on every element times
    # every generator x^e (index m^e) is agreeing on every pair
    for m, f in small_monic_quotients():
        a, b = make_table_ring(quotient_spec(m, f)), make_quotient(m, f)
        assert a.one == b.one, (m, f)
        xs, gens = np.arange(a.order, dtype=np.int64)[:, None], m ** np.arange(len(f) - 1)[None, :]
        assert np.array_equal(a._vec_mul(xs, gens), b._vec_mul(xs, gens)), (m, f)


def test_order_256_spec_builds_without_a_pass_over_the_elements():
    spec = quotient_spec(2, (0,) * 8 + (1,))  # F2[x]/(x^8)
    start = time.perf_counter()
    ring = make_table_ring(spec)
    assert time.perf_counter() - start < 0.25
    assert ring.order == 256 and ring._vec_mul(np.int64(2), np.int64(128)) == 0  # x * x^7 = 0


def test_modulus_one_generators_cost_no_triples():
    # Z2^3 on its idempotents beside 47 generators of modulus 1, whose
    # entries are all multiples of 1: none of their triples is tried
    k, live = 50, range(47, 50)
    moduli = tuple(2 if i in live else 1 for i in range(k))
    products = tuple(
        tuple(tuple(int(i == j == c) if c in live else 7 for c in range(k)) for j in range(k))
        for i in range(k)
    )
    start = time.perf_counter()
    ring = make_table_ring(TableRingSpec("Z2^3", moduli, (1,) * k, products))
    assert time.perf_counter() - start < 0.5
    assert ring.order == 8 and ring.is_reduced and not ring.is_local
