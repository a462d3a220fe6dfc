"""Product rings computed from their factors, against brute force.

A product ring's structure (units, Z*, annihilator sizes, the local /
field / reduced tests) and its zero-divisor graph come from the factors'
class views.  Each is compared here with the brute force over the same
product's multiplication table, read through a generic ring that only
knows its `vec_add` / `vec_mul`; the local test is checked by sum closure
and by the idempotent count.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcodes import tables
from zdcodes.rings import (
    FiniteRing,
    _mixed_decode,
    _mixed_encode,
    make_gf,
    make_product,
    make_quotient,
    make_zn,
)
from zdcodes.zdg import zero_divisor_graph

from test_rings import (
    check_structure, class_zero_products, full_table, idempotent_count,
    nonunits_closed_under_addition,
)

MAX_ORDER = 256


def factor_pool() -> list[FiniteRing]:
    return (
        [make_zn(n) for n in (2, 3, 4, 5, 6, 8, 9, 12)]
        + [make_quotient(p, (0, 0, 1)) for p in (2, 3)]
        + [make_gf(2, 2), make_gf(2, 3), make_gf(3, 2)]
        + [tables.catalog_ring(slug) for slug in ("Z4X-X2", "Z2XY-X2-Y2", "Z2XY-RAD2")]
    )


POOL = factor_pool()

products = (
    st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=3)
    .map(lambda idx: [POOL[i] for i in idx])
    .filter(lambda fs: math.prod(f.order for f in fs) <= MAX_ORDER)
)


def generic(ring: FiniteRing) -> FiniteRing:
    """The same ring with no factors: every structural query reads its
    multiplication rows."""
    return FiniteRing(
        ring.order, ring.name, "generic", ring.vec_add, ring.vec_mul, ring.one, ring.element_name
    )


def per_factor(ring: FiniteRing, op: str, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Product arithmetic through each factor's own vec_add / vec_mul."""
    radices = [f.order for f in ring.factors]
    a, b = _mixed_decode(i, radices), _mixed_decode(j, radices)
    return _mixed_encode(
        [getattr(f, op)(x, y) for f, x, y in zip(ring.factors, a, b)], radices
    )


def element_edges(z) -> set[tuple[int, int]]:
    return {(z.elements[a], z.elements[b]) for a, b in z.graph.edges}


def brute_edges(ring: FiniteRing) -> set[tuple[int, int]]:
    zs = sorted(ring.scan_zero_divisors())
    idx = np.arange(ring.order, dtype=np.int64)
    mul = ring.vec_mul(idx[:, None], idx[None, :])
    return {(x, y) for i, x in enumerate(zs) for y in zs[i + 1 :] if mul[x, y] == 0}


@settings(max_examples=40, deadline=None)
@given(factors=products)
def test_factor_wise_structure_matches_brute_force(factors):
    ring = make_product(factors)
    brute = generic(ring)
    idx = np.arange(ring.order)
    table = full_table(brute)
    check_structure(ring, table)
    assert ring.is_local == nonunits_closed_under_addition(ring)
    assert ring.is_local == (idempotent_count(ring) == 2)
    assert np.array_equal(class_zero_products(ring, idx), table == 0)
    z = zero_divisor_graph(ring)
    assert z.elements == tuple(sorted(brute.scan_zero_divisors()))
    assert element_edges(z) == brute_edges(brute)


@settings(max_examples=40, deadline=None)
@given(factors=products, seed=st.integers(0, 2**32 - 1))
def test_table_gather_matches_per_factor_arithmetic(factors, seed):
    ring = make_product(factors)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, ring.order, size=200)
    j = rng.integers(0, ring.order, size=200)
    for op in ("vec_mul", "vec_add"):
        assert (getattr(ring, op)(i, j) == per_factor(ring, op, i, j)).all()
    # broadcasting, as the graph and table builders use it
    assert (ring.vec_mul(i[:20, None], j[None, :20]) ==
            per_factor(ring, "vec_mul", i[:20, None], j[None, :20])).all()


def test_factor_above_256_elements_matches_brute_force():
    ring = make_product([make_zn(2), make_quotient(2, (0,) * 9 + (1,))])
    brute = generic(ring)
    check_structure(ring, full_table(brute))
    z = zero_divisor_graph(ring)
    assert z.elements == tuple(sorted(brute.scan_zero_divisors()))
    assert element_edges(z) == brute_edges(brute)


def test_product_structure_identities():
    z4_z4_z4 = make_product([make_zn(4)] * 3)
    assert z4_z4_z4.num_units == 8 and z4_z4_z4.num_zero_divisors == 55
    assert not z4_z4_z4.is_local and not z4_z4_z4.is_field and not z4_z4_z4.is_reduced
    single = make_product([make_gf(2, 2)])
    assert single.is_field and single.is_local and single.is_reduced
    assert make_product([make_zn(2), make_zn(3)]).is_reduced


def test_graph_labels_are_computed_only_when_read():
    ring = make_product([make_zn(4), make_zn(3)])
    names: list[int] = []
    name = ring._elem_name
    ring._elem_name = lambda x: names.append(x) or name(x)
    z = zero_divisor_graph(ring)
    assert names == []
    assert z.graph.labels[1] == "(0,2)" and names == [z.elements[1]]
    assert len(z.graph.labels) == z.graph.n and list(z.graph.labels) == list(range(z.graph.n))
    assert z.graph.n not in z.graph.labels
