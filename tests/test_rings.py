import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcodes import rings
from zdcodes.rings import (
    RingError,
    factorize,
    is_prime,
    make_gf,
    make_product,
    make_quotient,
    make_zn,
    poly_name,
    smallest_irreducible,
    zn_crt,
)


def gcd_units(n):
    return frozenset(x for x in range(1, n) if math.gcd(x, n) == 1)


def brute_zero_divisors(ring):
    out = set()
    for x in range(1, ring.order):
        if any(ring.mul(x, y) == 0 for y in range(1, ring.order)):
            out.add(x)
    return frozenset(out)


def view_units(ring):
    """The units as the class view marks them: the x whose class has |ann| = 1."""
    return frozenset(np.flatnonzero(ring.class_sizes[1][ring.classes[0]] == 1).tolist())


def view_zero_divisors(ring):
    """Z*(R) as the class view marks it: the nonzero non-units."""
    return frozenset(range(1, ring.order)) - view_units(ring)


def brute_structure(ring, mul):
    """Units, |ann(x)| per element, field and reduced, by brute force over
    the whole multiplication table `mul`: x is nilpotent exactly when
    x^(2^k) = 0 for 2^k >= order."""
    units = frozenset(np.flatnonzero((mul == ring.one).any(axis=1)).tolist())
    power = np.arange(ring.order)
    for _ in range(ring.order.bit_length()):
        power = mul[power, power]
    reduced = not (power[1:] == 0).any()
    return units, (mul == 0).sum(axis=1), len(units) == ring.order - 1, reduced


def full_table(ring):
    """The whole multiplication table from the ring's raw closure: the
    brute-force reference the class view is held to."""
    idx = np.arange(ring.order, dtype=np.int64)
    return ring._vec_mul(idx[:, None], idx[None, :])


def idempotent_count(ring):
    """The number of x with x^2 = x: the element-wise reference for the
    class view's local test, since a finite commutative ring with k local
    factors has 2^k idempotents."""
    idx = np.arange(ring.order, dtype=np.int64)
    return int((ring.vec_mul(idx, idx) == idx).sum())


def check_structure(ring, mul):
    """The class view's unit flags, |Z*|, |ann(x)| per element, is_field and
    is_reduced agree with the brute force over `mul`."""
    units, ann, field, reduced = brute_structure(ring, mul)
    assert view_units(ring) == units
    assert ring.num_units == len(units)
    assert ring.num_zero_divisors == len(ring.scan_zero_divisors()) == ring.order - 1 - len(units)
    assert np.array_equal(ring.class_sizes[1][ring.classes[0]], ann)
    assert (ring.is_field, ring.is_reduced) == (field, reduced)


def test_is_prime_and_factorize():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(7) == [(7, 1)]


def test_zn_units_against_gcd():
    for n in (6, 12, 16, 30):
        assert view_units(make_zn(n)) == gcd_units(n)
        assert make_zn(n).num_units == len(gcd_units(n))
    assert sorted(view_units(make_zn(12))) == [1, 5, 7, 11]


def test_zn_zero_divisors():
    assert view_zero_divisors(make_zn(2)) == frozenset()
    assert sorted(view_zero_divisors(make_zn(9))) == [3, 6]
    assert sorted(view_zero_divisors(make_zn(12))) == [2, 3, 4, 6, 8, 9, 10]
    for n in (8, 12, 18):
        assert view_zero_divisors(make_zn(n)) == brute_zero_divisors(make_zn(n))
        assert make_zn(n).num_zero_divisors == len(brute_zero_divisors(make_zn(n)))


def test_zn_bounds():
    with pytest.raises(RingError):
        make_zn(1)
    with pytest.raises(RingError, match="cap"):
        make_zn(5000)


def test_gf_small_fields():
    f4 = make_gf(2, 2)
    assert f4.order == 4 and f4.is_field
    assert view_units(f4) == {1, 2, 3}
    f9 = make_gf(3, 2)
    assert f9.order == 9 and f9.num_zero_divisors == 0
    assert make_gf(2, 1).name == "Z2"
    with pytest.raises(RingError):
        make_gf(4, 1)
    with pytest.raises(RingError, match="cap"):
        make_gf(2, 13)


def test_gf_modulus_choice_is_deterministic():
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2+1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)  # x^3+x^2+1
    assert make_gf(2, 3).mul(2, 4) == 5  # x * x^2 = x^2 + 1 modulo that polynomial


def test_quotient_rings():
    q = make_quotient(3, (0, 0, 1))
    assert q.order == 9
    assert sorted(view_zero_divisors(q)) == [3, 6]
    assert [q.element_name(i) for i in (3, 6)] == ["x", "2x"]
    q2 = make_quotient(2, (0, 0, 1))
    assert sorted(view_zero_divisors(q2)) == [2]  # only x
    assert make_quotient(4, (0, 0, 1)).order == 16
    with pytest.raises(RingError, match="monic"):
        make_quotient(4, (0, 0, 3))
    with pytest.raises(RingError):
        make_quotient(4, (1,))


def test_product_rings():
    pr = make_product([make_zn(2), make_zn(8)])
    assert pr.order == 16
    assert pr.num_zero_divisors == 11
    assert make_product([make_zn(2), make_zn(2)]).num_zero_divisors == 2
    assert make_product([make_zn(4), make_zn(4)]).num_zero_divisors == 11
    assert pr.element_name(pr.one) == "(1,1)"
    with pytest.raises(RingError):
        make_product([])
    with pytest.raises(RingError, match="cap"):
        make_product([make_zn(100), make_zn(100)])


def test_annihilators():
    z12, all12 = make_zn(12), np.arange(12)
    assert np.flatnonzero(class_zero_products(z12, [4], all12)).tolist() == [0, 3, 6, 9]
    assert class_zero_products(z12, [0], all12).all()
    assert np.flatnonzero(class_zero_products(make_zn(16), [2], np.arange(16))).tolist() == [0, 8]
    assert z12.class_sizes[1][z12.classes[0][[4, 0, 1]]].tolist() == [4, 12, 1]


@pytest.mark.parametrize(
    "ring",
    [make_zn(12), make_zn(16), make_gf(2, 2), make_quotient(3, (0, 0, 1)),
     make_product([make_zn(2), make_zn(8)])],
    ids=lambda r: r.name,
)
def test_ring_partition_and_annihilator_properties(ring):
    # units, nonzero zero-divisors and zero partition the ring
    assert view_zero_divisors(ring) == ring.scan_zero_divisors()
    idx = np.arange(ring.order)
    mul = ring.vec_mul(idx[:, None], idx[None, :])
    check_structure(ring, mul)
    zero = class_zero_products(ring, idx)
    assert np.array_equal(zero, mul == 0)
    assert zero[:, 0].all()
    assert np.array_equal(np.diagonal(zero), mul[idx, idx] == 0)


def test_class_sizes_make_no_integer_copy_of_the_class_matrix():
    # Z2^11's 2,048 classes: |ann| sums class sizes along each zero row, and
    # an integer copy of that bool matrix would be eight times its size
    import tracemalloc

    ring = make_product([make_zn(2)] * 11)
    zero = ring.classes[1]
    tracemalloc.start()
    try:
        assert (ring.num_units, ring.num_zero_divisors) == (1, 2046)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * zero.nbytes


def test_structure_queries_keep_no_multiplication_table():
    # order 1,024: a kept int64 table would hold 8 MB after the queries
    import tracemalloc

    ring = make_quotient(2, (0,) * 10 + (1,))
    tracemalloc.start()
    try:
        assert len(ring.class_sizes[0]) == 11  # the classes of 0, 1, x, ..., x^9
        assert ring.is_local and not ring.is_field and not ring.is_reduced
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.1 * ring.order**2 * 8


def test_structure_flags():
    assert make_zn(8).is_local and not make_zn(8).is_reduced
    assert not make_zn(12).is_local
    z2z2 = make_product([make_zn(2), make_zn(2)])
    assert z2z2.is_reduced and not z2z2.is_local
    assert make_zn(7).is_field and make_zn(7).is_local
    assert not make_quotient(2, (0, 0, 1)).is_reduced


def first_failing_law(ring):
    """The first ring axiom that fails over all pairs and triples of
    elements, as (law, elements), or None: the exhaustive reference the
    table rings' basis checks are held to."""
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    add = ring.vec_add(idx[:, None], idx[None, :])
    mul = ring.vec_mul(idx[:, None], idx[None, :])
    if ring.one == ring.zero:
        return "zero equals one", ()
    for law, table in (("additive commutativity", add), ("multiplicative commutativity", mul)):
        bad = np.argwhere(table != table.T)
        if bad.size:
            return law, tuple(bad[0].tolist())
    identities = (
        ("additive identity", add[0], idx),
        ("multiplicative identity", mul[ring.one], idx),
        ("zero absorption", mul[0], 0),
    )
    for law, row, want in identities:
        if not (row == want).all():
            return law, (int(np.flatnonzero(row != want)[0]),)
    neg_ok = (add == 0).any(axis=1)
    if not neg_ok.all():
        return "additive inverse", (int(np.flatnonzero(~neg_ok)[0]),)
    step = max(1, (1 << 22) // (n * n))
    for s in range(0, n, step):
        rows = idx[s : s + step]
        products = mul[rows]
        laws = [  # each side indexed (i, j, k) with i in rows
            ("additive associativity", add[add[rows]], add[rows][:, add]),
            ("multiplicative associativity", mul[products], products[:, mul]),
            ("distributivity", products[:, add], add[products[:, :, None], products[:, None, :]]),
        ]
        for law, left, right in laws:
            bad = np.argwhere(left != right)
            if bad.size:
                i, j, k = bad[0].tolist()
                return law, (int(rows[i]), j, k)
    return None


def test_ring_axioms_hold_in_constructors():
    for ring in (make_zn(12), make_gf(2, 3), make_quotient(4, (0, 0, 1)),
                 make_product([make_zn(3), make_zn(4)])):
        assert first_failing_law(ring) is None, ring.name


def test_ring_axioms_fail_in_broken_table():
    n = 6
    mul = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    mul[1] = idx
    mul[:, 1] = idx
    mul[2, 3] = mul[3, 2] = 5  # arbitrary junk
    bad = rings.FiniteRing(
        n, "broken", "table",
        vec_add=lambda i, j: (i + j) % n,
        vec_mul=lambda i, j: mul[i, j],
        one=1, elem_name=str,
    )
    assert first_failing_law(bad) == ("distributivity", (2, 1, 1))  # 2(1 + 1) = 0, 2 + 2 = 4


@pytest.mark.parametrize("a,b", [(3, 4), (2, 9), (4, 5)])
def test_crt_bijection_preserves_operations(a, b):
    zn = make_zn(a * b)
    prod, to_prod, from_prod = zn_crt(a * b)
    assert sorted(from_prod[to_prod]) == list(range(a * b))
    for x in range(a * b):
        for y in range(a * b):
            assert to_prod[zn.add(x, y)] == prod.add(int(to_prod[x]), int(to_prod[y]))
            assert to_prod[zn.mul(x, y)] == prod.mul(int(to_prod[x]), int(to_prod[y]))


def test_table_cache_respects_cap(monkeypatch):
    # the table-cache cap is deleted: a leftover setting is ignored, and
    # every ring multiplies through its own arithmetic at any order
    monkeypatch.setenv("ZDCODES_TABLE_CACHE_CAP", "8")
    assert make_zn(9).mul(3, 6) == 0
    small, big = make_quotient(2, (0, 0, 1)), make_quotient(2, (0,) * 9 + (1,))
    assert small.mul(2, 2) == 0 and big.mul(256, 2) == 0


def test_poly_name():
    assert poly_name((0, 0, 1)) == "x^2"
    assert poly_name((4, 0, 1)) == "x^2+4"
    assert poly_name((0, 2, 1)) == "x^2+2x"
    assert poly_name(()) == "0"
    assert poly_name((1, 1)) == "x+1"


def test_element_names():
    assert make_zn(12).element_name(7) == "7"
    q = make_quotient(3, (0, 0, 1))
    assert q.element_name(5) == "x+2"
    pr = make_product([make_zn(2), make_zn(3)])
    assert pr.element_name(4) == "(1,1)"


# -- Z_n's gcd-class closed forms against brute force ---------------------------


def brute_twin(ring):
    """A ring on the same arithmetic that is not marked Z_n, so every
    structure query reads its multiplication rows."""
    return rings.FiniteRing(
        ring.order, ring.name, "brute", ring._vec_add, ring._vec_mul, ring.one, str
    )


def class_zero_products(ring, xs, ys=None):
    """x*y == 0 for x in xs and y in ys (xs again by default), read off the
    class view."""
    cls, zero = ring.classes
    return zero[np.ix_(cls[xs], cls[xs if ys is None else ys])]


def check_zn_closed_forms(n, elements=None):
    """Units, Z*, |ann| per element, the field, reduced and local tests, and
    the zero products of `elements` (all of Z_n by default) with every
    element agree with the brute force."""
    ring, twin = make_zn(n), brute_twin(make_zn(n))
    table = full_table(twin)
    check_structure(ring, table)
    assert view_zero_divisors(ring) == ring.scan_zero_divisors() == view_zero_divisors(twin)
    assert ring.is_local == twin.is_local == (len(factorize(n)) == 1)
    assert ring.is_local == (idempotent_count(ring) == 2)
    xs = np.arange(n) if elements is None else np.asarray(elements, dtype=np.int64)
    assert np.array_equal(class_zero_products(ring, xs, np.arange(n)), table[xs] == 0)


@pytest.mark.parametrize("cap", ["0", "256"])
def test_zn_closed_forms_match_brute_force_up_to_300(monkeypatch, cap):
    # the deleted ZDCODES_TABLE_CACHE_CAP changes nothing
    monkeypatch.setenv("ZDCODES_TABLE_CACHE_CAP", cap)
    for n in range(2, 301):
        check_zn_closed_forms(n)


PRIME_POWERS = [p**k for p in (2, 3, 5, 7, 11, 13, 61) for k in range(1, 13) if p**k <= 4096]


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(301, 4096), st.sampled_from(PRIME_POWERS)),
    data=st.data(),
)
def test_zn_closed_forms_match_brute_force_up_to_4096(n, data):
    elems = st.integers(0, n - 1)
    elements = data.draw(st.lists(elems, min_size=1, max_size=128), label="zero products")
    check_zn_closed_forms(n, elements)


# -- quotient rings against brute force from their raw closures ------------------


def nonunits_closed_under_addition(ring):
    """The sum-closure test for a local ring: with 0, the non-units of a
    finite commutative ring form its unique maximal ideal exactly when it is
    local."""
    nonunits = np.array(sorted(set(range(ring.order)) - view_units(ring)), dtype=np.int64)
    member = np.zeros(ring.order, dtype=bool)
    member[nonunits] = True
    return bool(member[ring.vec_add(nonunits[:, None], nonunits[None, :])].all())


@st.composite
def quotients(draw, max_order=256):
    m = draw(st.integers(2, 16))
    d = draw(st.integers(1, int(math.log(max_order + 0.5, m))))
    low = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    return make_quotient(m, (*low, 1))


@settings(max_examples=30, deadline=None)
@given(ring=quotients())
def test_quotient_structure_matches_brute_force(ring):
    assert first_failing_law(ring) is None
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    mul = full_table(ring)
    check_structure(ring, mul)
    assert view_zero_divisors(ring) == ring.scan_zero_divisors()
    assert ring.is_local == nonunits_closed_under_addition(ring)
    assert ring.is_local == (idempotent_count(ring) == 2)
    power, nilpotent = idx.copy(), idx == 0
    for _ in range(n):
        power = mul[power, idx]
        nilpotent |= power == 0
    assert ring.is_reduced == (not nilpotent[1:].any())
    assert np.array_equal(class_zero_products(ring, idx), mul == 0)


def test_lazy_numpy_fails_at_import_like_import_does():
    from zdcodes import _numpy

    with pytest.raises(ModuleNotFoundError) as want:
        import zdcodes_no_such_module  # noqa: F401
    with pytest.raises(ModuleNotFoundError) as got:
        _numpy._lazy("zdcodes_no_such_module")
    assert (str(got.value), got.value.name) == (str(want.value), want.value.name)
