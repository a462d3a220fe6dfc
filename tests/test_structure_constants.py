"""Quotient, Galois and table rings multiply through one structure-constant
helper, `rings.bilinear_ops`.  These tests hold it to frozen copies of the
two multiplications it replaced: polynomial convolution over little-endian
base-m digits for Z_m[x]/(f), and a per-pair einsum over the mixed-radix
coordinates for table rings."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdcodes import tables
from zdcodes.rings import (
    _mixed_decode,
    _mixed_encode,
    make_gf,
    make_quotient,
    poly_name,
    smallest_irreducible,
)

# -- frozen references ---------------------------------------------------------


def conv_decode(idx, base, width):
    idx = np.asarray(idx, np.int64)
    digits = np.empty(idx.shape + (width,), dtype=np.int64)
    rest = idx.copy()
    for t in range(width):
        digits[..., t] = rest % base
        rest //= base
    return digits


def conv_encode(digits, base):
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for t in range(digits.shape[-1] - 1, -1, -1):
        out = out * base + digits[..., t]
    return out


def conv_ops(m, f):
    """Add, multiply and name elements of Z_m[x]/(f) by convolution and
    long division, an element's index being its digits constant term first."""
    d = len(f) - 1
    f_low = np.array(f[:d], dtype=np.int64)

    def vadd(i, j):
        return conv_encode((conv_decode(i, m, d) + conv_decode(j, m, d)) % m, m)

    def vmul(i, j):
        a = conv_decode(np.asarray(i), m, d)
        b = conv_decode(np.asarray(j), m, d)
        a, b = np.broadcast_arrays(a, b)
        conv = np.zeros(a.shape[:-1] + (2 * d - 1,), dtype=np.int64)
        for s in range(d):
            for t in range(d):
                conv[..., s + t] += a[..., s] * b[..., t]
        conv %= m
        for e in range(2 * d - 2, d - 1, -1):
            lead = conv[..., e]
            conv[..., e - d : e] = (conv[..., e - d : e] - lead[..., None] * f_low) % m
            conv[..., e] = 0
        return conv_encode(conv[..., :d], m)

    def name(x):
        return poly_name(conv_decode(np.int64(x), m, d).tolist())

    return vadd, vmul, name


def einsum_ops(spec):
    """Add, multiply and name elements of a table ring with one einsum per
    pair over the big-endian mixed-radix coordinates."""
    k = len(spec.moduli)
    moduli = np.array(spec.moduli, dtype=np.int64)
    prods = np.array([[list(cell) for cell in row] for row in spec.products], dtype=np.int64)
    radices = list(spec.moduli)

    def vadd(i, j):
        a = _mixed_decode(i, radices)
        b = _mixed_decode(j, radices)
        return _mixed_encode([(x + y) % m for x, y, m in zip(a, b, radices)], radices)

    def vmul(i, j):
        a = np.stack(np.broadcast_arrays(*_mixed_decode(i, radices)), axis=-1)
        b = np.stack(np.broadcast_arrays(*_mixed_decode(j, radices)), axis=-1)
        a, b = np.broadcast_arrays(a, b)
        coords = np.einsum("...i,...j,ijc->...c", a, b, prods)
        coords %= moduli
        return _mixed_encode([coords[..., c] for c in range(k)], radices)

    def name(x):
        return "(" + ",".join(str(int(t)) for t in _mixed_decode(np.int64(x), radices)) + ")"

    return vadd, vmul, name


def assert_matches(ring, ops):
    vadd, vmul, name = ops
    idx = np.arange(ring.order, dtype=np.int64)
    pairs = (idx[:, None], idx[None, :])
    assert np.array_equal(ring.vec_mul(*pairs), vmul(*pairs))
    assert np.array_equal(ring.vec_add(*pairs), vadd(*pairs))
    assert [ring.element_name(x) for x in idx] == [name(x) for x in idx]


# -- every small monic quotient, the Galois fields and the catalog --------------


def monic(m, max_degree=3, max_order=512):
    """Every monic f of degree <= 3 over Z_m with m^deg(f) <= 512: all of
    them up to order 256, and every 16th of the 343 cubics over Z7 and the
    512 over Z8, which would take a minute and a half in full."""
    for d in range(1, max_degree + 1):
        if m**d <= max_order:
            for n, low in enumerate(itertools.product(range(m), repeat=d)):
                if m**d <= 256 or n % 16 == 0:
                    yield low + (1,)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9])
def test_quotients_match_convolution(m):
    for f in monic(m):
        assert_matches(make_quotient(m, f), conv_ops(m, f))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)])
def test_galois_fields_match_convolution(p, k):
    assert_matches(make_gf(p, k), conv_ops(p, smallest_irreducible(p, k)))


@pytest.mark.parametrize("slug", tables.catalog_names())
def test_catalog_matches_einsum(slug):
    spec = tables.load_catalog_spec(slug)
    assert_matches(tables.make_table_ring(spec), einsum_ops(spec))


@st.composite
def big_quotients(draw):
    m = draw(st.integers(2, 16))
    d = draw(st.integers(1, int(np.log(4096.5) / np.log(m))))
    low = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    return m, (*low, 1)


@settings(max_examples=60, deadline=None)
@given(mf=big_quotients(), data=st.data())
def test_random_pairs_match_convolution_up_to_4096(mf, data):
    m, f = mf
    ring = make_quotient(m, f)
    vadd, vmul, _ = conv_ops(m, f)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, ring.order - 1), st.integers(0, ring.order - 1)),
                 min_size=1, max_size=64)
    )
    i, j = np.array(pairs, dtype=np.int64).T
    assert np.array_equal(ring._vec_mul(i, j), vmul(i, j))
    assert np.array_equal(ring._vec_add(i, j), vadd(i, j))
