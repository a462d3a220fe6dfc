"""Finite commutative ring kernel.

Rings are value objects: `order` elements indexed 0..order-1 with index 0
the zero element, vectorised add/mul callables over index arrays, and a
display name per element.  Constructors cover every family the deciders
need: Z_n, GF(p^k), univariate quotients Z_m[x]/(f) with f monic, and
finite products.  Structure-constant ("table") rings live in `tables`.

Op tables are cached below the table-cache cap and recomputed on demand
above it.  Z_n's structure comes from its gcd classes: x is a unit exactly
when gcd(x, n) = 1, and xy = 0 exactly when n divides gcd(x, n)·gcd(y, n),
so units, zero divisors, annihilators, zero products and the local test
need no table at any order.  Products are computed from their factors:
arithmetic gathers each factor's cached table, and units, zero divisors,
annihilators and the local, field and reduced tests follow from the
factors' own answers.  Structural queries on every other ring scan in
vectorised chunks so they never materialise more than a sliver of the
full table.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import config


class RingError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


VecOp = Callable[[np.ndarray, np.ndarray], np.ndarray]


class FiniteRing:
    """A finite commutative ring with 1 != 0 over indices 0..order-1."""

    def __init__(
        self,
        order: int,
        name: str,
        kind: str,
        vec_add: VecOp,
        vec_mul: VecOp,
        one: int,
        elem_name: Callable[[int], str],
        payload: dict | None = None,
        factors: Sequence[FiniteRing] = (),
    ):
        if order < 2:
            raise RingError("a ring with 1 != 0 needs at least two elements")
        if one == 0:
            raise RingError("one must differ from zero")
        self.order = order
        self.name = name
        self.kind = kind
        self.zero = 0
        self.one = one
        self._vec_add = vec_add
        self._vec_mul = vec_mul
        self._elem_name = elem_name
        self.payload = payload or {}
        self.factors = tuple(factors)  # a product's factors, empty otherwise

    def __repr__(self):
        return f"FiniteRing({self.name}, order={self.order})"

    # -- arithmetic ---------------------------------------------------------

    def vec_add(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._vec_add(np.asarray(i, np.int64), np.asarray(j, np.int64))

    def vec_mul(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._vec_mul(np.asarray(i, np.int64), np.asarray(j, np.int64))

    def add(self, x: int, y: int) -> int:
        t = self._cached_add
        if t is not None:
            return int(t[x, y])
        return int(self.vec_add(np.int64(x), np.int64(y)))

    def mul(self, x: int, y: int) -> int:
        t = self._cached_mul
        if t is not None:
            return int(t[x, y])
        return int(self.vec_mul(np.int64(x), np.int64(y)))

    @cached_property
    def _cache_tables(self) -> bool:
        return self.order <= config.current().table_cache_cap

    @cached_property
    def _cached_add(self) -> np.ndarray | None:
        return self._build_table(self.vec_add) if self._cache_tables else None

    @cached_property
    def _cached_mul(self) -> np.ndarray | None:
        return self._build_table(self.vec_mul) if self._cache_tables else None

    def _build_table(self, op: VecOp) -> np.ndarray:
        n = self.order
        idx = np.arange(n, dtype=np.int64)
        return op(np.repeat(idx, n), np.tile(idx, n)).reshape(n, n)

    def add_table(self) -> np.ndarray:
        return self._cached_add if self._cached_add is not None else self._build_table(self.vec_add)

    def mul_table(self) -> np.ndarray:
        return self._cached_mul if self._cached_mul is not None else self._build_table(self.vec_mul)

    def _mul_rows(self, xs: np.ndarray) -> np.ndarray:
        """Multiplication rows for the given elements against all of R."""
        t = self._cached_mul
        if t is not None:
            return t[xs]
        all_ = np.arange(self.order, dtype=np.int64)
        return self.vec_mul(xs[:, None], all_[None, :])

    def _mul_row_chunks(self, chunk_elems: int | None = None):
        n = self.order
        step = chunk_elems or max(1, (1 << 21) // n)
        idx = np.arange(n, dtype=np.int64)
        for s in range(0, n, step):
            yield idx[s : s + step], self._mul_rows(idx[s : s + step])

    def zero_products(self, xs: np.ndarray) -> np.ndarray:
        """Boolean matrix of x*y == 0 over the given elements, both ways.
        Z_n decides it once per pair of distinct gcd classes and gathers."""
        g = self._zn_gcd
        if g is not None:
            values, where = np.unique(g[xs], return_inverse=True)
            return ((values[:, None] * values[None, :]) % self.order == 0)[np.ix_(where, where)]
        t = self._cached_mul
        if t is not None:
            return t[np.ix_(xs, xs)] == 0
        return self.vec_mul(xs[:, None], xs[None, :]) == 0

    # -- structure ----------------------------------------------------------

    @cached_property
    def _zn_gcd(self) -> np.ndarray | None:
        """gcd(x, n) for every x of Z_n, the class that fixes x's structure;
        None for every other ring."""
        if self.kind != "zn":
            return None
        return np.gcd(np.arange(self.order, dtype=np.int64), self.order)

    @cached_property
    def units(self) -> frozenset[int]:
        """A product element is a unit exactly when every coordinate is; a
        Z_n element exactly when it is coprime to n."""
        if self.factors:
            return _product_set(self.factors, [f.units for f in self.factors])
        if self._zn_gcd is not None:
            return frozenset(np.flatnonzero(self._zn_gcd == 1).tolist())
        hits: list[int] = []
        for xs, rows in self._mul_row_chunks():
            hits.extend(xs[(rows == self.one).any(axis=1)].tolist())
        return frozenset(hits)

    @cached_property
    def zero_divisors_nonzero(self) -> frozenset[int]:
        """Z*(R): nonzero x with xy = 0 for some nonzero y.  Every element of
        a finite ring is a unit or a zero divisor, so for a product and for
        Z_n this is every nonzero non-unit; other rings are scanned.
        """
        if self.factors or self._zn_gcd is not None:
            return frozenset(range(1, self.order)) - self.units
        return self.scan_zero_divisors()

    def scan_zero_divisors(self) -> frozenset[int]:
        """Z*(R) by brute force over the multiplication rows, for any ring."""
        hits: list[int] = []
        for xs, rows in self._mul_row_chunks():
            mask = (rows[:, 1:] == 0).any(axis=1) & (xs != 0)
            hits.extend(xs[mask].tolist())
        return frozenset(hits)

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def num_nonzero(self) -> int:
        return self.order - 1

    def annihilator(self, x: int) -> frozenset[int]:
        """ann(x) = {y : xy = 0}, always containing 0.  In a product it is
        the product of the factors' annihilators of x's coordinates; in Z_n
        it is the multiples of n / gcd(x, n).
        """
        self._check_elem(x)
        if self._zn_gcd is not None:
            return frozenset(range(0, self.order, self.order // int(self._zn_gcd[x])))
        if self.factors:
            coords = _mixed_decode(np.int64(x), [f.order for f in self.factors])
            return _product_set(
                self.factors, [f.annihilator(int(c)) for f, c in zip(self.factors, coords)]
            )
        row = self._mul_rows(np.array([x], dtype=np.int64))[0]
        return frozenset(np.nonzero(row == 0)[0].tolist())

    @cached_property
    def is_field(self) -> bool:
        """All nonzero elements are units; a product of two or more factors
        never passes, since (1,0,...) is a nonzero non-unit.
        """
        return len(self.units) == self.order - 1

    @cached_property
    def is_local(self) -> bool:
        """Zero divisors together with 0 are closed under addition, which
        for a finite commutative ring pins down the unique maximal ideal.
        A product of two or more factors is never local: (1,0,...) and
        (0,1,...) are non-units summing to one.  Z_n is local exactly when
        n is a prime power, that is when its non-units share a prime.
        """
        if self.factors:
            return len(self.factors) == 1 and self.factors[0].is_local
        if self._zn_gcd is not None:
            return bool(np.gcd.reduce(self._zn_gcd[self._zn_gcd > 1]) > 1)
        nonunits = np.array(sorted(set(range(self.order)) - self.units), dtype=np.int64)
        member = np.zeros(self.order, dtype=bool)
        member[nonunits] = True
        sums = self.vec_add(nonunits[:, None], nonunits[None, :])
        return bool(member[sums].all())

    @cached_property
    def is_reduced(self) -> bool:
        """No nonzero nilpotents: x^(2^ceil(log2 n)) vanishes iff x does.
        A product is reduced exactly when every factor is, since powers are
        taken coordinate-wise.
        """
        if self.factors:
            return all(f.is_reduced for f in self.factors)
        p = np.arange(self.order, dtype=np.int64)
        steps = max(1, (self.order - 1).bit_length())
        for _ in range(steps):
            p = self.vec_mul(p, p)
        return bool((p[1:] != 0).all())

    def nilpotents(self) -> frozenset[int]:
        p = np.arange(self.order, dtype=np.int64)
        for _ in range(max(1, (self.order - 1).bit_length())):
            p = self.vec_mul(p, p)
        return frozenset(np.nonzero(p == 0)[0].tolist())

    # -- presentation -------------------------------------------------------

    def element_name(self, x: int) -> str:
        self._check_elem(x)
        return self._elem_name(x)

    def _check_elem(self, x: int) -> None:
        if not (0 <= x < self.order):
            raise RingError(f"element index {x} outside ring of order {self.order}")


def _check_cap(order: int) -> None:
    cap = config.current().ring_cap
    if order > cap:
        raise RingError(f"ring order {order} exceeds the cap {cap}")


# -- Z_n ---------------------------------------------------------------------


def make_zn(n: int) -> FiniteRing:
    if n < 2:
        raise RingError("Z_n needs n >= 2")
    _check_cap(n)
    return FiniteRing(
        order=n,
        name=f"Z{n}",
        kind="zn",
        vec_add=lambda i, j: (i + j) % n,
        vec_mul=lambda i, j: (i * j) % n,
        one=1,
        elem_name=str,
        payload={"n": n},
    )


# -- polynomials over Z_m ----------------------------------------------------


def poly_name(coeffs: Sequence[int]) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if e == 1 else f"{head}x^{e}")
    return "+".join(terms) if terms else "0"


def _decode(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    idx = np.asarray(idx, np.int64)
    digits = np.empty(idx.shape + (width,), dtype=np.int64)
    rest = idx.copy()
    for t in range(width):
        digits[..., t] = rest % base
        rest //= base
    return digits


def _encode(digits: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for t in range(digits.shape[-1] - 1, -1, -1):
        out = out * base + digits[..., t]
    return out


def _poly_divides(div: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """Whether the monic polynomial `div` divides monic `f` over Z_p."""
    rem = list(f)
    d = len(div) - 1
    while len(rem) - 1 >= d:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - d
            for t in range(d + 1):
                rem[shift + t] = (rem[shift + t] - lead * div[t]) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over Z_p,
    ordered by coefficient tuple with the constant term first.
    """
    for tail in itertools.product(range(p), repeat=k):
        f = tail + (1,)
        reducible = False
        for d in range(1, k // 2 + 1):
            for div_tail in itertools.product(range(p), repeat=d):
                if _poly_divides(div_tail + (1,), f, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return f
    raise RingError(f"no irreducible of degree {k} over Z_{p}")  # pragma: no cover


def _quotient_ops(m: int, f: Sequence[int]) -> tuple[VecOp, VecOp, int]:
    d = len(f) - 1
    f_low = np.array(f[:d], dtype=np.int64)

    def vadd(i, j):
        return _encode((_decode(i, m, d) + _decode(j, m, d)) % m, m)

    def vmul(i, j):
        a = _decode(np.asarray(i), m, d)
        b = _decode(np.asarray(j), m, d)
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
        return _encode(conv[..., :d], m)

    return vadd, vmul, d


def make_quotient(m: int, f: Sequence[int]) -> FiniteRing:
    """Z_m[x]/(f) for monic f given as coefficients, constant term first."""
    f = tuple(int(c) % m if i < len(f) - 1 else int(c) for i, c in enumerate(f))
    if m < 2:
        raise RingError("coefficient modulus must be at least 2")
    if len(f) < 2:
        raise RingError("the modulus polynomial needs degree >= 1")
    if f[-1] != 1:
        raise RingError(f"modulus polynomial {poly_name(f)} is not monic")
    d = len(f) - 1
    order = m**d
    _check_cap(order)
    vadd, vmul, _ = _quotient_ops(m, f)

    def elem_name(x: int) -> str:
        return poly_name(_decode(np.int64(x), m, d).tolist())

    return FiniteRing(
        order=order,
        name=f"Z{m}[x]/({poly_name(f)})",
        kind="quotient",
        vec_add=vadd,
        vec_mul=vmul,
        one=1,
        elem_name=elem_name,
        payload={"m": m, "f": f},
    )


def make_gf(p: int, k: int) -> FiniteRing:
    if not is_prime(p):
        raise RingError(f"{p} is not prime")
    if k < 1:
        raise RingError("field extension degree must be >= 1")
    _check_cap(p**k)
    if k == 1:
        return make_zn(p)
    f = smallest_irreducible(p, k)
    ring = make_quotient(p, f)
    ring.name = f"GF({p}^{k})"
    ring.kind = "gf"
    ring.payload = {"p": p, "k": k, "modulus": f}
    return ring


# -- products ----------------------------------------------------------------


def _mixed_decode(idx: np.ndarray, radices: Sequence[int]) -> list[np.ndarray]:
    parts: list[np.ndarray] = []
    rest = np.asarray(idx, np.int64).copy()
    for r in reversed(radices):
        parts.append(rest % r)
        rest //= r
    parts.reverse()
    return parts


def _mixed_encode(parts: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    out = np.zeros_like(np.asarray(parts[0], np.int64))
    for t, r in zip(parts, radices):
        out = out * r + t
    return out


def _product_set(factors: Sequence[FiniteRing], parts: Sequence[frozenset[int]]) -> frozenset[int]:
    """Indices of the product elements whose k-th coordinate lies in parts[k]."""
    out = np.zeros(1, dtype=np.int64)
    for f, part in zip(factors, parts):
        out = (out[:, None] * f.order + np.fromiter(part, np.int64, len(part))[None, :]).ravel()
    return frozenset(out.tolist())


def _factor_op(table: np.ndarray | None, op: VecOp, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return table[x, y] if table is not None else op(x, y)


def make_product(factors: Sequence[FiniteRing]) -> FiniteRing:
    """R_1 x ... x R_k with mixed-radix indices, the first factor most
    significant.  Arithmetic decodes coordinates and gathers each factor's
    cached op table; a factor above the table-cache cap computes its own.
    """
    if len(factors) < 1:
        raise RingError("a product needs at least one factor")
    factors = tuple(factors)
    order = 1
    for f in factors:
        order *= f.order
    _check_cap(order)
    radices = [f.order for f in factors]

    def vadd(i, j):
        a = _mixed_decode(i, radices)
        b = _mixed_decode(j, radices)
        return _mixed_encode(
            [_factor_op(f._cached_add, f.vec_add, x, y) for f, x, y in zip(factors, a, b)],
            radices,
        )

    def vmul(i, j):
        a = _mixed_decode(i, radices)
        b = _mixed_decode(j, radices)
        return _mixed_encode(
            [_factor_op(f._cached_mul, f.vec_mul, x, y) for f, x, y in zip(factors, a, b)],
            radices,
        )

    one = int(_mixed_encode([np.int64(f.one) for f in factors], radices))

    def elem_name(x: int) -> str:
        parts = _mixed_decode(np.int64(x), radices)
        return "(" + ",".join(f.element_name(int(t)) for f, t in zip(factors, parts)) + ")"

    return FiniteRing(
        order=order,
        name=" x ".join(f.name for f in factors),
        kind="product",
        vec_add=vadd,
        vec_mul=vmul,
        one=one,
        elem_name=elem_name,
        factors=factors,
    )


def product_encode(ring: FiniteRing, coords: Sequence[int]) -> int:
    """Index of the element with the given coordinates in a product ring."""
    radices = [f.order for f in ring.factors]
    return int(_mixed_encode([np.int64(c) for c in coords], radices))


# -- CRT decomposition of Z_n -------------------------------------------------


def zn_crt(n: int) -> tuple[FiniteRing, np.ndarray, np.ndarray]:
    """Product of prime-power Z_{p^e} factors of Z_n plus the index maps
    to_product / from_product realising the ring isomorphism.
    """
    parts = [p**e for p, e in factorize(n)]
    prod = make_product([make_zn(q) for q in parts])
    x = np.arange(n, dtype=np.int64)
    to_prod = _mixed_encode([x % q for q in parts], parts)
    from_prod = np.empty(n, dtype=np.int64)
    from_prod[to_prod] = x
    return prod, to_prod, from_prod


# -- full axiom validation -----------------------------------------------------


class RingAxiomError(RingError):
    pass


def validate_ring(ring: FiniteRing, chunk: int | None = None) -> None:
    """Exhaustively check the ring axioms over every element (all pairs for
    commutativity and identities, all triples for associativity and
    distributivity).  Raises RingAxiomError naming the first failing tuple.
    """
    n = ring.order
    add = ring.add_table()
    mul = ring.mul_table()
    name = ring.element_name

    def fail(law: str, triple: tuple[int, ...]) -> None:
        pretty = ", ".join(name(t) for t in triple)
        raise RingAxiomError(f"{law} fails at ({pretty}) in {ring.name}")

    if ring.one == ring.zero:
        raise RingAxiomError("zero equals one")
    idx = np.arange(n, dtype=np.int64)
    for law, table in (("additive commutativity", add), ("multiplicative commutativity", mul)):
        bad = np.argwhere(table != table.T)
        if bad.size:
            fail(law, tuple(bad[0].tolist()))
    if not (add[0] == idx).all():
        fail("additive identity", (int(np.nonzero(add[0] != idx)[0][0]),))
    if not (mul[ring.one] == idx).all():
        fail("multiplicative identity", (int(np.nonzero(mul[ring.one] != idx)[0][0]),))
    if not (mul[0] == 0).all():
        fail("zero absorption", (int(np.nonzero(mul[0] != 0)[0][0]),))
    neg_ok = (add == 0).any(axis=1)
    if not neg_ok.all():
        fail("additive inverse", (int(np.nonzero(~neg_ok)[0][0]),))

    step = chunk or max(1, (1 << 22) // max(1, n * n))
    for s in range(0, n, step):
        rows = idx[s : s + step]
        for law, table in (("additive associativity", add), ("multiplicative associativity", mul)):
            left = table[table[rows]]          # (c, j, k) -> (i+j)+k
            right = table[rows][:, table]      # (c, j, k) -> i+(j+k)
            bad = np.argwhere(left != right)
            if bad.size:
                i, j, k = bad[0].tolist()
                fail(law, (int(rows[i]), j, k))
        left = mul[rows][:, add]               # i*(j+k)
        right = add[mul[rows][:, :, None], mul[rows][:, None, :]]
        bad = np.argwhere(left != right)
        if bad.size:
            i, j, k = bad[0].tolist()
            fail("distributivity", (int(rows[i]), j, k))
