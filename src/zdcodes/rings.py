"""Finite commutative ring kernel.

Rings are value objects: `order` elements indexed 0..order-1 with index 0
the zero element, vectorised add/mul callables over index arrays, and a
display name per element.  Constructors cover every family the deciders
need: Z_n, GF(p^k), univariate quotients Z_m[x]/(f) with f monic, and
finite products.  Structure-constant ("table") rings live in `tables`.

Quotients, GF(p^k) (built as a quotient) and table rings share one
arithmetic, `bilinear_ops`, on Z_{m_1} x ... x Z_{m_k} in mixed radix: a
quotient of degree d is the structure-constant ring on Z_m^d over the
basis x^(d-1), ..., x, 1, so an element's index is its coefficient list
read as base-m digits, constant term least significant.

A product's arithmetic applies each factor's own; every ring multiplies
through its own `vec_mul`, and none keeps a multiplication table.

Elements with one annihilator are twins in Gamma(R), so each ring's
structure is one view of its annihilator classes, `FiniteRing.classes`:
each element's class and which pairs of classes multiply to zero.  The
ring's kind decides only how that view is computed (Z_n from gcd(x, n), a
product from its factors' views, any other ring from its multiplication
rows, a chunk at a time).  Every structural fact reads it: the class sizes
give |ann(x)|, the unit count and |Z*(R)| (the nonzero non-units), R is a
field exactly when it has two classes, reduced exactly when no nonzero
class squares to zero and local exactly when ann(Z(R)) != 0, and Gamma(R)
is built from it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Sequence

from . import config
from ._numpy import np


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


VecOp = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]


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
        self.factors = tuple(factors)  # a product's factors, empty otherwise

    def __repr__(self):
        return f"FiniteRing({self.name}, order={self.order})"

    # -- arithmetic ---------------------------------------------------------

    def vec_add(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._vec_add(np.asarray(i, np.int64), np.asarray(j, np.int64))

    def vec_mul(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._vec_mul(np.asarray(i, np.int64), np.asarray(j, np.int64))

    def add(self, x: int, y: int) -> int:
        return int(self.vec_add(np.int64(x), np.int64(y)))

    def mul(self, x: int, y: int) -> int:
        return int(self.vec_mul(np.int64(x), np.int64(y)))

    def _row_chunks(self):
        """(xs, x*y for x in xs and every y) over chunks of about 2^18
        products, so that vec_mul's temporaries stay bounded at any order: a
        quotient of degree k holds about 2^18·k int64 in each (42 MB at
        peak for Z2[x]/(x^10))."""
        n = self.order
        idx = np.arange(n, dtype=np.int64)
        step = max(1, (1 << 18) // n)
        for s in range(0, n, step):
            xs = idx[s : s + step]
            yield xs, self.vec_mul(xs[:, None], idx[None, :])

    # -- structure ----------------------------------------------------------

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(cls, zero): cls[x] is the annihilator class of x, and zero[c, d]
        holds exactly when xy = 0 for x in class c and y in class d.  Equal
        annihilators make equal zero products, so one representative per
        class decides them; 0 is alone in its class.

        Z_n's classes are the divisors d of n, x's being gcd(x, n), since
        xy = 0 exactly when n divides gcd(x, n)·gcd(y, n).  A product's are
        the mixed-radix tuples of its factors' classes, and it zeroes a pair
        exactly when every factor does.  Any other ring's are the distinct
        zero patterns of its multiplication rows, packed chunk by chunk."""
        if self.kind == "zn":
            n = self.order
            divisors = np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1
            cls = np.searchsorted(divisors, np.gcd(np.arange(n), n))
            return cls, (divisors[:, None] * divisors[None, :]) % n == 0
        if self.factors:
            cls, zero = np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=bool)
            for f in self.factors:
                f_cls, f_zero = f.classes
                k, j = len(zero), len(f_zero)
                cls = (cls[:, None] * j + f_cls[None, :]).ravel()
                zero = (zero[:, None, :, None] & f_zero[None, :, None, :]).reshape(k * j, k * j)
            return cls, zero
        ids: dict[bytes, int] = {}
        cls = np.empty(self.order, dtype=np.int64)
        for xs, rows in self._row_chunks():
            packed = np.packbits(rows == 0, axis=1)
            cls[xs] = [ids.setdefault(row.tobytes(), len(ids)) for row in packed]
        # the keys, in class order, are the packed zero rows of each class's
        # first member, so the class matrix needs no second pass of products
        keys = np.frombuffer(b"".join(ids), dtype=np.uint8).reshape(len(ids), -1)
        reps = np.unique(cls, return_index=True)[1]
        return cls, np.unpackbits(keys, axis=1, count=self.order)[:, reps].astype(bool)

    @cached_property
    def class_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(size, ann): class c has size[c] members, and |ann(x)| = ann[c] for
        x in it, the total size of the classes it annihilates.  The units are
        the class with ann 1, 0's class the one with ann = order, and every
        other class lies in Z*(R)."""
        cls, zero = self.classes
        size = np.bincount(cls, minlength=len(zero))
        # einsum casts `zero` in buffered chunks where `zero @ size` would
        # copy all of it to integers (134 MB for Z2^12's 4,096 classes)
        return size, np.einsum("cd,d->c", zero, size)

    @property
    def num_units(self) -> int:
        size, ann = self.class_sizes
        return int(size[ann == 1].sum())

    @property
    def num_zero_divisors(self) -> int:
        """|Z*(R)|: every element of a finite ring is 0, a unit or a zero
        divisor."""
        return self.order - 1 - self.num_units

    def scan_zero_divisors(self) -> frozenset[int]:
        """Z*(R) by brute force over the multiplication rows, for any ring."""
        hits: list[int] = []
        for xs, rows in self._row_chunks():
            mask = (rows[:, 1:] == 0).any(axis=1) & (xs != 0)
            hits.extend(xs[mask].tolist())
        return frozenset(hits)

    @cached_property
    def is_field(self) -> bool:
        """Two classes: 0's and 1's, so every nonzero x has ann(x) = {0}
        and is a unit.  A field has exactly those two."""
        return len(self.classes[1]) == 2

    @cached_property
    def is_local(self) -> bool:
        """ann(Z(R)) != 0: some nonzero class is annihilated by every class
        of zero divisors, the classes with |ann| > 1.  In a finite local ring
        the maximal ideal m = Z(R) is nilpotent, so if m^t = 0 != m^(t-1)
        then m^(t-1) is a nonzero part of ann(m).  A finite ring that is not
        local is a product R1 x R2, where (1,0) and (0,1) are zero divisors
        and ann((1,0)) ∩ ann((0,1)) = 0."""
        zero = self.classes[1]
        return int(zero[:, self.class_sizes[1] > 1].all(axis=1).sum()) > 1

    @cached_property
    def is_reduced(self) -> bool:
        """No nonzero nilpotents: 0's class is the only one whose square
        vanishes.  If x^k = 0 with x != 0 and k >= 2 least, then
        y = x^(k-1) is nonzero and y^2 = 0, as 2k - 2 >= k."""
        return int(np.diagonal(self.classes[1]).sum()) == 1

    # -- presentation -------------------------------------------------------

    def element_name(self, x: int) -> str:
        if not (0 <= x < self.order):
            raise RingError(f"element index {x} outside ring of order {self.order}")
        return self._elem_name(x)


def _check_cap(order: int) -> None:
    cap = config.current()
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
    )


# -- structure constants over Z_{m_1} x ... x Z_{m_k} -------------------------


def bilinear_ops(moduli: Sequence[int], products) -> tuple[VecOp, VecOp]:
    """Add and multiply on Z_{m_1} x ... x Z_{m_k}, each element indexed by
    its coordinates in mixed radix (`_mixed_decode`), the first most
    significant.  products[i][j] holds the coordinates of e_i e_j,
    and multiplication is their bilinear extension: x * y applies x's
    multiplication map sum_i x_i P_i to y's coordinates, so forming the map
    costs k^3 per x and applying it k^2 per pair.
    """
    k = len(moduli)
    mods = np.array(moduli, dtype=np.int64)
    prods = (np.asarray(products, dtype=np.int64).reshape(k, k, k) % mods).reshape(k, k * k)

    def vadd(i, j):
        a, b = _mixed_decode(i, moduli), _mixed_decode(j, moduli)
        return _mixed_encode([(s + t) % m for s, t, m in zip(a, b, moduli)], moduli)

    def vmul(i, j):
        a = np.stack(_mixed_decode(i, moduli), axis=-1)
        b = np.stack(_mixed_decode(j, moduli), axis=-1)
        maps = (a @ prods).reshape(a.shape[:-1] + (k, k)) % mods
        out = np.matmul(b[..., None, :], maps)[..., 0, :] % mods
        return _mixed_encode([out[..., c] for c in range(k)], moduli)

    return vadd, vmul


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


def _quotient_products(m: int, f: tuple[int, ...]) -> list:
    """Structure constants of Z_m[x]/(f) on the basis x^(d-1), ..., x, 1, so
    that an element's index is its coefficient list read as base-m digits,
    constant term least significant: e_i e_j = x^(2d-2-i-j) reduced mod f."""
    d = len(f) - 1
    powers = [[int(e == t) for t in range(d)] for e in range(d)]  # x^e mod f, constant first
    for _ in range(d - 1):
        lead = powers[-1][-1]
        powers.append([(c - lead * a) % m for c, a in zip([0] + powers[-1][:-1], f)])
    return [[powers[2 * d - 2 - i - j][::-1] for j in range(d)] for i in range(d)]


def make_quotient(m: int, f: Sequence[int]) -> FiniteRing:
    """Z_m[x]/(f) for monic f given as coefficients, constant term first."""
    if m < 2:
        raise RingError("coefficient modulus must be at least 2")
    f = tuple(int(c) % m if i < len(f) - 1 else int(c) for i, c in enumerate(f))
    if len(f) < 2:
        raise RingError("the modulus polynomial needs degree >= 1")
    if f[-1] != 1:
        raise RingError(f"modulus polynomial {poly_name(f)} is not monic")
    d = len(f) - 1
    order = m**d
    _check_cap(order)
    radices = [m] * d
    vadd, vmul = bilinear_ops(radices, _quotient_products(m, f))

    def elem_name(x: int) -> str:
        return poly_name([int(c) for c in reversed(_mixed_decode(np.int64(x), radices))])

    return FiniteRing(
        order=order,
        name=f"Z{m}[x]/({poly_name(f)})",
        kind="quotient",
        vec_add=vadd,
        vec_mul=vmul,
        one=1,
        elem_name=elem_name,
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


def make_product(factors: Sequence[FiniteRing]) -> FiniteRing:
    """R_1 x ... x R_k with mixed-radix indices, the first factor most
    significant.  Arithmetic decodes coordinates and applies each factor's
    own vec_add / vec_mul.
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
            [f.vec_add(x, y) for f, x, y in zip(factors, a, b)], radices
        )

    def vmul(i, j):
        a = _mixed_decode(i, radices)
        b = _mixed_decode(j, radices)
        return _mixed_encode(
            [f.vec_mul(x, y) for f, x, y in zip(factors, a, b)], radices
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
