"""Structure-constant rings and the packaged fixture catalog.

A table ring is presented on an additive group Z_{m_1} x ... x Z_{m_k} by a
k x k matrix of generator products expanded over the basis; multiplication
is the bilinear extension, computed by `rings.bilinear_ops` as for
polynomial quotients.  The constructor checks the presentation on its k
generators alone, in this order: its shape, its exact order against the
ring cap, commuting generator products, a well-defined bilinear extension,
associativity on every triple of generators, one != 0, and one * e_i = e_i
for every generator.  Addition is the group's and multiplication is
bilinear, so these imply every ring axiom on all elements; no check costs
more than k^5 steps, whatever the order.

The package ships eight fixture files: the seven exceptional local rings of
order 16 whose graphs have cut vertices but no total perfect code, plus the
order-8 local ring with squared-radical zero used by the mixed-product
examples.  Fixture files carry name/moduli/one/products and are addressable
from ring expressions as "@<slug>"; each is read, checked and built once
per process.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from ._numpy import np
from .rings import (
    FiniteRing, RingError, _check_cap, _mixed_decode, _mixed_encode, bilinear_ops,
)


@dataclass(frozen=True)
class TableRingSpec:
    name: str
    moduli: tuple[int, ...]
    one: tuple[int, ...]
    products: tuple[tuple[tuple[int, ...], ...], ...]  # products[i][j] over the basis

    @staticmethod
    def from_obj(obj) -> "TableRingSpec":
        """The spec in a parsed JSON file; a TableRingError names what is
        malformed."""
        if not isinstance(obj, dict):
            raise TableRingError("a table spec must be a JSON object")
        for key in ("name", "moduli", "one", "products"):
            if key not in obj:
                raise TableRingError(f"table spec has no {key!r}")
            if key != "name" and not isinstance(obj[key], list):
                raise TableRingError(f"table spec field {key!r} must be a list")

        def entry(x) -> int:
            if type(x) is not int:  # a bool or a float would be read as another integer
                raise ValueError(f"{x!r} is not an integer")
            return x

        try:
            return TableRingSpec(
                name=str(obj["name"]),
                moduli=tuple(entry(m) for m in obj["moduli"]),
                one=tuple(entry(c) for c in obj["one"]),
                products=tuple(
                    tuple(tuple(entry(c) for c in cell) for cell in row) for row in obj["products"]
                ),
            )
        except (TypeError, ValueError) as exc:
            raise TableRingError(f"table spec entries must be integers in lists: {exc}") from None

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "moduli": list(self.moduli),
            "one": list(self.one),
            "products": [[list(cell) for cell in row] for row in self.products],
        }


class TableRingError(RingError):
    pass


def _spec_checks(spec: TableRingSpec) -> tuple:
    """The spec's generator products reduced mod their moduli, once the
    shape, the cap, commutativity and a well-defined bilinear extension
    are checked."""
    k = len(spec.moduli)
    if k == 0 or any(m < 1 for m in spec.moduli):
        raise TableRingError("moduli must be a nonempty sequence of positive integers")
    if len(spec.one) != k:
        raise TableRingError("the one vector must have one coordinate per modulus")
    if len(spec.products) != k or any(len(row) != k for row in spec.products):
        raise TableRingError("products must be a k x k matrix of coordinate vectors")
    for row in spec.products:
        for cell in row:
            if len(cell) != k:
                raise TableRingError("every generator product needs k coordinates")
    _check_cap(math.prod(spec.moduli))
    products = tuple(
        tuple(tuple(c % m for c, m in zip(cell, spec.moduli)) for cell in row)
        for row in spec.products
    )
    for i in range(k):
        for j in range(k):
            if products[i][j] != products[j][i]:
                raise TableRingError(f"generator products e{i}e{j} and e{j}e{i} differ")
    for i in range(k):
        for j in range(k):
            for c, (coeff, m) in enumerate(zip(products[i][j], spec.moduli)):
                if (spec.moduli[i] * coeff) % m != 0:
                    raise TableRingError(
                        f"bilinear extension ill-defined: m_{i} * (e{i}e{j}) has "
                        f"nonzero coordinate {c}"
                    )
    return products


def _basis_mul(moduli, products, vec: Sequence[int], gen: int) -> tuple[int, ...]:
    """(sum_t vec_t e_t) * e_gen expanded over the basis."""
    k = len(moduli)
    out = [0] * k
    for t in range(k):
        if vec[t] == 0:
            continue
        for c in range(k):
            out[c] += vec[t] * products[t][gen][c]
    return tuple(v % m for v, m in zip(out, moduli))


def _basis_associativity(moduli, products) -> None:
    """(e_i e_j) e_l = e_i (e_j e_l) for every triple of generators; the
    right side is (e_j e_l) e_i, since the products commute.  A generator
    of modulus 1 is zero, and so is every product with it once the
    extension is well defined, so only the others are tried."""
    live = [i for i, m in enumerate(moduli) if m > 1]
    for i in live:
        for j in live:
            for l in live:
                left = _basis_mul(moduli, products, products[i][j], l)
                right = _basis_mul(moduli, products, products[j][l], i)
                if left != right:
                    raise TableRingError(
                        f"basis associativity fails at (e{i}, e{j}, e{l})"
                    )


def make_table_ring(spec: TableRingSpec) -> FiniteRing:
    products = _spec_checks(spec)
    radices = list(spec.moduli)
    _basis_associativity(radices, products)
    vadd, vmul = bilinear_ops(radices, products)
    one = tuple(c % m for c, m in zip(spec.one, radices))

    def elem_name(x: int) -> str:
        parts = _mixed_decode(np.int64(x), radices)
        return "(" + ",".join(str(int(t)) for t in parts) + ")"

    ring = FiniteRing(
        order=math.prod(radices),
        name=spec.name,
        kind="table",
        vec_add=vadd,
        vec_mul=vmul,
        one=int(_mixed_encode([np.int64(c) for c in one], radices)),
        elem_name=elem_name,
    )
    for i in range(len(radices)):
        e_i = tuple(int(c == i) % m for c, m in enumerate(radices))
        if _basis_mul(radices, products, one, i) != e_i:
            raise TableRingError(f"the designated one is not an identity: one * e{i} != e{i}")
    return ring


# -- packaged fixtures --------------------------------------------------------

#: slug -> fixture file; the first seven are the exceptional order-16 local
#: rings (cut vertices, no code), the last is the order-8 squared-radical ring.
CATALOG_FILES = {
    "Z4X-X2": "z4x-x2.json",
    "Z4X-X2p2X": "z4x-x2p2x.json",
    "Z8X-2X-X2p4": "z8x-2x-x2p4.json",
    "Z2XY-X2-Y2": "z2xy-x2-y2.json",
    "Z2XY-X2-Y2mXY": "z2xy-x2-y2mxy.json",
    "Z4XY-X2-Y2-XYm2-2X-2Y": "z4xy-x2-y2-xym2-2x-2y.json",
    "Z4XY-X2-Y2mXY-XYm2-2X-2Y": "z4xy-x2-y2mxy-xym2-2x-2y.json",
    "Z2XY-RAD2": "z2xy-rad2.json",
}

EXCEPTIONAL_SEVEN = tuple(list(CATALOG_FILES)[:7])


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG_FILES)


def _slug_lookup(name: str) -> str:
    lowered = {k.lower(): k for k in CATALOG_FILES}
    key = lowered.get(name.lower())
    if key is None:
        known = ", ".join(CATALOG_FILES)
        raise TableRingError(f"unknown catalog ring {name!r}; known names: {known}")
    return key


def load_spec_file(path: str) -> TableRingSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:  # nested deeper than the decoder's stack
            raise TableRingError(str(exc)) from None
    return TableRingSpec.from_obj(obj)


def load_catalog_spec(name: str) -> TableRingSpec:
    key = _slug_lookup(name)
    data = resources.files("zdcodes.data").joinpath(CATALOG_FILES[key]).read_text("utf-8")
    return TableRingSpec.from_obj(json.loads(data))


def catalog_ring(name: str) -> FiniteRing:
    """The packaged ring `name`, matched case-insensitively, built once per
    process; the ring cap in effect is checked on every request."""
    ring = _catalog_ring(_slug_lookup(name))
    _check_cap(ring.order)
    return ring


@functools.cache
def _catalog_ring(slug: str) -> FiniteRing:
    return make_table_ring(load_catalog_spec(slug))
