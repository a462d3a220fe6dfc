"""The four benchmark workloads, their inputs and their correctness checks.

Every workload goes through `zdcodes.cli.main`, the package's public entry
point, as a closed loop with one client in one process (`--jobs 1`; the
reference machine has two shared cores, so parallel fan-out stays out).

* `zn-sweep`: `verify zn-sweep`, n = 4..200, 197 instances.  The exact
  search takes about 94% of the time and ring arithmetic is negligible, so
  a faster exact solver must show here and a ring change should not.
* `mixed-products`: `verify mixed-products --max-order 128`, 350 instances
  with 12 expected `local-field-zstar-two` findings.  Product `vec_mul`
  (table-ring einsum, quotient convolution, mixed-radix decode), eager
  labels and duplicate graph builds dominate; search is about 5%.  Factor-
  wise product rings must show here and a new solver should not.
* `decide`: a seeded stream of independent `tpc-decide <ring> --json`
  requests: Z_n with n <= 4096 and products of 2-4 catalog factors of order
  <= 1024, a third of them above the table-cache cap.  The interactive
  path: parser, CLI, large-order structure scans and memory, with a heavy
  tail; few large rings against many small ones.
* `trees`: `verify trees` with the default sizes, 1519 instances, no rings.
  The tree dynamic program and graph traversal dominate; it also runs about
  a thousand searches on graphs of at most 12 vertices, so a solver that
  pays more per call shows here.  The seed drives the random samples.

`zn-sweep` and `mixed-products` are fixed by their bounds and ignore the
seed.

Outputs are compared with golden outputs recorded for the default seed.
Only semantic fields are compared; timings and keys added later are
ignored.  On another seed, the stream or the random trees differ, so the
check is that every exit code is 0, consensus holds and no discrepancy is
unexpected.
"""

from __future__ import annotations

import itertools
import math
import random

DEFAULT_SEED = 20250808

#: argv after `verify <suite>`; `smoke` sizes serve the benchmark's own tests
SUITE_ARGS = {
    "zn-sweep": {"full": ["--max-n", "200"], "smoke": ["--max-n", "40"]},
    "mixed-products": {"full": ["--max-order", "128"], "smoke": ["--max-order", "32"]},
    "trees": {
        "full": [],
        "smoke": ["--samples", "60", "--traces", "20", "--probe-max", "6"],
    },
}
SEEDED_SUITES = {"trees"}
WORKLOADS = ("zn-sweep", "mixed-products", "decide", "trees")

# -- the decide stream ----------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)
_CATALOG = {  # packaged table rings (local, residue field F2): order, basis size
    "@Z4X-X2": (16, 2),
    "@Z4X-X2p2X": (16, 2),
    "@Z8X-2X-X2p4": (16, 2),
    "@Z2XY-X2-Y2": (16, 4),
    "@Z2XY-X2-Y2mXY": (16, 4),
    "@Z4XY-X2-Y2-XYm2-2X-2Y": (16, 3),
    "@Z4XY-X2-Y2mXY-XYm2-2X-2Y": (16, 3),
    "@Z2XY-RAD2": (8, 3),
}
# (text, order, units, weight): weight is the rough cost of one element
# product relative to Z_n (polynomial convolution; table einsum, which
# grows with the basis size)
LOCAL_ATOMS = (
    [(f"Z{p ** k}", p**k, p**k - p ** (k - 1), 1)
     for p in _PRIMES for k in range(2, 9) if p**k <= 256]
    + [(f"Z{p}[x]/(x^2)", p * p, p * p - p, 5) for p in _PRIMES]
    + [(t, order, order // 2, 4 + 8 * basis) for t, (order, basis) in _CATALOG.items()]
)
FIELD_ATOMS = [(f"Z{p}", p, p - 1, 1) for p in _PRIMES] + [
    ("F4", 4, 3, 5), ("F8", 8, 7, 10), ("F9", 9, 8, 5)
]

TABLE_CACHE_CAP = 256  # the package's default; a third of requests lie above it
PRODUCT_MAX_ORDER = 1024


def _products() -> list[tuple[str, int, int]]:
    """Every product of 2-4 catalog factors (locals first, then fields)
    with order at most PRODUCT_MAX_ORDER, as (text, order, cost proxy)."""
    atoms = LOCAL_ATOMS + FIELD_ATOMS
    out = []
    for k in (2, 3, 4):
        for combo in itertools.combinations_with_replacement(atoms, k):
            order = math.prod(a[1] for a in combo)
            if order <= PRODUCT_MAX_ORDER:
                zstar = order - math.prod(a[2] for a in combo) - 1
                proxy = order * order * sum(a[3] for a in combo) + zstar * zstar
                out.append((" x ".join(a[0] for a in combo), order, proxy))
    return out


def _primes_of(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _zn_proxy(n: int, primes: list[int]) -> int:
    """|Z*(Z_n)|^2 plus a small share of n^2: the graph's arrays, which also
    set peak memory, and the structure scans."""
    phi = n
    for p in primes:
        phi -= phi // p
    zstar = n - phi - 1
    return zstar * zstar + n * n // 16


def _strata() -> dict[str, list[tuple[str, int]]]:
    """Request pools as (text, cost proxy).  Cost follows ring order and,
    for products, whether a table ring takes part (its einsum product is the
    slow path).  For Z_n it follows the number w of prime factors: the CRT
    split builds a w-factor product, and above order 1024 its chunked
    structure scans hold w decoded arrays, which sets peak memory."""
    prods = _products()
    out: dict[str, list[tuple[str, int]]] = {}
    for lo, hi in ((4, 64), (65, 256), (257, 1024), (1025, 2048), (2049, 4096)):
        top = 2 if hi <= 1024 else 4
        for n in range(lo, hi + 1):
            primes = _primes_of(n)
            pool = out.setdefault(f"zn-{hi}-w{min(len(primes), top)}", [])
            pool.append((f"Z{n}", _zn_proxy(n, primes)))
    for lo, hi in ((1, 64), (65, 256), (257, 512), (513, PRODUCT_MAX_ORDER)):
        band = [(t, c) for t, o, c in prods if lo <= o <= hi]
        out[f"prod-{hi}-plain"] = [(t, c) for t, c in band if "@" not in t]
        out[f"prod-{hi}-table"] = [(t, c) for t, c in band if "@" in t]
    return out


#: requests drawn per pool (`w2` is w >= 2 up to order 1024, `w4` is w >= 4
#: above); fixed counts keep the cost and peak memory of a stream close
#: across seeds.  59 of the 176 full-size requests lie above the cache cap.
STREAM_SIZES = {
    "full": {
        "zn-64-w1": 8, "zn-64-w2": 16, "zn-256-w1": 6, "zn-256-w2": 30,
        "zn-1024-w1": 25, "zn-1024-w2": 18, "zn-2048-w1": 1, "zn-2048-w2": 2,
        "zn-2048-w3": 1, "zn-4096-w1": 1, "zn-4096-w2": 1, "zn-4096-w3": 1, "zn-4096-w4": 1,
        "prod-64-plain": 24, "prod-64-table": 8, "prod-256-plain": 20, "prod-256-table": 5,
        "prod-512-plain": 4, "prod-512-table": 1, "prod-1024-plain": 2, "prod-1024-table": 1,
    },
    "smoke": {"zn-64-w2": 3, "zn-256-w2": 2, "zn-1024-w2": 1, "prod-64-plain": 4,
              "prod-64-table": 2},
}


WINDOW = 8  # candidates per draw


def decide_stream(seed: int, size: str = "full") -> list[str]:
    """Each pool is sorted by its cost proxy and cut into as many bands as
    requests are drawn from it; the seed picks one of the (at most WINDOW)
    requests nearest each band's middle, so every stream spans the same cost
    range and the tail stays put."""
    rng = random.Random(seed)
    strata = _strata()
    stream = []
    for name, k in STREAM_SIZES[size].items():
        pool = sorted(strata[name], key=lambda tc: (tc[1], tc[0]))
        width = max(1, min(WINDOW, len(pool) // k))
        for b in range(k):
            lo = len(pool) * (2 * b + 1) // (2 * k) - width // 2
            stream.append(pool[rng.randrange(lo, lo + width)][0])
    rng.shuffle(stream)
    return stream


# -- inputs -----------------------------------------------------------------------


def requests(workload: str, seed: int, size: str) -> list[list[str]]:
    """The argv of every request of one pass."""
    if workload == "decide":
        return [["tpc-decide", t, "--json"] for t in decide_stream(seed, size)]
    argv = ["verify", workload, "--jobs", "1", "--json"] + SUITE_ARGS[workload][size]
    if workload in SEEDED_SUITES:
        argv += ["--seed", str(seed)]
    return [argv]


# -- outputs ------------------------------------------------------------------------


def semantic(workload: str, argv: list[str], code: int, out: dict | list | None) -> dict:
    """The fields a golden output holds for one request."""
    if workload == "decide":
        out = out or {}
        return {
            "target": argv[1],
            "exit_code": code,
            "admits": out.get("admits"),
            "witness": out.get("witness"),
            "consensus": out.get("consensus"),
            "vertices": out.get("vertices"),
        }
    (rep,) = out
    return {
        "suite": rep["suite"],
        "exit_code": code,
        "instances": rep["instances"],
        "agreements": rep["agreements"],
        "discrepancies": sorted(
            [d["instance"], d.get("finding_id")] for d in rep["discrepancies"]
        ),
    }


def unit_count(workload: str, golden: dict | None, got: dict | None) -> int:
    """Instances one request stands for."""
    if workload == "decide":
        return 1
    for rec in (golden, got):
        if rec is not None and rec.get("instances"):
            return rec["instances"]
    return 1


def failures(workload: str, got: dict | None, golden: dict | None, out=None) -> int:
    """Failed instances of one request.  `got` is None when the request
    raised; `golden` is None on a seed without golden outputs."""
    if got is None:
        return unit_count(workload, golden, got)
    if workload == "decide":
        if golden is not None:
            return int(got != golden)
        return int(got["exit_code"] != 0 or got["consensus"] is not True
                   or not isinstance(got["admits"], bool))
    if golden is None:
        (rep,) = out
        bad = sum(1 for d in rep["discrepancies"] if not d["expected"])
        return max(bad, int(got["exit_code"] != 0))
    want = {tuple(d) for d in golden["discrepancies"]}
    have = {tuple(d) for d in got["discrepancies"]}
    bad = len(want ^ have) + abs(got["instances"] - golden["instances"])
    if not bad and got != golden:
        bad = 1
    return min(bad, unit_count(workload, golden, got))
