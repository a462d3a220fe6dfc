"""Verification suites: every decider against the exact oracle, instance by
instance.

A suite walks a catalog, runs all applicable deciders plus the exact
solver, and records one outcome per instance: an agreement or a
discrepancy.  Discrepancies matching the known-findings manifest (the
documented cases where the reference characterisations and the oracle part
ways) are expected and do not fail the suite; anything else is a
regression and drives exit code 2.

Suites can fan instances out to a process pool; reports are merged in
instance-key order, never completion order, so output is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from importlib import resources

from . import config, tables, trees, zdg
from .graphs import Graph, corona, diameter, is_matching, make_complete, make_cycle, make_path
from .ringexpr import ring_from_text
from .rings import make_gf, make_quotient, make_zn, zn_crt
from .tpc import find_tpc, graph_routes, is_total_perfect_code, path_decider, tree_tpc

DEFAULT_TREE_SEED = 20250808


def known_findings() -> dict:
    data = resources.files("zdcodes.data").joinpath("known_findings.json").read_text("utf-8")
    return json.loads(data)


@functools.cache
def expected_finding_ids() -> frozenset[str]:
    """Ids of every decider and counting finding in the manifest, read once."""
    data = known_findings()
    return frozenset(entry["id"] for entry in data["decider"] + data["counting"])


@dataclass
class SuiteReport:
    suite: str
    instances: int = 0
    agreements: int = 0
    discrepancies: list[dict] = field(default_factory=list)
    probes: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    def agree(self):
        self.instances += 1
        self.agreements += 1

    def finding(self, instance: str, detail: str, finding_id: str | None = None):
        expected = finding_id in expected_finding_ids()
        self.instances += 1
        self.discrepancies.append(
            {
                "instance": instance,
                "detail": detail,
                "finding_id": finding_id,
                "expected": expected,
            }
        )

    @property
    def unexpected(self) -> list[dict]:
        return [d for d in self.discrepancies if not d["expected"]]

    def exit_code(self) -> int:
        return 2 if self.unexpected else 0

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "agreements": self.agreements,
            "discrepancies": self.discrepancies,
            "probes": self.probes,
            "wall_time_s": round(self.wall_time_s, 3),
            "exit_code": self.exit_code(),
        }

    def render_text(self) -> str:
        lines = [
            f"suite {self.suite}: {self.instances} instances, "
            f"{self.agreements} agreements, {len(self.discrepancies)} discrepancies "
            f"({len(self.unexpected)} unexpected), {self.wall_time_s:.2f}s"
        ]
        for d in self.discrepancies:
            tag = "expected" if d["expected"] else "UNEXPECTED"
            fid = f" [{d['finding_id']}]" if d.get("finding_id") else ""
            lines.append(f"  {tag}{fid} {d['instance']}: {d['detail']}")
        for p in self.probes:
            lines.append(f"  probe: {p}")
        return "\n".join(lines)


def _timed(suite):
    """Run a suite and record its wall time on the report it returns."""

    @functools.wraps(suite)
    def run(*args, **kwargs) -> SuiteReport:
        t0 = time.perf_counter()
        rep = suite(*args, **kwargs)
        rep.wall_time_s = time.perf_counter() - t0
        return rep

    return run


def _matching_identity_checks(g: Graph, code, report: SuiteReport, instance: str) -> bool:
    """Induced matching, even size, and the regular counting identity."""
    ok = True
    if not is_matching(g, code):
        report.finding(instance, "found code does not induce a matching")
        ok = False
    if len(code) % 2 != 0:
        report.finding(instance, "found code has odd size")
        ok = False
    t = g.is_regular()
    if t is not None and t >= 1 and t * len(code) != g.n:
        report.finding(instance, f"regular counting identity fails: {t}*{len(code)} != {g.n}")
        ok = False
    return ok


# -- paths / cycles -------------------------------------------------------------


def _shape_suite(name: str, instances) -> SuiteReport:
    """Every shape route on each (instance, graph) against the exact search:
    the answers match, each witness passes the verifier and the matching
    checks, and an order-2 code sits on a complete bipartite graph."""
    rep = SuiteReport(name)
    for instance, g in instances:
        exact = find_tpc(g) is not None
        kmn = g.complete_bipartite_sides() is not None
        for r in graph_routes(g):
            if r.admits != exact:
                rep.finding(instance, f"{r.decider_id} says {r.admits}, exact search says {exact}")
                break
            if r.witness is None:
                continue
            if not is_total_perfect_code(g, r.witness):
                rep.finding(instance, f"{r.decider_id} code fails the verifier")
                break
            if not _matching_identity_checks(g, r.witness, rep, instance):
                break
            if len(r.witness) == 2 and not kmn:
                rep.finding(
                    instance,
                    "order-2 code on a bipartite graph that is not complete bipartite",
                    finding_id="bipartite-order2-converse",
                )
                break
        else:
            rep.agree()
    return rep


@_timed
def suite_paths(max_n: int = 24) -> SuiteReport:
    return _shape_suite("paths", ((f"path:{n}", make_path(n)) for n in range(2, max_n + 1)))


@_timed
def suite_cycles(max_n: int = 24) -> SuiteReport:
    return _shape_suite("cycles", ((f"cycle:{n}", make_cycle(n)) for n in range(3, max_n + 1)))


# -- trees ----------------------------------------------------------------------


@_timed
def suite_trees(
    samples: int = 1000,
    max_vertices: int = 12,
    seed: int = DEFAULT_TREE_SEED,
    traces: int = 500,
    trace_budget: int = 40,
    corona_max: int = 20,
    probe_max: int = 9,
) -> SuiteReport:
    import random

    for name, count in (("samples", samples), ("traces", traces), ("probe_max", probe_max)):
        if count < 0:
            raise ValueError(f"trees: {name} must be nonnegative, got {count}")
    rep = SuiteReport("trees")
    rng = random.Random(seed)
    for i in range(samples):
        n = rng.randint(2, max_vertices)
        t = trees.random_tree(rng, n)
        dp = tree_tpc(t)
        exact = find_tpc(t)
        instance = f"tree:{seed}/{i}"
        if (dp is None) != (exact is None):
            rep.finding(instance, "tree solver and exact search disagree on existence")
            continue
        if dp is not None and not is_total_perfect_code(t, dp):
            rep.finding(instance, "tree solver witness fails the verifier")
            continue
        if exact is not None and not _matching_identity_checks(t, exact, rep, instance):
            continue
        rep.agree()

    for i in range(traces):
        instance = f"trace:{i}"
        try:
            tr = trees.random_family_T(i, trace_budget)
        except trees.FamilyTraceFinding as exc:  # pragma: no cover - generator uses safe classes
            rep.finding(instance, f"grown tree lost its code: {exc.trace_obj}")
            continue
        if not is_total_perfect_code(tr.graph, tr.codes[-1]):  # pragma: no cover
            rep.finding(instance, "final tree's code fails the verifier")
            continue
        rep.agree()

    for n in range(3, corona_max + 1):
        instance = f"corona:path:{n}"
        g = corona(make_path(n), make_complete(1))
        pendant = tree_tpc(g)
        base_admits = path_decider(n)
        if pendant is not None:
            rep.finding(instance, "pendant tree unexpectedly admits a code")
            continue
        if base_admits != (find_tpc(make_path(n)) is not None):
            rep.finding(instance, "base path claim disagrees with exact search")
            continue
        rep.agree()

    checked, admitting, findings = trees.reduction_probe(probe_max)
    rep.probes.append(
        f"reverse-reduction probe over all {checked} trees up to {probe_max} vertices: "
        f"{admitting} admit a code"
    )
    for f in findings:
        rep.finding(f"probe:{probe_max}", f)
    if not findings:
        rep.agree()
    return rep


# -- ring sweeps ------------------------------------------------------------------


def _zn_instance(n: int) -> dict:
    ring = make_zn(n)
    z = zdg.zero_divisor_graph(ring)
    g = z.graph
    out: dict = {"n": n, "vertices": g.n, "problems": []}
    out["admits"] = g.n == 0 or zdg.tpc_pair_solver(z) is not None  # empty graph: vacuous code
    if g.n >= 1:
        out["problems"].extend(_pair_completeness_problems(z, out["admits"]))
    if g.n >= 2:
        d = diameter(g)
        if d > 3:  # inf when disconnected
            out["problems"].append(f"graph not connected with diameter <= 3 (diameter {d})")
    return out


@_timed
def suite_zn_sweep(min_n: int = 4, max_n: int = 200, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("zn-sweep")
    ns = list(range(min_n, max_n + 1))
    results = _fan_out(_zn_instance, ns, jobs)
    anchors = {12: True, 9: True}
    for n, out in zip(ns, results):
        instance = f"Z{n}"
        if out["problems"]:
            rep.finding(instance, "; ".join(out["problems"]))
            continue
        if n in anchors and out["admits"] != anchors[n]:
            rep.finding(instance, f"anchor expectation {anchors[n]} violated")
            continue
        rep.agree()
    return rep


def local_catalog() -> list:
    rings = []
    for p in (2, 3, 5, 7, 11, 13):
        q = p * p
        while q <= 256:
            rings.append(make_zn(q))
            q *= p
    for p in (2, 3, 5, 7, 11, 13):
        rings.append(make_quotient(p, (0, 0, 1)))
    for slug in tables.catalog_names():
        rings.append(tables.catalog_ring(slug))
    return rings


@_timed
def suite_local_catalog() -> SuiteReport:
    rep = SuiteReport("local-catalog")
    for ring in local_catalog():
        instance = ring.name
        z = zdg.zero_divisor_graph(ring)
        z.codes  # enumerated first: the decider's exact route reads its least code
        problems = _verdict_problems(zdg.mixed_decider([ring], [], graph=z))
        if problems:
            rep.finding(instance, "; ".join(problems))
            continue
        report = zdg.cut_vertex_report(ring, z)
        if report.findings:
            rep.finding(instance, "; ".join(report.findings))
            continue
        rep.agree()
    return rep


def _field_pool() -> list:
    return [make_zn(2), make_zn(3), make_gf(2, 2), make_zn(5), make_zn(7), make_gf(3, 2)]


@_timed
def suite_reduced_products(max_factors: int = 4) -> SuiteReport:
    rep = SuiteReport("reduced-products")
    cap = config.current()
    pool = _field_pool()
    for k in range(2, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(len(pool)), k):
            factors = [pool[i] for i in combo]
            order = 1
            for f in factors:
                order *= f.order
            if order > cap:
                continue
            instance = " x ".join(f.name for f in factors)
            verdict = zdg.mixed_decider([], factors)
            problems = _verdict_problems(verdict)
            if verdict.admits != (k == 2):
                problems.append(f"k={k} but admits={verdict.admits}")
            if problems:
                rep.finding(instance, "; ".join(problems))
                continue
            rep.agree()
    # Boolean anchors
    for k, admits in ((2, True), (3, False), (4, False)):
        instance = f"Z2^{k}"
        verdict = zdg.mixed_decider([], [make_zn(2)] * k)
        if verdict.admits != admits or verdict.discrepancy:
            rep.finding(instance, f"expected admits={admits}")
        else:
            rep.agree()
    return rep


def mixed_catalog() -> tuple[list, list]:
    locals_ = [
        make_zn(4),
        make_zn(8),
        make_zn(9),
        make_zn(16),
        make_zn(25),
        make_zn(27),
        make_quotient(2, (0, 0, 1)),
        make_quotient(3, (0, 0, 1)),
    ] + [tables.catalog_ring(slug) for slug in tables.catalog_names()]
    return locals_, _field_pool()


_MIXED_POOLS: tuple[list, list] | None = None


def _mixed_pools() -> tuple[list, list]:
    # rebuilt lazily per process: ring objects carry closures and do not pickle
    global _MIXED_POOLS
    if _MIXED_POOLS is None:
        _MIXED_POOLS = mixed_catalog()
    return _MIXED_POOLS


def _mixed_instances(max_order: int):
    locals_, fields_ = _mixed_pools()
    for m in (1, 2, 3):
        for lc in itertools.combinations_with_replacement(range(len(locals_)), m):
            lorder = 1
            for i in lc:
                lorder *= locals_[i].order
            if lorder > max_order:
                continue
            for n in range(0, 4):
                if m + n < 2:
                    continue
                for fc in itertools.combinations_with_replacement(range(len(fields_)), n):
                    order = lorder
                    for i in fc:
                        order *= fields_[i].order
                    if order > max_order:
                        continue
                    yield lc, fc


@_timed
def suite_mixed_products(max_order: int = 512, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("mixed-products")
    instances = list(_mixed_instances(max_order))
    results = _fan_out(_mixed_instance, instances, jobs)
    for out in results:
        instance = out["instance"]
        if out["problems"]:
            rep.finding(instance, "; ".join(out["problems"]))
            continue
        if out["loose_variant_mismatch"]:
            rep.finding(
                instance,
                "the at-most-two-zero-divisors variant would claim a code; the oracle finds none",
                finding_id="local-field-zstar-two",
            )
            continue
        rep.agree()
    return rep


def _mixed_instance(args) -> dict:
    lpool, fpool = _mixed_pools()
    locals_ = [lpool[i] for i in args[0]]
    fields_ = [fpool[i] for i in args[1]]
    name = " x ".join(f.name for f in locals_ + fields_)
    verdict = zdg.mixed_decider(locals_, fields_)
    problems = _verdict_problems(verdict)
    out = {"instance": name, "problems": problems, "loose_variant_mismatch": False}
    if len(locals_) == 1 and len(fields_) == 1:
        literal = locals_[0].num_zero_divisors <= 2
        if literal != verdict.admits:
            out["loose_variant_mismatch"] = True
    return out


def _verdict_problems(verdict) -> list[str]:
    """A ring decider's verdict checked: its routes agree, and its decision
    matches the full enumeration of the graph they ran on."""
    if verdict.discrepancy:
        return [f"decider routes disagree: {verdict.notes}"]
    return _pair_completeness_problems(verdict.graph, verdict.admits)


def _pair_completeness_problems(z: zdg.ZdGraph, admits: bool) -> list[str]:
    """Re-check the edge sweep's decision `admits` against one full
    enumeration of the nonempty graph `z` it ran on: a code exists exactly
    when the list is nonempty, and every code in it is a pair."""
    codes = z.codes
    problems = []
    if bool(codes) != admits:
        problems.append(
            f"unrestricted search {'finds' if codes else 'refutes'} a code "
            f"against the pair decision {admits}"
        )
    problems.extend(f"enumerated code of size {len(c)}" for c in codes if len(c) != 2)
    return problems


@_timed
def suite_counting() -> SuiteReport:
    rep = SuiteReport("counting")
    finding_for_form = {"R1xR2": "count-two-local-formula", "R1xR2xR3": "count-three-local-formula"}
    for form, (stated_ring, stated) in zdg.STATED_COUNTS.items():
        closed, report = zdg.count_zero_divisors(ring_from_text(stated_ring).factors)
        instance = report.form or form
        problems = []
        if report.enumerated != closed:
            problems.append(f"closed form {closed} != enumeration {report.enumerated}")
        if report.form != form:
            problems.append(f"form detection gave {report.form}")
        if problems:
            rep.finding(instance, "; ".join(problems))
            continue
        clean = True
        if all(v != closed for v in report.formula_by_reading.values()):
            clean = False
            rep.finding(
                instance,
                f"no reading of the stated formula reproduces {closed}: "
                f"{report.formula_by_reading}",
                finding_id=finding_for_form.get(form),
            )
        if stated != closed:
            clean = False
            rep.finding(
                f"{instance}:stated",
                f"stated count {stated} for {stated_ring} contradicts enumeration {closed}",
                finding_id="count-three-local-stated" if form == "R1xR2xR3" else None,
            )
        if clean:
            rep.agree()
    # closed form vs enumeration across the wider catalog
    locals_, fields_ = mixed_catalog()
    for factors in itertools.chain(
        ([l] for l in locals_),
        ([l, f] for l in locals_[:4] for f in fields_[:3]),
        ([f1, f2] for f1, f2 in itertools.combinations(fields_, 2)),
    ):
        closed, report = zdg.count_zero_divisors(factors)
        instance = "|Z*| " + " x ".join(f.name for f in factors)
        if report.enumerated is not None and report.enumerated != closed:
            rep.finding(instance, f"closed {closed} != enumerated {report.enumerated}")
        else:
            rep.agree()
    return rep


@_timed
def suite_fixtures() -> SuiteReport:
    rep = SuiteReport("fixtures")
    for slug in tables.EXCEPTIONAL_SEVEN:
        ring = tables.catalog_ring(slug)
        z = zdg.zero_divisor_graph(ring)
        problems = []
        if ring.order != 16 or not ring.is_local or ring.is_reduced:
            problems.append("not a local non-reduced ring of order 16")
        if ring.num_zero_divisors + 1 <= 2:
            problems.append("|Z(R)| not above 2")
        if not zdg.is_exceptional_local_fingerprint(ring):
            problems.append("exceptional fingerprint does not hold")
        if zdg.tpc_pair_solver(z) is not None or z.least_code is not None:
            problems.append("fixture unexpectedly admits a code")
        if not zdg.cut_vertex_report(ring, z).articulation_elements:
            problems.append("no articulation points")
        if problems:
            rep.finding(slug, "; ".join(problems))
        else:
            rep.agree()

    # mutation check: breaking one structure constant must be rejected
    spec = tables.load_catalog_spec("Z4X-X2")
    mutated = tables.TableRingSpec(
        spec.name,
        spec.moduli,
        spec.one,
        tuple(
            tuple(
                ((0, 0) if (i, j) == (0, 1) else cell)
                for j, cell in enumerate(row)
            )
            for i, row in enumerate(spec.products)
        ),
    )
    try:
        tables.make_table_ring(mutated)
        rep.finding("mutation", "perturbed structure constants were accepted")
    except tables.RingError:
        rep.agree()

    # ring-kernel cross identities on the catalog
    locals_, fields_ = mixed_catalog()
    for ring in locals_ + fields_:
        if zdg.zero_divisor_graph(ring).elements != tuple(sorted(ring.scan_zero_divisors())):
            rep.finding(ring.name, "the vertices of Gamma are not the scanned zero-divisors")
        else:
            rep.agree()
    for a, b in ((3, 4), (2, 9), (4, 5)):
        instance = f"crt:{a}x{b}"
        zn = make_zn(a * b)
        prod, to_prod, _ = zn_crt(a * b)
        ok = True
        for x in range(a * b):
            for y in range(a * b):
                if to_prod[zn.add(x, y)] != prod.add(int(to_prod[x]), int(to_prod[y])):
                    ok = False
                if to_prod[zn.mul(x, y)] != prod.mul(int(to_prod[x]), int(to_prod[y])):
                    ok = False
        if ok:
            rep.agree()
        else:
            rep.finding(instance, "CRT bijection does not preserve the operations")
    return rep


# -- orchestration ----------------------------------------------------------------


SUITES = {
    "paths": suite_paths,
    "cycles": suite_cycles,
    "trees": suite_trees,
    "zn-sweep": suite_zn_sweep,
    "local-catalog": suite_local_catalog,
    "reduced-products": suite_reduced_products,
    "mixed-products": suite_mixed_products,
    "counting": suite_counting,
    "fixtures": suite_fixtures,
}


def _fan_out(fn, items, jobs: int):
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(items) < 4:
        return [fn(item) for item in items]
    import multiprocessing  # only a fan-out forks; loaded on first use

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs)))
