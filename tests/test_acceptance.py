"""Acceptance criteria, one test per numbered criterion.

Each criterion runs at its stated bound and tolerance; the conftest hook
prints one PASS/FAIL line per criterion at the end of the session.  The
suites are executed once in a session fixture and shared.

Criterion 10 checks the six stated zero-divisor counts against the oracle.
The stated list is kept verbatim, including the count 59 for the smallest
three-local-factor product, which enumeration refutes (55).  That claim is
checked as a refuted claim recorded in the known-findings manifest: the
test requires the oracle's 55, the manifest entry and the counting suite's
flag, and every other stated count to hold.
"""

import itertools
import json
from pathlib import Path

import pytest

from zdcodes import suites, tables, zdg
from zdcodes.graphs import (
    bits,
    corona,
    fixture_graph8,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
)
from zdcodes.rings import make_product, make_quotient, make_zn
from zdcodes.tpc import (
    complete_bipartite_code,
    cycle_code,
    cycle_decider,
    find_tpc,
    is_total_perfect_code,
    path_code,
    path_decider,
    tree_tpc,
)
from zdcodes.trees import random_family_T, random_tree
from zdcodes.zdg import mixed_decider, tpc_pair_solver, zero_divisor_graph


#: `zdcodes verify all --json --jobs 1` at the default bounds, without wall_time_s
VERIFY_ALL = Path(__file__).parent / "data" / "verify" / "all.json"


@pytest.fixture(scope="module")
def reports():
    return {
        "paths": suites.suite_paths(24),
        "cycles": suites.suite_cycles(24),
        "trees": suites.suite_trees(samples=1000, max_vertices=12, traces=500,
                                    trace_budget=40, corona_max=20, probe_max=9),
        "zn-sweep": suites.suite_zn_sweep(4, 200),
        "local-catalog": suites.suite_local_catalog(),
        "reduced-products": suites.suite_reduced_products(),
        "mixed-products": suites.suite_mixed_products(512),
        "counting": suites.suite_counting(),
        "fixtures": suites.suite_fixtures(),
    }


def test_c1_path_characterization(reports):
    rep = reports["paths"]
    assert rep.instances == 23
    assert not rep.unexpected
    for n in range(2, 25):
        admits = path_decider(n)
        assert admits == (find_tpc(make_path(n)) is not None)
        if admits:
            assert is_total_perfect_code(make_path(n), path_code(n))
    assert rep.wall_time_s < 1.0


def test_c2_cycle_characterization(reports):
    rep = reports["cycles"]
    assert rep.instances == 22
    assert not rep.unexpected and not rep.discrepancies
    for n in range(3, 25):
        admits = cycle_decider(n)
        assert admits == (find_tpc(make_cycle(n)) is not None)
        if admits:
            assert is_total_perfect_code(make_cycle(n), cycle_code(n))
    assert rep.wall_time_s < 1.0


def test_c3_fixture_graph(reports):
    g = fixture_graph8()
    assert is_total_perfect_code(g, {0, 1, 6, 7})
    assert g.is_regular() is None
    assert g.n % 2 == 0


def test_c4_matching_and_evenness(reports):
    # every code any suite produced passed the induced-matching and
    # even-size checks inside the suites; re-verify directly on a corpus
    assert not reports["paths"].unexpected
    assert not reports["cycles"].unexpected
    assert not reports["trees"].unexpected
    witnesses = []
    for n in range(2, 25):
        if path_decider(n):
            witnesses.append((make_path(n), path_code(n)))
    for n in range(3, 25):
        if cycle_decider(n):
            witnesses.append((make_cycle(n), cycle_code(n)))
    for m in range(1, 7):
        for n in range(m, 7):
            witnesses.append((make_complete_bipartite(m, n), complete_bipartite_code(m, n)))
    import random

    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 12))
        code = tree_tpc(t)
        if code is not None:
            witnesses.append((t, code))
    for g, code in witnesses:
        assert is_total_perfect_code(g, code)
        assert len(code) % 2 == 0
        assert all(len(set(bits(g.neighbor_masks[v])) & code) == 1 for v in code)
        t = g.is_regular()
        if t is not None and t >= 1:
            assert t * len(code) == g.n


def test_c5_tree_suite(reports):
    rep = reports["trees"]
    assert not rep.unexpected and not rep.discrepancies
    # 1000 random trees + 500 traces + coronas 3..20 + the reduction probe
    assert rep.instances == 1000 + 500 + 18 + 1
    assert rep.wall_time_s < 30.0
    # spot anchors
    assert tree_tpc(corona(make_path(4), make_complete(1))) is None
    assert random_family_T(42, 40).graph.n <= 40


def test_c6_zero_divisor_sweep(reports):
    rep = reports["zn-sweep"]
    assert rep.instances == 197
    assert not rep.unexpected and not rep.discrepancies
    assert rep.wall_time_s < 120.0
    assert tpc_pair_solver(zero_divisor_graph(make_zn(12))) == {4, 6}
    assert tpc_pair_solver(zero_divisor_graph(make_product([make_zn(2), make_zn(8)]))) is None
    assert tpc_pair_solver(zero_divisor_graph(make_zn(9))) == {3, 6}


def test_c7_local_catalog(reports):
    rep = reports["local-catalog"]
    assert not rep.unexpected and not rep.discrepancies
    for slug in tables.EXCEPTIONAL_SEVEN:
        ring = tables.catalog_ring(slug)
        z = zero_divisor_graph(ring)
        assert tpc_pair_solver(z) is None
        assert zdg.cut_vertex_report(ring).articulation_elements


def test_c8_reduced_products(reports):
    rep = reports["reduced-products"]
    assert not rep.unexpected and not rep.discrepancies
    assert mixed_decider([], [make_zn(2), make_zn(2)]).admits
    assert not mixed_decider([], [make_zn(2)] * 3).admits
    assert not mixed_decider([], [make_zn(2)] * 4).admits


def test_c9_mixed_products(reports):
    assert mixed_decider([make_zn(4)], [make_zn(2)]).admits
    assert mixed_decider([make_zn(4)], [make_zn(3)]).admits
    assert not mixed_decider([make_zn(9)], [make_zn(2)]).admits
    assert not mixed_decider([make_zn(4), make_zn(4)], []).admits
    assert not mixed_decider([make_quotient(2, (0, 0, 1))], [make_zn(2), make_zn(2)]).admits
    assert not mixed_decider([tables.catalog_ring("Z2XY-RAD2")], [make_zn(2)]).admits
    rep = reports["mixed-products"]
    assert not rep.unexpected
    expected = {d["finding_id"] for d in rep.discrepancies}
    assert expected == {"local-field-zstar-two"}


def test_c10a_counting_closed_form_and_report(reports):
    rep = reports["counting"]
    assert not rep.unexpected
    flagged = {d["finding_id"] for d in rep.discrepancies}
    assert flagged == {
        "count-two-local-formula",
        "count-three-local-formula",
        "count-three-local-stated",
    }
    for ns, expect in (([4, 2], 5), ([4, 4], 11), ([4, 2, 2], 13), ([4, 4, 2], 27),
                       ([4, 2, 2, 2], 29)):
        closed, r = zdg.count_zero_divisors([make_zn(n) for n in ns])
        assert closed == expect and r.enumerated == expect


def _three_local_zstar_counts() -> list[int]:
    """|Z*| of every triple product of the two order-4 local non-field
    rings, Z4 and Z2[x]/(x^2), counted by brute force in plain Python."""
    z4 = (range(4), lambda a, b: a * b % 4)
    # a + bx as (a, b), with x^2 = 0
    dual = ([(a, b) for a in range(2) for b in range(2)],
            lambda p, q: (p[0] * q[0] % 2, (p[0] * q[1] + p[1] * q[0]) % 2))
    counts = []
    for rings in itertools.product((z4, dual), repeat=3):
        elems = list(itertools.product(*(r[0] for r in rings)))
        zero = elems[0]
        nonzero = [x for x in elems if x != zero]

        def mul(x, y):
            return tuple(r[1](a, b) for r, a, b in zip(rings, x, y))

        counts.append(sum(any(mul(x, y) == zero for y in nonzero) for x in nonzero))
    return counts


def test_c10b_counting_stated_counts(reports):
    # the six stated counts for the smallest instance of each product shape,
    # kept verbatim; enumeration refutes the last one (55, not 59), which the
    # manifest records as count-three-local-stated, so that refutation is
    # pinned and every other stated count must match the oracle
    stated = {
        "R1xF": ([4, 2], 5),
        "R1xR2": ([4, 4], 11),
        "R1xF1xF2": ([4, 2, 2], 13),
        "R1xR2xF": ([4, 4, 2], 27),
        "R1xF1xF2xF3": ([4, 2, 2, 2], 29),
        "R1xR2xR3": ([4, 4, 4], 59),
    }
    assert {form: (" x ".join(f"Z{n}" for n in ns), count)
            for form, (ns, count) in stated.items()} == zdg.STATED_COUNTS

    finding_id = "count-three-local-stated"
    finding = next(
        (e for e in suites.known_findings()["counting"] if e["id"] == finding_id), None
    )
    assert finding is not None, f"manifest lost {finding_id}"

    mismatches = []
    for form, (ns, expect) in stated.items():
        closed, report = zdg.count_zero_divisors([make_zn(n) for n in ns])
        assert closed == report.enumerated, (form, closed, report.enumerated)
        if form != finding["form"]:
            assert closed == expect, f"stated count for {form} refuted: {expect} vs {closed}"
        if closed != expect:
            mismatches.append((form, expect, closed))
    assert mismatches == [("R1xR2xR3", 59, 55)]
    assert finding["form"] == "R1xR2xR3"

    # 64 elements, 8 units: 55 for every choice of order-4 local factors
    assert _three_local_zstar_counts() == [55] * 8

    flagged = [d for d in reports["counting"].discrepancies if d["instance"].endswith(":stated")]
    assert [(d["instance"], d["finding_id"], d["expected"]) for d in flagged] == [
        ("R1xR2xR3:stated", finding_id, True)
    ]


def test_c11_known_findings_manifest(reports):
    manifest = suites.known_findings()
    assert [e["id"] for e in manifest["decider"]] == [
        "bipartite-order2-converse",
        "local-field-zstar-two",
    ]
    observed = set()
    for rep in reports.values():
        assert not rep.unexpected, f"{rep.suite}: {rep.unexpected}"
        for d in rep.discrepancies:
            assert d["expected"], d
            observed.add(d["finding_id"])
    decider_ids = {e["id"] for e in manifest["decider"]}
    counting_ids = {e["id"] for e in manifest["counting"]}
    assert observed & decider_ids == decider_ids
    assert observed <= decider_ids | counting_ids


def test_reports_match_the_pinned_verify_all(reports):
    objs = [reports[name].to_obj() for name in sorted(reports)]
    for obj in objs:
        del obj["wall_time_s"]
    assert json.loads(json.dumps(objs)) == json.loads(VERIFY_ALL.read_text())
