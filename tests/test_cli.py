import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zdcodes import config, tables, zdg
from zdcodes.cli import main
from zdcodes.rings import make_zn

TREE_GEN = Path(__file__).parent / "data" / "tree_gen"
DECIDE = Path(__file__).parent / "data" / "decide"
DECIDE_RECORDS = json.loads((DECIDE / "recorded.json").read_text(encoding="utf-8"))
DEEP = "[" * 200_000 + "]" * 200_000  # JSON nested past the decoder's recursion limit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_info_text(capsys):
    code, out, _ = run(capsys, "ring-info", "Z12")
    assert code == 0
    assert "order 12" in out and "|Z*|: 7" in out and "local: False" in out


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring-info", "Z9", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 9 and obj["nonzero_zero_divisors"] == 2 and obj["local"]


def test_ring_info_reduced_product(capsys):
    code, out, _ = run(capsys, "ring-info", "Z2 x Z2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["reduced"] is True and obj["order"] == 4


RING_INFO = Path(__file__).parent / "data" / "ring_info"
#: ring-info outputs recorded while units, Z* and annihilators were still
#: element sets; the class-view counts must reproduce them byte for byte
RING_INFO_RINGS = {
    "Z12": "z12",
    "Z9": "z9",
    "F9": "f9",
    "Z2 x Z8": "z2_x_z8",
    "Z4 x Z4 x Z4": "z4_x_z4_x_z4",
    "Z3[x]/(x^2)": "z3x_x2",
    "Z6[x]/(x^2)": "z6x_x2",
    "Z2[x]/(x^2+x)": "z2x_x2px",
    "Z2[x]/(x^3+x)": "z2x_x3px",
    "@Z4X-X2": "z4x_x2",
    "@Z2XY-RAD2 x F4": "z2xy_rad2_x_f4",
}


@pytest.mark.parametrize("options", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("ring", sorted(RING_INFO_RINGS))
def test_ring_info_is_byte_identical(capsys, ring, options):
    code, out, _ = run(capsys, "ring-info", ring, *options)
    suffix = "json" if options else "txt"
    assert code == 0
    assert out == (RING_INFO / f"{RING_INFO_RINGS[ring]}.{suffix}").read_text(encoding="utf-8")


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "ring-info", "Zx")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "ring-info", "F6")
    assert code == 1 and "prime power" in err


def test_zdg_export_dot(capsys):
    code, out, _ = run(capsys, "zdg-export", "Z12", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 8 and out.count("label=") == 7
    code, out2, _ = run(capsys, "zdg-export", "Z12", "--format", "dot")
    assert out == out2  # byte-stable


def test_zdg_export_json(capsys):
    code, out, _ = run(capsys, "zdg-export", "Z2 x Z8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 11
    code, out, _ = run(capsys, "zdg-export", "Z4", "--format", "dot")
    assert code == 0 and "0 [label=" in out


def test_zdg_export_to_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, _, _ = run(capsys, "zdg-export", "Z12", "--format", "json", "-o", str(target))
    assert code == 0
    assert json.loads(target.read_text())["n"] == 7


@pytest.mark.parametrize(
    "target,admits",
    [
        ("path:5", False),
        ("path:4", True),
        ("cycle:8", True),
        ("cycle:6", False),
        ("complete:2", True),
        ("complete:4", False),
        ("kmn:2,3", True),
        ("star:5", True),
        ("corona:path:6", False),
        ("path:1", False),
        ("complete:1", False),
        ("fig1", True),
        ("Z12", True),
        ("Z9", True),
        ("Z16", True),
        ("Z2 x Z8", False),
        ("Z4 x Z4", False),
    ],
)
def test_tpc_decide_consensus(capsys, target, admits):
    code, out, _ = run(capsys, "tpc-decide", target)
    assert code == 0, out
    assert ("admits" in out.splitlines()[-1]) == admits or admits
    verdict = "does not admit" if not admits else "admits"
    assert verdict in out.splitlines()[-1]
    assert "consensus" in out


def test_tpc_decide_witnesses(capsys):
    code, out, _ = run(capsys, "tpc-decide", "Z12", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["admits"] and obj["witness"] == ["4", "6"]
    code, out, _ = run(capsys, "tpc-decide", "cycle:8", "--json")
    obj = json.loads(out)
    assert obj["witness"] == [0, 1, 4, 5]


def test_tpc_decide_graph_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    code, out, _ = run(capsys, "tpc-decide", f"file:{path}")
    assert code == 0 and "admits" in out


@pytest.mark.parametrize(
    "record", DECIDE_RECORDS, ids=[" ".join(r["argv"][1:]) for r in DECIDE_RECORDS]
)
def test_tpc_decide_matches_recorded_output(capsys, monkeypatch, record):
    # recorded before the routes were joined by one consensus rule over one
    # graph per ring; the `file:` targets name graph files in the same folder
    monkeypatch.chdir(DECIDE)
    code, out, err = run(capsys, *record["argv"])
    assert (code, out, err) == (record["exit_code"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("target", ["Z8", "Z12", "Z2 x Z8", "Z7"])
def test_tpc_decide_builds_gamma_once(capsys, monkeypatch, target):
    from zdcodes import zdg

    built = []
    real = zdg.zero_divisor_graph

    def counting(ring):
        built.append(ring.name)
        return real(ring)

    monkeypatch.setattr(zdg, "zero_divisor_graph", counting)
    code, out, _ = run(capsys, "tpc-decide", target, "--json")
    assert code == 0 and json.loads(out)["consensus"]
    assert len(built) == 1, built


@pytest.mark.parametrize("target", ["Z8", "Z12", "Z2 x Z8"])
def test_tpc_decide_sweeps_gamma_once(capsys, monkeypatch, target):
    # the top-level pair sweep and the one nested in the structural route
    # run on the same graph, and so does the exact search
    from zdcodes import kernels

    sweeps, searches = [], []
    real_sweep, real_cover = kernels.pair_sweep, kernels.cover_codes

    def counting_sweep(*args, **kwargs):
        sweeps.append(1)
        return real_sweep(*args, **kwargs)

    def counting_cover(*args, **kwargs):
        searches.append(1)
        return real_cover(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_sweep", counting_sweep)
    monkeypatch.setattr(kernels, "cover_codes", counting_cover)
    code, out, _ = run(capsys, "tpc-decide", target, "--json")
    assert code == 0 and json.loads(out)["consensus"]
    assert (len(sweeps), len(searches)) == (1, 1)


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "paths", "--max-n", "12")
    assert code == 0
    assert "0 unexpected" in out
    code, out, _ = run(capsys, "verify", "cycles", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["suite"] == "cycles" and reports[0]["exit_code"] == 0
    assert reports[0]["agreements"] + len(reports[0]["discrepancies"]) == reports[0]["instances"]


def test_verify_trees_small(capsys):
    code, out, _ = run(
        capsys, "verify", "trees", "--samples", "50", "--traces", "20", "--probe-max", "7"
    )
    assert code == 0 and "probe" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "trees", "--samples", "-1"),
        ("verify", "trees", "--traces", "-2"),
        ("verify", "trees", "--probe-max", "-1"),
        ("tree-gen", "--random", "5", "-3"),
        ("verify", "paths", "--max-n", "-5"),
        ("verify", "mixed-products", "--max-order", "-1"),
        ("verify", "zn-sweep", "--jobs", "-1"),
    ],
    ids=["samples", "traces", "probe-max", "random-budget", "max-n", "max-order", "jobs"],
)
def test_negative_tree_counts_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nonnegative" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "zn-sweep", "--max-n", "5000"), "--max-n 5000 exceeds the ring cap 4096"),
        (("verify", "zn-sweep", "--max-n", "99999999"), "--max-n 99999999 exceeds the ring cap"),
        (("verify", "mixed-products", "--max-order", "5000"), "--max-order 5000 exceeds the ring cap"),
        (("verify", "paths", "--max-n", "5000"), "--max-n 5000 exceeds the vertex bound 4096"),
        (("verify", "cycles", "--max-n", "100000000"), "--max-n 100000000 exceeds the vertex bound"),
        (("verify", "all", "--max-n", "99999999"), "exceeds the vertex bound 4096"),
        (("verify", "all", "--max-order", "5000"), "--max-order 5000 exceeds the ring cap 4096"),
        (("verify", "trees", "--probe-max", "17"), "--probe-max 17 exceeds the probe bound 16"),
    ],
    ids=["zn-sweep", "zn-sweep-huge", "mixed-products", "paths", "cycles", "all-max-n",
         "all-max-order", "probe-max"],
)
def test_sizes_above_their_bound_exit_1_at_once(capsys, argv, named):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5  # refused before any suite runs
    assert code == 1 and out == ""
    assert err.startswith("error: verify ") and named in err and err.count("\n") == 1


def test_ring_suite_sizes_follow_the_ring_cap_in_effect(capsys, monkeypatch):
    monkeypatch.setenv("ZDCODES_RING_CAP", "8")
    code, out, err = run(capsys, "verify", "zn-sweep", "--max-n", "10", "--jobs", "1")
    assert code == 1 and err == "error: verify zn-sweep: --max-n 10 exceeds the ring cap 8\n"
    monkeypatch.setenv("ZDCODES_RING_CAP", "10")
    code, out, _ = run(capsys, "verify", "zn-sweep", "--max-n", "10", "--jobs", "1", "--json")
    assert code == 0 and json.loads(out)[0]["instances"] == 7


@pytest.mark.parametrize("suite", ["paths", "zn-sweep"])
def test_max_n_zero_runs_no_instances(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--max-n", "0", "--json")
    assert code == 0 and json.loads(out)[0]["instances"] == 0


def test_random_tree_budget_below_two_exits_1(capsys):
    code, out, err = run(capsys, "tree-gen", "--random", "5", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "shortest starting path" in err and err.count("\n") == 1


def test_random_tree_budget_above_the_tree_bound_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tree-gen", "--random", "7", "100000000")
    assert time.perf_counter() - start < 0.5  # refused before the tree is grown
    assert code == 1 and out == ""
    assert err == "error: the size budget 100000000 exceeds the tree bound 4096\n"


def test_probe_max_zero_checks_no_trees(capsys):
    code, out, _ = run(
        capsys, "verify", "trees", "--samples", "0", "--traces", "0", "--probe-max", "0"
    )
    assert code == 0 and "probe over all 0 trees up to 0 vertices: 0 admit a code" in out


def test_usage_error_exits_1(capsys):
    for _ in range(2):  # the one parser keeps its exit code on reuse
        with pytest.raises(SystemExit) as exc:
            main(["tree-gen", "--random", "5"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: zdcodes tree-gen") and "expected 2 arguments" in err


def test_verify_jobs_fanout(capsys):
    code, out, _ = run(capsys, "verify", "zn-sweep", "--max-n", "40", "--jobs", "2", "--json")
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["instances"] == 37 and rep["exit_code"] == 0


def test_tree_gen_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"initial": 4, "steps": [{"op": "A2", "v": 2}]}))
    code, out, _ = run(capsys, "tree-gen", "--trace", str(trace), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == 5 and obj["admits"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"initial": 5}))
    code, _, err = run(capsys, "tree-gen", "--trace", str(bad))
    assert code == 1 and "1 mod 4" in err

    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"initial": 4, "steps": [{"op": "A2", "v": 99}]}))
    code, _, err = run(capsys, "tree-gen", "--trace", str(outside))
    assert code == 1 and "vertex 99 is not in the tree" in err


def test_tree_gen_random_deterministic(capsys):
    code, out1, _ = run(capsys, "tree-gen", "--random", "42", "40", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "tree-gen", "--random", "42", "40", "--json")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (("--random", "42", "40", "--json"), "random_42_40.json"),
        (("--random", "7", "30"), "random_7_30.txt"),
    ],
)
def test_tree_gen_random_matches_recorded_output(capsys, argv, recorded):
    # recorded before family growth became one pass with no replay
    code, out, _ = run(capsys, "tree-gen", *argv)
    assert code == 0
    assert out == (TREE_GEN / recorded).read_text(encoding="utf-8")


def test_tree_gen_output_file(tmp_path, capsys):
    target = tmp_path / "tree.json"
    code, out, _ = run(capsys, "tree-gen", "--random", "7", "30", "-o", str(target))
    assert code == 0
    assert json.loads(target.read_text())["n"] >= 2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.count("exceptional") == 7
    code, out, _ = run(capsys, "catalog", "--json")
    rows = json.loads(out)
    assert len(rows) == 8 and sum(r["exceptional"] for r in rows) == 7


@pytest.mark.parametrize(
    "var, value, argv",
    [
        ("ZDCODES_RING_CAP", "abc", ("tpc-decide", "Z12")),
        ("ZDCODES_RING_CAP", "-1", ("verify", "zn-sweep", "--max-n", "20", "--jobs", "1")),
        ("ZDCODES_RING_CAP", "2.5", ("ring-info", "Z4")),
        ("ZDCODES_RING_CAP", "\u0663", ("tpc-decide", "Z12")),
        ("ZDCODES_RING_CAP", "1_000", ("tpc-decide", "Z12")),
        ("ZDCODES_RING_CAP", " 5", ("tpc-decide", "Z12")),
        ("ZDCODES_RING_CAP", "abc", ("tpc-decide", "path:4")),  # builds no ring
    ],
)
def test_bad_environment_value_is_named(capsys, monkeypatch, var, value, argv):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and var in err and repr(value) in err


@pytest.mark.parametrize(
    "var, value", [("ZDCODES_SOLVER_BOUND", "2.5"), ("ZDCODES_ENUM_BOUND", "-1")]
)
def test_deleted_bound_variables_are_ignored(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "tpc-decide", "Z12")
    assert code == 0 and "consensus" in out and err == ""


def test_suites_record_wall_time_when_called_directly():
    from zdcodes import suites

    rep = suites.suite_cycles(max_n=12)
    assert rep.suite == "cycles" and rep.instances == 10
    assert rep.wall_time_s > 0 and suites.suite_cycles.__name__ == "suite_cycles"


def test_catalog_ring_through_expression(capsys):
    code, out, _ = run(capsys, "tpc-decide", "@Z4X-X2")
    assert code == 0 and "does not admit" in out
    code, out, _ = run(capsys, "tpc-decide", "Z2 x @Z2XY-RAD2")
    assert code == 0 and "does not admit" in out


def test_catalog_requests_repeat_byte_for_byte(capsys, monkeypatch):
    # the second call reads the catalog rings the first one built
    argv = ["tpc-decide", "@Z2XY-RAD2 x @Z2XY-RAD2 x Z3", "--json"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0 and json.loads(first[1])["consensus"]
    monkeypatch.chdir(DECIDE)
    for record in DECIDE_RECORDS:
        if "@" in record["argv"][1]:
            for _ in range(2):
                got = run(capsys, *record["argv"])
                assert got == (record["exit_code"], record["stdout"], record["stderr"])


def test_decider_discrepancy_exits_2(capsys, monkeypatch):
    import zdcodes.cli as cli_mod

    # sabotage one route: a disagreement between deciders must surface as exit 2
    monkeypatch.setattr(cli_mod.zdg, "tpc_pair_solver", lambda z: None)
    code, out, _ = run(capsys, "tpc-decide", "Z12")
    assert code == 2 and "DISCREPANCY" in out


def test_nested_structural_discrepancy_exits_2(capsys, monkeypatch):
    # sabotage a route nested in the structural case analysis: the top-level
    # routes still agree, but the disagreement below them must surface
    monkeypatch.setattr(zdg, "degree_one_vertices", lambda z: frozenset())
    assert zdg.mixed_decider([make_zn(8)], []).discrepancy
    code, out, _ = run(capsys, "tpc-decide", "Z8")
    assert code == 2 and "Z8: admits (DISCREPANCY)" in out
    assert "decider degree-one says no code" in out
    code, out, _ = run(capsys, "tpc-decide", "Z8", "--json")
    assert code == 2 and json.loads(out)["consensus"] is False


@pytest.mark.parametrize(
    "text",
    [
        "[[0, 1]]",
        "null",
        '{"n": 2}',
        '{"n": 2, "edges": 5}',
        '{"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}',
        '{"n": 2, "edges": [[0, null]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"0": true}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"x": "a"}}',
        DEEP,
    ],
    ids=["list", "null", "no-edges", "edges-int", "labels-list", "edge-null", "n-bool", "edge-bool",
         "labels-bool", "labels-key", "deep"],
)
def test_bad_graph_file_exits_1(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, "tpc-decide", f"file:{path}")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad graph target")
    assert "'labels'" in err or '"labels"' not in text


@pytest.mark.parametrize(
    "obj, message",
    [
        ([2, [1], [[[1]]]], "must be a JSON object"),
        ({"name": "tiny", "moduli": [2], "one": [1]}, "has no 'products'"),
        ({"name": "tiny", "moduli": 2, "one": [1], "products": [[[1]]]}, "'moduli' must be a list"),
        ({"name": "tiny", "moduli": [2.9], "one": [1.2], "products": [[[1.7]]]},
         "2.9 is not an integer"),
        ({"name": "tiny", "moduli": [True, 2], "one": [1, 0],
          "products": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}, "True is not an integer"),
        # Z2 x Z2 on its idempotents e0, e1, with e0 named as the one
        ({"name": "Z2 x Z2", "moduli": [2, 2], "one": [1, 0],
          "products": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}, "one * e1 != e1"),
        (DEEP, "maximum recursion depth exceeded"),
    ],
    ids=["list", "no-products", "moduli-int", "floats", "bool-modulus", "one-not-identity", "deep"],
)
def test_bad_table_spec_file_exits_1(tmp_path, capsys, obj, message):
    path = tmp_path / "spec.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))  # a str is the file's text
    code, out, err = run(capsys, "tpc-decide", f"table:{path}")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "target, size",
    [
        ("corona:path:3:junk", "3:junk"),
        ("path:1_0", "1_0"),
        ("path: 8", " 8"),
        ("kmn:+2,3", "+2"),
        ("star:٣", "٣"),
        ("cycle:-4", "-4"),
        ("complete:", ""),
        ("kmn:2,3 ", "3 "),
    ],
)
def test_graph_target_sizes_are_ascii_decimal_digits(capsys, target, size):
    code, out, err = run(capsys, "tpc-decide", target)
    assert code == 1 and out == ""
    assert err == f"error: bad graph target {target!r}: size {size!r} is not a decimal number\n"


@pytest.mark.parametrize("target", ["kmn:1", "kmn:1,2,3", "kmn:"])
def test_kmn_target_names_its_form(capsys, target):
    code, out, err = run(capsys, "tpc-decide", target)
    assert code == 1 and out == ""
    assert err == f"error: bad graph target {target!r}: expected kmn:m,n\n"


def test_zero_coefficient_modulus_exits_1(capsys):
    code, out, err = run(capsys, "tpc-decide", "Z0[x]/(x^2)")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "modulus must be at least 2" in err


def _zero_spec(moduli):
    k = len(moduli)
    return {"name": "big", "moduli": moduli, "one": [1] + [0] * (k - 1),
            "products": [[[0] * k for _ in range(k)] for _ in range(k)]}


def test_table_spec_entries_past_int64_decide(tmp_path, capsys):
    # every entry offset by 2**70 times its modulus: the same ring as the fixture
    spec = tables.load_catalog_spec("Z4X-X2").to_obj()
    ms = spec["moduli"]
    spec["one"] = [c + 2**70 * m for c, m in zip(spec["one"], ms)]
    spec["products"] = [[[c + 2**70 * m for c, m in zip(cell, ms)] for cell in row]
                        for row in spec["products"]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "tpc-decide", f"table:{path}")
    assert code == 0 and err == ""
    assert out == run(capsys, "tpc-decide", "@Z4X-X2")[1]


@pytest.mark.parametrize(
    "moduli",
    [[2**62 + 1, 4], [2**70], [2] * 80],
    ids=["int64-wrap", "past-int64", "80-generators"],
)
def test_table_spec_above_the_cap_exits_1(tmp_path, capsys, moduli):
    # the order is the exact product of the moduli, checked before any
    # work that grows with the number of generators
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_zero_spec(moduli)))
    code, out, err = run(capsys, "ring-info", f"table:{path}")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeds the cap 4096" in err


@pytest.mark.parametrize(
    "target",
    ["F1000000000000000000000000000057", "GF(1000000000000000000000000000057)",
     "Z2[x]/(x^100000000)", "Z4 x F100000000003"],
)
def test_ring_expression_above_the_cap_exits_1_at_once(capsys, target):
    code, out, err = run(capsys, "tpc-decide", target)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeds the cap 4096" in err


@pytest.mark.parametrize(
    "obj",
    [
        [{"op": "A2", "v": 2}],
        {"initial": 4, "steps": 3},
        {"initial": 4, "steps": ["A2"]},
        {"initial": 4, "steps": [{"op": "A2"}]},
        {"initial": None},
        {"initial": 4, "steps": [{"op": "A2", "v": None}]},
        {"initial": 4, "steps": [{"op": "A1", "v": 1, "n": "x"}]},
        {"initial": 4, "steps": [{"op": "A2", "v": True}]},
        {"initial": 4, "steps": [{"op": "A4", "v": 1, "n": 7, "k": True}]},
        {"initial": 100_000_000},
        {"initial": 4, "steps": [{"op": "A1", "v": 1, "n": 100_000_000}]},
        DEEP,
    ],
    ids=["list", "steps-int", "step-not-object", "step-without-v", "initial-null", "v-null", "n-text",
         "v-bool", "k-bool", "initial-huge", "n-huge", "deep"],
)
def test_bad_trace_file_exits_1(tmp_path, capsys, obj):
    path = tmp_path / "t.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))  # a str is the file's text
    start = time.perf_counter()
    code, out, err = run(capsys, "tree-gen", "--trace", str(path))
    assert time.perf_counter() - start < 0.5  # refused before the tree is grown
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "target, vertices",
    [
        ("path:5000", 5000),
        ("path:99999999999", 99999999999),
        ("cycle:4097", 4097),
        ("complete:100000000", 100000000),
        ("star:4096", 4097),
        ("star:5000000", 5000001),
        ("kmn:1,99999999", 100000000),
        ("corona:path:2049", 4098),
        ("corona:path:3000000", 6000000),
        ("file", 300000000),
    ],
)
def test_graph_above_the_vertex_bound_exits_1_at_once(tmp_path, capsys, target, vertices):
    if target == "file":
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": vertices, "edges": []}))
        target = f"file:{path}"
    start = time.perf_counter()
    code, out, err = run(capsys, "tpc-decide", target)
    assert time.perf_counter() - start < 0.5  # refused before any edge or mask is built
    assert code == 1 and out == ""
    assert err == (
        f"error: bad graph target {target!r}: {vertices} vertices exceed the vertex bound 4096\n"
    )


@pytest.mark.parametrize("target", ["path:4096", "star:4095", "kmn:2048,2048", "corona:path:2048"])
def test_graph_at_the_vertex_bound_is_built(target):
    from zdcodes.cli import _parse_graph_target

    assert _parse_graph_target(target).n == 4096


#: graph-only commands, then one ring command, in one fresh interpreter
_GRAPH_ONLY = """
import contextlib, io, json, sys
from zdcodes import cli, suites

suites.known_findings()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith(("numpy.", "multiprocessing")))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["tpc-decide", "Z12", "--json"])
print(json.dumps({"loaded": loaded, "code": code, "stdout": out.getvalue()}))
"""


def test_graph_commands_never_load_numpy_or_multiprocessing():
    argvs = [
        ["verify", "trees", "--samples", "60", "--traces", "20", "--probe-max", "6"],
        ["verify", "paths"],
        ["verify", "cycles"],
        ["tree-gen", "--random", "3", "40"],
        ["tpc-decide", "path:9"],
        ["tpc-decide", "fig1"],
        ["tpc-decide", f"file:{DECIDE / 'path4.json'}"],
    ]
    src = str(Path(config.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _GRAPH_ONLY, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    # numpy loads with the first ring, which then runs exactly as recorded
    (z12,) = [r for r in DECIDE_RECORDS if r["argv"] == ["tpc-decide", "Z12", "--json"]]
    assert (got["code"], got["stdout"]) == (z12["exit_code"], z12["stdout"])


def test_verify_unexpected_discrepancy_exits_2(capsys, monkeypatch):
    from zdcodes import suites

    def broken(max_n=24):
        rep = suites.SuiteReport("paths")
        rep.finding("path:3", "synthetic regression")
        return rep

    monkeypatch.setitem(suites.SUITES, "paths", broken)
    code, out, _ = run(capsys, "verify", "paths")
    assert code == 2 and "UNEXPECTED" in out


def test_known_findings_manifest_is_read_once(monkeypatch):
    from zdcodes import suites

    manifest = suites.known_findings()
    reads = []
    monkeypatch.setattr(suites, "known_findings", lambda: reads.append(1) or manifest)
    suites.expected_finding_ids.cache_clear()
    rep = suites.SuiteReport("mixed-products")
    ids = [e["id"] for e in manifest["decider"] + manifest["counting"]]
    for finding_id in ids + ["not-in-the-manifest", None]:
        rep.finding("ring", "detail", finding_id)
    suites.expected_finding_ids.cache_clear()
    assert reads == [1]
    assert [d["expected"] for d in rep.discrepancies] == [True] * len(ids) + [False, False]


# -- one parser per process ---------------------------------------------------------

HELP = Path(__file__).parent / "data" / "help"


def test_parser_is_built_once():
    from zdcodes import cli

    assert cli.build_parser() is cli.build_parser()


def test_bound_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tpc-decide", "Z12", "--bound", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --bound 5" in capsys.readouterr().err


def test_reused_parser_keeps_no_flags(capsys):
    code, out, _ = run(capsys, "tpc-decide", "Z12", "--json")
    assert code == 0 and json.loads(out)["witness"] == ["4", "6"]
    code, out, _ = run(capsys, "tpc-decide", "Z12")
    assert code == 0 and out.endswith("Z12: admits (consensus)\n") and not out.startswith("{")


@pytest.mark.parametrize("argv, recorded", [((), "zdcodes.txt"), (("tpc-decide",), "tpc-decide.txt")])
def test_help_is_unchanged(capsys, monkeypatch, argv, recorded):
    # recorded at 80 columns from the parser that was rebuilt on every call
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP / recorded).read_text(encoding="utf-8")
