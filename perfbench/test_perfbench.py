"""The benchmark's own checks, at smoke size (a few seconds each).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

COUNTS = (
    "rings.vec_mul_calls", "rings.vec_mul_elems", "rings.structure_calls", "rings.labels",
    "graphs.edges", "zdg.graph_calls", "zdg.vertices", "zdg.pair_sweep_calls",
    "tpc.search_calls", "tpc.enum_calls", "tpc.codes_enumerated", "tpc.tree_dp_calls",
)


def bench(*args, root=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "smoke",
         "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(line) for line in lines]


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        code, (report, result) = bench("--workload", "mixed-products", "--trace", "1")
        assert code == 0 and result["correct"], report
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        runs.append({k: result["metrics"][k]["value"] for k in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["rings.vec_mul_calls"] > 0 and runs[0]["tpc.codes_enumerated"] > 0


def test_corrupted_golden_entry_fails(tmp_path):
    shutil.copytree(HERE / "golden", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "decide.smoke.json"
    records = json.loads(path.read_text())
    records[0]["admits"] = not records[0]["admits"]
    path.write_text(json.dumps(records))

    code, (report, result) = bench("--workload", "decide", "--golden-dir", str(tmp_path))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1 and report["failed_share"] > 0

    code, (report, result) = bench("--workload", "decide")
    assert code == 0 and result["correct"] and report["failed_share"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "trees", root=tmp_path)
    assert code != 0 and lines == []


def test_layer_notes_cover_every_per_layer_metric():
    notes = json.loads((HERE / "layers.json").read_text())
    assert set(notes) == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for note in notes.values():
        assert set(note["baseline"]) == workloads
        for move in note["moves"]:
            assert move["workload"] in workloads | {"all"}
