"""zdcodes benchmark: one workload per call, end to end or traced by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from `src/`.
Workloads: zn-sweep, mixed-products, decide, trees (see workloads.py).

With --trace 0 the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end metrics:
set-up time (median over several fresh interpreters), instances per second,
p50/p90 request latency, and peak resident memory.  The workload's input
set is run in passes for --seconds; a `decide` request's latency is its
median over the passes, and a suite workload's one request per pass is the
whole `verify` call.  With --trace 1 the metrics are per layer instead,
from one traced pass (spans.py) set against an untraced pass; layers.json
names the end-to-end metric and workload each should move, with its traced
value at the default seed.  The line before the result records the
environment, the sample counts and the failed share.  Outputs are checked
against golden records (golden/) on the default seed and against
invariants on any other seed.

`--record-golden` rewrites the golden records of the default seed from a
run; use it only after checking that the new outputs are right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides the measured one
DEADLINE_S = 170.0  # the whole run, children included


def child_env() -> dict:
    """A clean environment: no ZDCODES_* overrides (config.current() re-reads
    them on every call), the checkout's sources only, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZDCODES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv: list[str], t_end: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; (its result, launch time)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, t_end - started),
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(f"worker exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def golden_path(args) -> Path | None:
    base = Path(args.golden_dir) if args.golden_dir else HERE / "golden"
    if args.workload in workloads.SEEDED_SUITES or args.workload == "decide":
        if args.seed != workloads.DEFAULT_SEED:
            return None
    return base / f"{args.workload}.{args.size}.json"


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one or two samples near the rank."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # midpoint rule inside each of the n intervals
    weights = [
        sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) / (steps * n)
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(res: dict, setups: list[float], workload: str) -> dict:
    if workload == "decide":
        # a request's latency is its median over the passes of the stream
        lat = [statistics.median(ls) for ls in res["latency_s"]]
    else:
        lat = res["pass_s"]  # the one `verify` request of each pass
    return {
        "setup_s": statistics.median(setups),
        "instances_per_s": res["attempted"] / sum(res["pass_s"]),
        "latency_p50_ms": 1000 * quantile(lat, 0.5),
        "latency_p90_ms": 1000 * quantile(lat, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    layers = dict(traced["layers"])
    pass_s = layers.pop("trace.pass_s")
    layers["trace.overhead"] = pass_s / statistics.median(untraced["pass_s"]) - 1.0
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: small inputs for the benchmark's own tests")
    ap.add_argument("--golden-dir", default=None, help="golden records (default golden/)")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "zdcodes" / "__init__.py").is_file():
        print(f"error: no zdcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_end = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    gpath = golden_path(args)
    if gpath is not None and not args.record_golden:
        base += ["--golden", str(gpath)]

    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            res, started = launch(base + ["--setup-only"], t_end)
            setups.append(res["ready"] - started)
        seconds = args.seconds / 2 if args.trace else args.seconds
        res, started = launch(base + ["--seconds", str(seconds)], t_end)
        setups.append(res["ready"] - started)
        runs = [res]
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
            traced, _ = launch(base + ["--trace", "--spans", str(spans_file)], t_end)
            runs.append(traced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.record_golden:
        if gpath is None or any(r is None for r in res["records"]):
            print("error: golden records come from the default seed, all requests ok",
                  file=sys.stderr)
            return 1
        gpath.parent.mkdir(exist_ok=True)
        gpath.write_text(json.dumps(res["records"], indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = per_layer(runs[1], res) if args.trace else end_to_end(res, setups, args.workload)
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "golden": gpath is not None,
        "env": dict(res["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0))),
        "samples": {
            "setup": len(setups),
            "passes": len(res["pass_s"]),
            "requests_per_pass": len(res["latency_s"]),
            "latency": len(res["latency_s"]) if args.workload == "decide"
            else len(res["pass_s"]),
        },
        "failed_share": failed / attempted,
        "errors": [e for r in runs for e in r["errors"]][:3],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
