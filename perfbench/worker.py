"""Run one benchmark workload in this (fresh) process.

Started by run.py with a clean environment; prints one JSON object on its
last line of standard output.  With --setup-only it stops once the workload
could start its first instance, which is how set-up time is sampled.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import sys
import time
import traceback

import workloads


def setup(workload: str, tracer=None):
    """Imports, the suites' catalog pools and the known-findings manifest."""
    import zdcodes  # noqa: F401  (the whole package, as the CLI loads it)
    from zdcodes import cli, suites

    if tracer is not None:
        tracer.install()
    suites.known_findings()
    if workload == "mixed-products" and hasattr(suites, "_mixed_pools"):
        suites._mixed_pools()  # catalog rings shared by every instance
    return cli


def run_request(cli, workload: str, argv: list[str], errors: list[str]):
    """(exit code, parsed output, semantic record); the record is None when
    the request raised or printed no JSON, and the error joins `errors`."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out = json.loads(buf.getvalue())
        return code, out, workloads.semantic(workload, argv, code, out)
    except Exception:  # a failed request is counted, the stream goes on
        errors.append(f"{' '.join(argv)}: {traceback.format_exc(limit=-3)}")
        return None, None, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--golden", default=None, help="golden records for this run")
    ap.add_argument("--trace", action="store_true", help="one traced pass")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    cli = setup(args.workload, tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    reqs = workloads.requests(args.workload, args.seed, args.size)

    golden = None
    if args.golden:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)

    latencies: list[list[float]] = [[] for _ in reqs]
    pass_s: list[float] = []
    attempted = failed = 0
    records: list = []
    errors: list[str] = []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, argv in enumerate(reqs):
            if tracer is not None and (args.workload == "decide" or i == 0):
                tracer.next_instance()  # sweep suites also start one per instance
            t0 = time.perf_counter()
            code, out, rec = run_request(cli, args.workload, argv, errors)
            latencies[i].append(time.perf_counter() - t0)
            want = golden[i] if golden is not None else None
            attempted += workloads.unit_count(args.workload, want, rec)
            failed += workloads.failures(args.workload, rec, want, out)
            if len(records) < len(reqs):
                records.append(rec)
        t_end = time.perf_counter()
        pass_s.append(t_end - t_pass)
        if tracer is not None or t_end - t_begin + pass_s[-1] > args.seconds:
            break

    numpy = sys.modules.get("numpy")
    result = {
        "ready": ready,
        "pass_s": pass_s,
        "latency_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
        "errors": errors[:3],
        "env": {
            "python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", None),
            "numba_importable": importlib.util.find_spec("numba") is not None,
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, t_pass, t_end, attempted)
        if args.spans:
            tracer.dump(args.spans, origin=t_pass)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, t0: float, t1: float, instances: int) -> dict:
    import spans

    self_s = tracer.self_times()
    out = {f"{name}_s": self_s.get(name, 0.0) for name in spans.SPANS}
    out.update({key: tracer.counts.get(key, 0) for key in spans.COUNT_METRICS})
    out["zdg.graphs_per_instance"] = out["zdg.graph_calls"] / max(1, instances)
    out["trace.coverage"] = tracer.covered(t0, t1) / (t1 - t0)
    out["trace.absent"] = len(tracer.absent)
    out["trace.pass_s"] = t1 - t0
    return out


if __name__ == "__main__":
    sys.exit(main())
