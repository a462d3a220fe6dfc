"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the `zdcodes` modules
from the outside: nothing inside the package changes.  Each wrapped call
records one span (name, start, end, parent span, instance id); spans stay in
memory and are written out once the run ends.  Self time is a span's
duration minus the time covered by its child spans.

A wrapped name that the package no longer has is recorded as absent and the
run goes on, so the table below can outlive renames in the package.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from functools import cached_property


def _calls(key):
    def count(tracer, args, result):
        tracer.add(key)
    return count


def _vec_mul(tracer, args, result):
    tracer.add("rings.vec_mul_calls")
    tracer.add("rings.vec_mul_elems", int(getattr(result, "size", 1)))


def _graph_init(tracer, args, result):
    tracer.add("graphs.edges", len(args[0].edges))


def _zdg(tracer, args, result):
    tracer.add("zdg.graph_calls")
    tracer.add("zdg.vertices", result.graph.n)


def _search(tracer, args, result):
    tracer.add("tpc.search_calls")
    tracer.add("tpc.search_vertices", args[0].n)


def _enum(tracer, args, result):
    tracer.add("tpc.enum_calls")
    tracer.add("tpc.codes_enumerated", len(result))


#: span name -> (wrapped targets as "module:attribute", counter); the span's
#: self time is reported as `<name>_s`.  A counter runs only on the outermost
#: call of each target, so a product ring's per-factor `vec_mul` and
#: `element_name` calls are not counted twice.
SPANS = {
    "rings.vec_mul": (["rings:FiniteRing.vec_mul"], _vec_mul),
    "rings.structure": (
        [
            "rings:FiniteRing.units",
            "rings:FiniteRing.zero_divisors_nonzero",
            "rings:FiniteRing.is_local",
            "rings:FiniteRing.is_field",
            "rings:FiniteRing.is_reduced",
            "rings:FiniteRing.annihilator",
        ],
        _calls("rings.structure_calls"),
    ),
    "rings.label": (["rings:FiniteRing.element_name"], _calls("rings.labels")),
    "rings.build": (
        ["rings:make_zn", "rings:make_gf", "rings:make_quotient", "rings:make_product",
         "rings:zn_crt"],
        None,
    ),
    "tables.build": (
        ["tables:make_table_ring", "tables:catalog_ring", "tables:load_catalog_spec",
         "tables:load_spec_file"],
        None,
    ),
    "ringexpr.parse": (
        ["ringexpr:parse_ring", "ringexpr:resolve", "ringexpr:ring_from_text"], None
    ),
    "cli.self": (["cli:main"], None),
    "graphs.build": (["graphs:Graph.__init__"], _graph_init),
    "graphs.adjacency": (
        ["graphs:Graph.neighbor_sets", "graphs:Graph.neighbor_masks",
         "graphs:Graph.adjacency_matrix"],
        None,
    ),
    "graphs.metrics": (
        ["graphs:diameter", "graphs:articulation_points", "graphs:Graph.is_tree",
         "graphs:Graph.is_connected"],
        None,
    ),
    "zdg.graph": (["zdg:zero_divisor_graph"], _zdg),
    "zdg.pair_sweep": (["zdg:tpc_pair_solver"], _calls("zdg.pair_sweep_calls")),
    "zdg.decider": (
        ["zdg:local_decider", "zdg:reduced_decider", "zdg:mixed_decider", "zdg:artinian_split",
         "zdg:ring_code_exact", "zdg:cut_vertex_report", "zdg:count_zero_divisors",
         "zdg:is_exceptional_local_fingerprint"],
        None,
    ),
    "tpc.search": (["tpc:find_tpc"], _search),
    "tpc.enum": (["tpc:enumerate_tpcs"], _enum),
    "tpc.tree_dp": (["tpc:tree_tpc"], _calls("tpc.tree_dp_calls")),
    "tpc.verify": (["tpc:is_total_perfect_code"], None),
    "trees.family": (
        ["trees:generate_family_T", "trees:random_family_T", "trees:apply_step",
         "trees:random_tree", "trees:prufer_to_tree", "trees:corona_family",
         "trees:caterpillar_outer", "trees:caterpillar_inner"],
        None,
    ),
    "trees.probe": (
        ["trees:reduction_probe", "trees:reducible_to_legal_path", "trees:all_trees_upto",
         "trees:tree_canon"],
        None,
    ),
    "suites.self": (
        ["suites:suite_paths", "suites:suite_cycles", "suites:suite_trees",
         "suites:suite_zn_sweep", "suites:suite_local_catalog",
         "suites:suite_reduced_products", "suites:suite_mixed_products",
         "suites:suite_counting", "suites:suite_fixtures"],
        None,
    ),
}

#: counted, not timed: cheap calls made too often for a span each
COUNTED = {"config.current_calls": "config:current"}

#: per-instance workers of the sweep suites; each call starts a new instance id
INSTANCE_HOOKS = ["suites:_zn_instance", "suites:_mixed_instance"]

COUNT_METRICS = (
    "rings.vec_mul_calls",
    "rings.vec_mul_elems",
    "rings.structure_calls",
    "rings.labels",
    "graphs.edges",
    "zdg.graph_calls",
    "zdg.vertices",
    "zdg.pair_sweep_calls",
    "tpc.search_calls",
    "tpc.search_vertices",
    "tpc.enum_calls",
    "tpc.codes_enumerated",
    "tpc.tree_dp_calls",
    "config.current_calls",
)


class Tracer:
    """In-memory span list plus integer counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, instance id)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.instance = -1  # -1 until the first instance starts
        self._stack: list[int] = []

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def next_instance(self) -> None:
        self.instance += 1

    def span(self, name, fn, counter=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[0] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                spans[idx] = (name, start, end, parent, tracer.instance)
            if counter is not None and depth[0] == 0:
                counter(tracer, args, result)
            return result

        return traced

    def counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def instance_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_instance()
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self, package: str = "zdcodes") -> None:
        """Wrap every target of SPANS, COUNTED and INSTANCE_HOOKS."""
        for name, (targets, counter) in SPANS.items():
            for target in targets:
                self._patch(package, target, lambda fn, n=name, c=counter: self.span(n, fn, c))
        for key, target in COUNTED.items():
            self._patch(package, target, lambda fn, k=key: self.counted(k, fn))
        for target in INSTANCE_HOOKS:
            self._patch(package, target, self.instance_hook)

    def _patch(self, package: str, target: str, make) -> None:
        modname, _, path = target.partition(":")
        mod = sys.modules.get(f"{package}.{modname}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(target)
            return
        if isinstance(owner, type):
            if isinstance(raw, cached_property):
                new = cached_property(make(raw.func))
                new.__set_name__(owner, attr)
            else:
                new = make(raw)
            setattr(owner, attr, new)
            return
        # a module-level function is also bound by name in every module that
        # imported it, and may sit in a registry dict such as suites.SUITES
        new = make(raw)
        for mname, m in list(sys.modules.items()):
            if mname != package and not mname.startswith(package + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, key, new)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = new

    # -- reading -------------------------------------------------------------

    def self_times(self, spans=None) -> dict[str, float]:
        spans = self.spans if spans is None else spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def covered(self, t0: float, t1: float) -> float:
        """Time inside [t0, t1] covered by root spans."""
        total = 0.0
        for _, start, end, parent, _ in self.spans:
            if parent < 0:
                total += max(0.0, min(end, t1) - max(start, t0))
        return total

    def dump(self, path, origin: float) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), p, inst]
            for n, s, e, p, inst in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"time_unit": "us", "names": names, "absent": self.absent,
                 "columns": ["name", "start", "end", "parent", "instance"], "spans": rows},
                fh,
                separators=(",", ":"),
            )
