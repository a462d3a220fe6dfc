"""Command-line interface.

Exit codes are a stable contract: 0 for success or decider consensus
(either answer), 1 for usage, parse or input errors, 2 for an unexpected
decider discrepancy.  Every command prints human-readable text by default
and structured JSON under --json; outputs are deterministic for fixed
inputs and seeds.  `tpc-decide` picks a graph's closed-form routes by its
shape, whether it comes from a generator, a file or a ring.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import config, graphs, ringexpr, suites, tables, trees, zdg
from .tpc import DeciderResult, Verdict, consensus, find_tpc, graph_routes, is_total_perfect_code

RING_GRAMMAR = """\
ring expression grammar (whitespace insignificant):
  Expr := Atom (("x" | "×" | "*") Atom)*
  Atom := "Z"int            ring of integers modulo n, e.g. Z12
        | "F"int            field of prime-power order, e.g. F4 (= GF(2^2))
        | "GF("int")"       same as Fq
        | "Z"int"[x]/("poly")"   univariate quotient, e.g. Z3[x]/(x^2)
        | "@"name           packaged catalog ring (see `zdcodes catalog`)
        | "table:"path      table-ring spec file
  poly := term ("+" term)*;  term := int | int"*"?"x"("^"int)? | "x"("^"int)?
Products associate left and keep the factor order, e.g. "Z2 x Z8"."""

GRAPH_SPECS = """\
graph targets: path:n cycle:n complete:n kmn:m,n star:n corona:path:n
               fig1 (8-vertex built-in fixture) file:<graph.json>
anything else is read as a ring expression"""

ENV_HELP = "\n".join(f"  {k}: {v}" for k, v in config.ENV_VARS.items())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cap = config.read(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: bad settings: {exc}", file=sys.stderr)
        return 1
    config.set_override(cap)  # read once per call; cleared on return
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse, ring and precondition errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        config.set_override(None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1, like every other input error."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so every
    `main` call reuses it."""
    parser = _Parser(
        prog="zdcodes",
        description="Zero-divisor graphs and total perfect codes, with exact cross-validation.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"{RING_GRAMMAR}\n\nenvironment overrides:\n{ENV_HELP}\n\n"
        "exit codes: 0 success/consensus, 1 usage or input error, 2 unexpected discrepancy",
    )
    parser.add_argument("--config", help="JSON file with cap overrides", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ring-info",
        help="order, units, zero-divisors and structure flags of a ring",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=RING_GRAMMAR,
    )
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ring_info)

    p = sub.add_parser(
        "zdg-export",
        help="export the zero-divisor graph of a ring",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=RING_GRAMMAR,
    )
    p.add_argument("ring")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_zdg_export)

    p = sub.add_parser(
        "tpc-decide",
        help="run every applicable decider on a ring or graph and report consensus",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=GRAPH_SPECS + "\n\n" + RING_GRAMMAR,
    )
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tpc_decide)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    p.add_argument("--max-n", type=int, default=None, help="paths/cycles/zn-sweep upper bound")
    p.add_argument("--max-order", type=int, default=512, help="mixed-products order bound")
    p.add_argument("--samples", type=int, default=1000, help="trees: random tree count")
    p.add_argument("--traces", type=int, default=500, help="trees: family trace count")
    p.add_argument("--probe-max", type=int, default=9, help="trees: reduction probe bound")
    p.add_argument("--seed", type=int, default=suites.DEFAULT_TREE_SEED)
    p.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for sweep suites (0 = one per processor)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tree-gen", help="grow a tree from a build trace or a random seed")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trace", help="JSON file: {\"initial\": n, \"steps\": [{op,v,n?,k?}]}")
    group.add_argument(
        "--random", nargs=2, type=int, metavar=("SEED", "BUDGET"), help="seeded random build"
    )
    p.add_argument("-o", "--output", default=None, help="write the tree JSON to a file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tree_gen)

    p = sub.add_parser("catalog", help="list the packaged table-ring fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    return parser


# -- commands --------------------------------------------------------------------


def cmd_ring_info(args) -> int:
    ring = ringexpr.ring_from_text(args.ring)
    size, ann = ring.class_sizes
    ann_sizes: dict[int, int] = {}
    for s, k in zip(ann.tolist(), size.tolist()):
        if 1 < s < ring.order:  # a class in Z*: neither the units' nor 0's
            ann_sizes[s] = ann_sizes.get(s, 0) + k
    info = {
        "ring": ring.name,
        "order": ring.order,
        "units": ring.num_units,
        "nonzero_zero_divisors": ring.num_zero_divisors,
        "local": ring.is_local,
        "reduced": ring.is_reduced,
        "field": ring.is_field,
        "annihilator_size_histogram": {str(k): v for k, v in sorted(ann_sizes.items())},
    }
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"ring {info['ring']}: order {info['order']}")
    print(f"  units: {info['units']}   |Z*|: {info['nonzero_zero_divisors']}")
    print(
        f"  local: {info['local']}   reduced: {info['reduced']}   field: {info['field']}"
    )
    if ann_sizes:
        hist = ", ".join(f"|ann|={k}: {v}" for k, v in sorted(ann_sizes.items()))
        print(f"  annihilator sizes over Z*: {hist}")
    return 0


def cmd_zdg_export(args) -> int:
    ring = ringexpr.ring_from_text(args.ring)
    z = zdg.zero_divisor_graph(ring)
    text = graphs.to_dot(z.graph) if args.format == "dot" else graphs.to_json(z.graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _size(text: str) -> int:
    """A graph target's size, in `config.decimal` digits."""
    n = config.decimal(text)
    if n is None:
        raise ValueError(f"size {text!r} is not a decimal number")
    return n


def _parse_graph_target(target: str) -> graphs.Graph | None:
    if target == "fig1":
        return graphs.fixture_graph8()
    head, _, rest = target.partition(":")
    try:  # each vertex count is checked before any edge or mask is built
        if head in ("path", "cycle", "complete", "star"):
            n = _size(rest)
            graphs.check_vertices(n + (head == "star"))
            return getattr(graphs, f"make_{head}")(n)
        if head == "kmn":
            sizes = rest.split(",")
            if len(sizes) != 2:
                raise ValueError("expected kmn:m,n")
            m, n = map(_size, sizes)
            graphs.check_vertices(m + n)
            return graphs.make_complete_bipartite(m, n)
        if head == "corona" and rest.startswith("path:"):
            n = _size(rest.removeprefix("path:"))
            graphs.check_vertices(2 * n)
            return graphs.corona(graphs.make_path(n), graphs.make_complete(1))
        if head == "file":
            with open(rest, "r", encoding="utf-8") as fh:
                return graphs.from_json(fh.read(), name=rest)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad graph target {target!r}: {exc}") from exc
    return None


def decide(target: str) -> Verdict:
    """Parse a graph target or a ring expression, run every route that
    applies and join them by the one consensus rule.  A graph's routes come
    from its shape (`tpc.graph_routes`), not its name, and `fig1` adds its
    documented code.  The exact search always runs.
    """
    g = _parse_graph_target(target)
    if g is None:
        return zdg.decide_ring(ringexpr.ring_from_text(target))
    routes = graph_routes(g)
    if target == "fig1":
        known = frozenset({0, 1, 6, 7})
        routes.append(DeciderResult("fixture-code", is_total_perfect_code(g, known), known))
    exact = find_tpc(g)
    routes.append(DeciderResult("exact-search", exact is not None, exact))
    return consensus(target, [r.named() for r in routes], graph=g)


def cmd_tpc_decide(args) -> int:
    verdict = decide(args.target)
    obj = verdict.to_obj()
    for d in obj["deciders"]:
        if d["id"] == "field-vacuous":
            d["note"] = "empty graph"
        elif d["id"].startswith("structural:"):
            d["note"] = "witness in decomposed coordinates" if d["witness"] else None
    result = {
        "admits": verdict.admits,
        "witness": obj["witness"] or None,
        "deciders": obj["deciders"],
        "consensus": not verdict.discrepancy,
    }
    if isinstance(verdict.graph, zdg.ZdGraph):
        result.update(ring=verdict.name, vertices=verdict.graph.graph.n)
    else:
        result["target"] = verdict.name
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for d in result["deciders"]:
            w = f" witness {d['witness']}" if d["witness"] else ""
            print(f"  {d['id']}: {'admits' if d['admits'] else 'no code'}{w}")
        print(
            f"{verdict.name}: {'admits' if verdict.admits else 'does not admit'} "
            f"({'DISCREPANCY' if verdict.discrepancy else 'consensus'})"
        )
        for note in verdict.notes:
            print(f"  {note}")
    return 2 if verdict.discrepancy else 0


def cmd_verify(args) -> int:
    bounds = {"--max-n": args.max_n, "--max-order": args.max_order, "--jobs": args.jobs}
    for flag, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"verify: {flag} must be nonnegative, got {value}")
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    # sizes are refused before any suite runs: graphs by the vertex bound,
    # rings by the ring cap in effect
    cap = config.current()
    upper = {
        "paths": ("--max-n", args.max_n, graphs.MAX_VERTICES, "vertex bound"),
        "cycles": ("--max-n", args.max_n, graphs.MAX_VERTICES, "vertex bound"),
        "zn-sweep": ("--max-n", args.max_n, cap, "ring cap"),
        "mixed-products": ("--max-order", args.max_order, cap, "ring cap"),
    }
    for name in names:
        if name in upper:
            flag, value, bound, what = upper[name]
            if value is not None and value > bound:
                raise ValueError(f"verify {name}: {flag} {value} exceeds the {what} {bound}")
    worst = 0
    reports = []
    for name in names:
        fn = suites.SUITES[name]
        kwargs = {}
        if name in ("paths", "cycles", "zn-sweep") and args.max_n is not None:
            kwargs["max_n"] = args.max_n
        if name == "zn-sweep":
            kwargs["jobs"] = args.jobs
        if name == "mixed-products":
            kwargs["max_order"] = args.max_order
            kwargs["jobs"] = args.jobs
        if name == "trees":
            kwargs.update(
                samples=args.samples,
                traces=args.traces,
                probe_max=args.probe_max,
                seed=args.seed,
            )
        rep = fn(**kwargs)
        reports.append(rep)
        worst = max(worst, rep.exit_code())
    if args.json:
        print(json.dumps([r.to_obj() for r in reports], indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.render_text())
    return worst


def cmd_tree_gen(args) -> int:
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError as exc:  # nested deeper than the decoder's stack
                raise ValueError(str(exc)) from None
        initial, steps = trees.BuildTrace.obj_steps(obj)
        try:
            trace = trees.generate_family_T(initial, steps)
        except trees.FamilyTraceFinding as exc:
            print(f"finding: {exc}", file=sys.stderr)
            print(json.dumps(exc.trace_obj, indent=2, sort_keys=True), file=sys.stderr)
            return 2
    else:
        seed, budget = args.random
        trace = trees.random_family_T(seed, budget)
    g = trace.graph
    code = sorted(trace.codes[-1])  # growth raises when a stage has no code
    text = graphs.to_json(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    result = {"trace": trace.to_obj(), "vertices": g.n, "admits": True, "code": code}
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        if not args.output:
            sys.stdout.write(text)
        print(f"tree on {g.n} vertices: admits {code}")
    return 0


def cmd_catalog(args) -> int:
    rows = []
    for slug in tables.catalog_names():
        spec = tables.load_catalog_spec(slug)
        rows.append(
            {
                "slug": slug,
                "ring": spec.name,
                "order": math.prod(spec.moduli),
                "exceptional": slug in tables.EXCEPTIONAL_SEVEN,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for r in rows:
            star = " (exceptional)" if r["exceptional"] else ""
            print(f"  @{r['slug']:26s} {r['ring']} order {r['order']}{star}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
