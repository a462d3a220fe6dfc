import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver import gnp_graphs
from zdcodes import trees
from zdcodes.graphs import Graph, bits, make_complete, make_cycle, make_path
from zdcodes.tpc import NotATreeError, enumerate_tpcs, is_total_perfect_code, tree_tpc
from zdcodes.trees import (
    BuildTrace,
    FamilyTraceFinding,
    StepPreconditionError,
    TreeBuildStep,
    all_trees_upto,
    apply_step,
    caterpillar_inner,
    caterpillar_outer,
    corona_family,
    generate_family_T,
    is_quasi_isolated,
    k_support_vertex,
    leaf_set,
    private_neighborhood,
    prufer_to_tree,
    random_family_T,
    random_tree,
    reduction_probe,
    tree_canon,
)


def test_private_neighborhood_examples():
    p3 = make_path(3)
    assert private_neighborhood(p3, {1}, 1) == {0, 2}
    # members of the set are never private neighbours (closed convention)
    assert private_neighborhood(make_complete(3), {0, 1}, 0) == frozenset()
    g = make_path(4)
    assert private_neighborhood(g, {1, 2}, 2) == {3}
    assert private_neighborhood(g, {1, 2}, 1) == {0}
    # singleton subsets subtract nothing: pn(v, {v}) is the neighbourhood
    for v in range(g.n):
        assert private_neighborhood(g, {v}, v) == set(bits(g.neighbor_masks[v]))
    with pytest.raises(ValueError):
        private_neighborhood(p3, {0}, 1)


def test_private_neighborhood_matches_sole_neighbour_form_outside_s():
    # for u outside S the two published formulations coincide
    g = make_path(6)
    for s in ({1, 2}, {0, 3}, {2, 4, 5}):
        for v in s:
            pn = private_neighborhood(g, s, v)
            alt = {
                u
                for u in range(g.n)
                if u not in s and set(bits(g.neighbor_masks[u])) & s == {v}
            }
            assert pn == alt


def test_quasi_isolated():
    p4 = make_path(4)
    assert not is_quasi_isolated(p4, {1, 2}, 1)
    assert not is_quasi_isolated(p4, {1, 2}, 2)
    # vertex 3 is the sole private neighbour of 2
    assert is_quasi_isolated(p4, {1, 2}, 3)
    # code members of a bare edge have empty private neighbourhoods
    p2 = make_path(2)
    assert not is_quasi_isolated(p2, {0, 1}, 0)
    assert not is_quasi_isolated(p2, {0, 1}, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_members_of_a_set_are_never_quasi_isolated(data):
    g = data.draw(gnp_graphs(max_n=14))
    s = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    for v in s:
        assert not is_quasi_isolated(g, s, v)


@st.composite
def tree_sized_graphs(draw, max_n=12):
    """Graphs with n - 1 edges: a Pruefer tree, sometimes with one edge
    swapped for a non-edge, which may leave it disconnected."""
    n = draw(st.integers(2, max_n))
    t = prufer_to_tree(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    edges = list(t.edges)
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    if non_edges and draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges.append(draw(st.sampled_from(non_edges)))
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(gnp_graphs(max_n=10), tree_sized_graphs()), st.integers(0, 11))
def test_tree_solver_rejects_exactly_the_non_trees(g, v):
    force = v if v < g.n else None
    if g.is_tree():
        tree_tpc(g, force_include=force)
    else:
        with pytest.raises(NotATreeError):
            tree_tpc(g, force_include=force)


def test_quasi_isolation_readings_sweep():
    """Every tree up to 8 vertices, every code, every code vertex v: the
    readings of the A3/A4 condition and the endpoint attachments that keep
    a code.  The README reports the same sweep up to 11 vertices."""
    counts = Counter()
    for forest in list(all_trees_upto(8).values())[1:]:
        for t in forest:
            for code in enumerate_tpcs(t):
                for v in sorted(code):
                    (partner,) = (u for u in code if t.neighbor_masks[v] >> u & 1)
                    assert not is_quasi_isolated(t, code, v)
                    minus = is_quasi_isolated(t, code - {v}, v)
                    assert minus == (private_neighborhood(t, code - {v}, partner) == {v})
                    for n in (5, 7, 8, 9, 11, 12, 13):
                        grown = enumerate_tpcs(apply_step(t, code, TreeBuildStep("A1", v, n)))
                        cls = "3 mod 4" if n % 4 == 3 else "0, 1 mod 4"
                        counts[cls] += 1
                        counts[cls + " keeps"] += bool(grown)
                        counts[cls + " extends"] += any(c & set(range(t.n)) == code for c in grown)
                        counts[cls + " keeps, rejected by C - v"] += minus and bool(grown)
                    for n, k in ((n, k) for n in (5, 7, 9, 13, 15) for k in range(n) if minus):
                        grown = apply_step(t, code, TreeBuildStep("A4", v, n, k))
                        counts["A4 keeps, rejected by C - v"] += tree_tpc(grown) is not None
    assert counts == {
        "0, 1 mod 4": 710,
        "0, 1 mod 4 keeps": 710,
        "0, 1 mod 4 extends": 710,
        "0, 1 mod 4 keeps, rejected by C - v": 275,
        "3 mod 4": 284,
        "3 mod 4 keeps": 100,
        "3 mod 4 extends": 0,
        "3 mod 4 keeps, rejected by C - v": 0,
        "A4 keeps, rejected by C - v": 1045,
    }


def test_leaf_and_support():
    assert leaf_set(make_path(5)) == {0, 4}
    assert k_support_vertex(make_path(5), 0, 2) == 2
    assert k_support_vertex(make_path(5), 4, 1) == 3
    with pytest.raises(ValueError, match="eccentricity"):
        k_support_vertex(make_path(5), 0, 7)
    with pytest.raises(ValueError):
        leaf_set(make_cycle(4))


def test_apply_step_a2():
    t = make_path(4)
    grown = apply_step(t, {1, 2}, TreeBuildStep("A2", 1))
    assert grown.n == 5 and grown.is_tree()
    assert tree_tpc(grown) is not None


def test_apply_step_preconditions():
    t = make_path(4)
    code = {1, 2}
    with pytest.raises(StepPreconditionError, match="not in the supplied code"):
        apply_step(t, code, TreeBuildStep("A2", 0))
    with pytest.raises(StepPreconditionError, match="not a total perfect code"):
        apply_step(t, {0, 1}, TreeBuildStep("A2", 0))
    with pytest.raises(StepPreconditionError, match="at least 5"):
        apply_step(t, code, TreeBuildStep("A1", 1, 4))
    with pytest.raises(StepPreconditionError, match="2 mod 4"):
        apply_step(t, code, TreeBuildStep("A1", 1, 6))
    with pytest.raises(StepPreconditionError, match="odd"):
        apply_step(t, code, TreeBuildStep("A4", 1, 8, 2))
    with pytest.raises(StepPreconditionError, match="3 mod 8"):
        apply_step(t, code, TreeBuildStep("A4", 1, 11, 3))
    with pytest.raises(StepPreconditionError, match="support depth"):
        apply_step(t, code, TreeBuildStep("A4", 1, 7, 9))
    with pytest.raises(StepPreconditionError):
        TreeBuildStep("A9", 0)
    with pytest.raises(StepPreconditionError):
        TreeBuildStep("A1", 0)  # missing n


def test_family_traces():
    tr = generate_family_T(4, [])
    assert tr.graph.edges == make_path(4).edges
    assert tree_tpc(tr.graph) == {1, 2}

    tr = generate_family_T(2, [TreeBuildStep("A2", 0)])
    assert tr.graph.n == 3 and tree_tpc(tr.graph) is not None

    tr = generate_family_T(2, [TreeBuildStep("A1", 0, 8)])
    assert tr.graph.n == 10 and tree_tpc(tr.graph) is not None

    with pytest.raises(StepPreconditionError, match="1 mod 4"):
        generate_family_T(5, [])
    with pytest.raises(StepPreconditionError, match="no total perfect code"):
        generate_family_T(4, [TreeBuildStep("A2", 0)])  # v0 lies in no code of P4


def test_documented_congruence_failures_surface_as_findings():
    # the stated endpoint-attachment class n = 3 mod 4 never preserves codes;
    # the grow step accepts it (documented precondition) and verification
    # catches the loss
    with pytest.raises(FamilyTraceFinding) as exc:
        generate_family_T(4, [TreeBuildStep("A1", 1, 7)])
    assert exc.value.trace_obj["steps"] == [{"op": "A1", "v": 1, "n": 7}]
    # n = 1 mod 4 is also accepted and, despite the attached path having no
    # standalone code, the grown tree keeps one (the bridge covers the head)
    tr = generate_family_T(4, [TreeBuildStep("A1", 1, 5)])
    assert tree_tpc(tr.graph) is not None


def test_apply_step_preserves_treeness():
    t = make_path(4)
    for step in (TreeBuildStep("A2", 1), TreeBuildStep("A1", 1, 8), TreeBuildStep("A4", 1, 7, 3)):
        grown = apply_step(t, {1, 2}, step)
        assert grown.is_tree()


def _validated_attach(t, v, n, join_offset):
    """`t` grown by a path on n new vertices, its vertex `join_offset`
    joined to v, through the validating constructor."""
    path = [(t.n + i, t.n + i + 1) for i in range(n - 1)]
    return Graph(t.n + n, list(t.edges) + path + [(v, t.n + join_offset)], name=t.name)


def test_apply_step_matches_the_validating_constructor():
    rng = random.Random(1207)
    for i in range(30):
        t = random_tree(rng, rng.randint(2, 10)).relabeled(None, name=f"T{i}")
        for code in enumerate_tpcs(t):
            for v in sorted(code):
                cases = [(TreeBuildStep("A2", v), 1, 0)]
                cases += [
                    (TreeBuildStep(op, v, n), n, 0) for op in ("A1", "A3") for n in (5, 7, 8, 13)
                ]
                cases += [
                    (TreeBuildStep("A4", v, n, k), n, k) for n in (1, 5, 9) for k in range(n)
                ]
                for step, n, k in cases:
                    grown = apply_step(t, code, step)
                    want = _validated_attach(t, v, n, k)
                    assert grown.neighbor_masks == want.neighbor_masks, (t.edges, step)
                    assert grown.edges == want.edges and grown.name == want.name
                for n in (5, 7, 8, 13):
                    a1 = apply_step(t, code, TreeBuildStep("A1", v, n))
                    a3 = apply_step(t, code, TreeBuildStep("A3", v, n))
                    assert a3 == a1 and a3.name == a1.name


def test_random_family_deterministic():
    a = random_family_T(42, 40)
    b = random_family_T(42, 40)
    assert a.to_obj() == b.to_obj()
    assert a.graph.edges == b.graph.edges
    assert tree_tpc(a.graph) is not None


def test_random_family_keeps_its_size_budget():
    # the starting path is drawn only from lengths within the budget
    for budget in range(2, 11):
        for seed in range(20):
            assert random_family_T(seed, budget).graph.n <= budget
    for budget in (0, 1):
        with pytest.raises(ValueError, match="below the shortest starting path"):
            random_family_T(5, budget)


def _reference_generate_family_T(initial, steps):
    """Replay as it was before growth became one pass: a forced code per
    step, then one solve per stage."""
    t = make_path(initial)
    t = Graph(t.n, t.edges, name=f"familyT({initial})")
    steps = tuple(steps)
    codes = [tree_tpc(t)]
    for step in steps:
        t = apply_step(t, tree_tpc(t, force_include=step.v), step)
        codes.append(tree_tpc(t))
    return BuildTrace(initial, steps, t, tuple(codes))


def _reference_random_family_T(seed, size_budget):
    """The random build before growth became one pass: a forced code and an
    A3/A4 quasi-isolation test for every candidate, then a full replay."""
    rng = random.Random(seed)
    initial = rng.choice([2, 3, 4, 6, 7, 8])
    t = make_path(initial)
    steps = []
    a1_choices = [5, 8, 9, 12]
    a4_choices = [(7, 3), (9, 4), (13, 4), (15, 7), (15, 3)]
    while True:
        op = rng.choice(["A1", "A2", "A2", "A3", "A4"])
        if op == "A2":
            grow = 1
        elif op == "A4":
            n, k = rng.choice(a4_choices)
            grow = n
        else:
            n = rng.choice(a1_choices)
            grow = n
        if t.n + grow > size_budget:
            break
        candidates = []
        for v in sorted(tree_tpc(t)):
            forced = tree_tpc(t, force_include=v)
            if op in ("A3", "A4") and is_quasi_isolated(t, forced, v):
                continue
            candidates.append((v, forced))
        if not candidates:
            continue
        v, forced = rng.choice(candidates)
        step = (
            TreeBuildStep("A2", v)
            if op == "A2"
            else TreeBuildStep(op, v, n, k if op == "A4" else None)
        )
        steps.append(step)
        t = apply_step(t, forced, step)
    return _reference_generate_family_T(initial, steps)


#: `_reference_random_family_T` on seeds 0..199 at budgets 40 and 120, one
#: record per line; re-record with `PYTHONPATH=src python tests/test_trees.py`
REFERENCE = Path(__file__).parent / "data" / "tree_gen" / "random_family_reference.json"


def _reference_record(seed, budget):
    ref = _reference_random_family_T(seed, budget)
    return {
        "budget": budget,
        "seed": seed,
        "trace": ref.to_obj(),
        "name": ref.graph.name,
        "edges": [list(e) for e in ref.graph.edges],
        "codes": [sorted(c) for c in ref.codes],
    }


@pytest.mark.parametrize("budget", [40, 120])
def test_random_family_matches_per_candidate_reference(budget):
    recorded = [r for r in json.loads(REFERENCE.read_text()) if r["budget"] == budget]
    assert [r["seed"] for r in recorded] == list(range(200))
    for rec in recorded:
        got = random_family_T(rec["seed"], budget)
        assert got.to_obj() == rec["trace"], rec["seed"]
        assert [list(e) for e in got.graph.edges] == rec["edges"]
        assert got.graph.name == rec["name"]
        assert [sorted(c) for c in got.codes] == rec["codes"]


def test_growth_reports_a_stage_without_code():
    # a chooser that grows a codeless stage gets the finding, not a crash
    with pytest.raises(FamilyTraceFinding) as exc:
        trees._grow(4, lambda t, code: TreeBuildStep("A1", 1, 7))
    assert exc.value.trace_obj == {"initial": 4, "steps": [{"op": "A1", "v": 1, "n": 7}]}


def test_trace_serialization_round_trip():
    tr = random_family_T(7, 30)
    obj = tr.to_obj()
    initial, steps = BuildTrace.obj_steps(obj)
    replay = generate_family_T(initial, steps)
    assert replay.graph.edges == tr.graph.edges


def test_corona_family():
    for cls, length in ((3, 3), (0, 4), (2, 6)):
        g = corona_family(cls, length)
        assert g.n == 2 * length
        assert tree_tpc(g) is None
    with pytest.raises(ValueError):
        corona_family(1, 5)
    with pytest.raises(ValueError):
        corona_family(3, 4)


def test_constructions_raise_when_their_check_fails(monkeypatch):
    # the checks are raises, not asserts, so they also run under python -O
    monkeypatch.setattr(trees, "is_total_perfect_code", lambda g, code: False)
    for build in (lambda: caterpillar_outer(0), lambda: caterpillar_inner(1)):
        with pytest.raises(RuntimeError, match="not a total perfect code"):
            build()
    monkeypatch.setattr(trees, "tree_tpc", lambda t, force_include=None: None)
    with pytest.raises(trees.FamilyTraceFinding, match="starting path of length 4"):
        trees.generate_family_T(4, [])


def test_caterpillars():
    g, code = caterpillar_outer(0)
    assert g.n == 8 and code == {0, 1, 4, 5}
    assert is_total_perfect_code(g, code)
    g, code = caterpillar_outer(2)
    assert is_total_perfect_code(g, code)

    g, code = caterpillar_inner(1)
    assert g.n == 5 and code == {1, 2}
    g, code = caterpillar_inner(2)
    assert g.n == 11 and code == {1, 2, 5, 6}
    assert is_total_perfect_code(g, code)


def test_prufer_decode():
    g = prufer_to_tree([])
    assert g.edges == ((0, 1),)
    star = prufer_to_tree([0, 0])
    assert star.is_tree() and star.degree(0) == 3


def test_all_trees_counts_and_prufer_coverage():
    byn = all_trees_upto(7)
    assert [len(byn[n]) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    assert all_trees_upto(0) == {} and reduction_probe(0) == (0, 0, [])
    # every labelled tree's canonical form appears in the generated list
    import itertools

    for n in range(2, 8):
        canon_set = {tree_canon(t) for t in byn[n]}
        seen = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            seen.add(tree_canon(prufer_to_tree(list(seq))))
        assert seen == canon_set


#: code-admitting trees, by order, to which no reverse A1/A2/A4 step
#: applies (`reduction_probe` lists them as findings)
IRREDUCIBLE = {
    10: [((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (5, 7), (6, 8), (7, 9))],
    11: [
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 7), (6, 8), (7, 9), (8, 10)),
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (5, 7), (6, 8), (6, 9), (7, 10)),
    ],
}


def test_reduction_probe_clean_to_nine():
    checked, admitting, findings = reduction_probe(9)
    assert checked == 95 and admitting == 38
    assert findings == []
    # past nine vertices the probe reports irreducible trees
    for max_n, want_checked, want_admitting in ((10, 201, 66), (11, 436, 114)):
        checked, admitting, findings = reduction_probe(max_n)
        assert (checked, admitting) == (want_checked, want_admitting)
        assert findings == [
            f"irreducible code-admitting tree on {n} vertices: {edges}"
            for n in range(10, max_n + 1)
            for edges in IRREDUCIBLE[n]
        ]
    spider = Graph(10, IRREDUCIBLE[10][0])
    assert is_total_perfect_code(spider, {0, 3, 6, 7, 8, 9})


if __name__ == "__main__":
    records = [_reference_record(seed, budget) for budget in (40, 120) for seed in range(200)]
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    REFERENCE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
