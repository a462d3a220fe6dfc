"""Zero-divisor graphs and the ring-level total-perfect-code deciders.

The graph of a ring R has the nonzero zero-divisors as vertices and joins
distinct x, y exactly when xy = 0 (no loops, so x^2 = 0 contributes no
edge).  Any total perfect code in such a graph is a single edge - absence
from the edge sweep is absence outright - which turns an NP-complete graph
question into a polynomial one here; the verification suites re-check that
completeness claim against the unrestricted exact search.

Deciders come in independent routes (structural, degree-based, exact pair
sweep, exact search) that are run side by side; a verdict is flagged as a
discrepancy when the routes disagree, never silently merged.

Fields get a special convention: their graph is empty and the empty code
satisfies the defining condition vacuously, so "admits" is reported with an
empty witness and a note.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import config, kernels
from ._numpy import np
from .graphs import Graph, LazyLabels, articulation_points
from .rings import (
    FiniteRing,
    RingError,
    factorize,
    make_product,
    make_zn,
    product_encode,
)
from .tpc import DeciderResult, Verdict, consensus, enumerate_tpcs, find_tpc, graph_routes


@dataclass(frozen=True)
class ZdGraph:
    """Gamma(R) with its vertex-to-element map.  The graph's code answers
    (the pair sweep, the exact search, the enumeration) are computed once
    and shared by every route and check that runs on it."""

    ring: FiniteRing
    graph: Graph
    elements: tuple[int, ...]  # vertex index -> ring element

    def to_elements(self, vertices) -> frozenset[int]:
        return frozenset(self.elements[v] for v in vertices)

    @cached_property
    def code_pair(self) -> tuple[int, int] | None:
        """The first edge, in edge order, that is a total perfect code."""
        return kernels.pair_sweep(self.graph.neighbor_masks, self.graph.twins)

    @cached_property
    def codes(self) -> list[frozenset[int]]:
        """Every total perfect code, lexicographically ordered."""
        return enumerate_tpcs(self.graph)

    @cached_property
    def least_code(self) -> frozenset[int] | None:
        """The lexicographically least code: the first of `codes` when they
        have been enumerated, else one exact search."""
        if "codes" in self.__dict__:
            return self.codes[0] if self.codes else None
        return find_tpc(self.graph)


def zero_divisor_graph(ring: FiniteRing) -> ZdGraph:
    """Gamma(R), vertices in ascending element order, adjacent when their
    product vanishes.  Vertex labels are the element names, computed only
    when read.

    Everything is read off the ring's annihilator classes in one pass.  The
    vertices are the nonzero elements whose class annihilates more than the
    class of 0.  Each class's neighbourhood bitmask is one int, shared by
    its vertices when its square is nonzero; a vertex with x^2 = 0 gets it
    without its own bit.  The twin map (`Graph.twins`) is then one class per
    annihilator class with nonzero square and a singleton per vertex with
    zero square, by least vertex: equal neighbourhoods force equal
    annihilators once Gamma(R) is connected (Anderson and Livingston).  The
    classes formed are counted, and a map with fewer keys is an error.
    """
    cls, zero = ring.classes
    vertex_class = zero.sum(axis=1) > 1  # annihilates more than the class of 0
    vertex_class[cls[0]] = False
    elems = np.flatnonzero(vertex_class[cls])
    where = cls[elems]
    # zero is symmetric, so its rows at the vertices, packed down the vertex
    # axis, hold each class's bits with no classes x vertices copy besides
    packed = np.packbits(zero[where], axis=0, bitorder="little")
    class_masks = [int.from_bytes(col.tobytes(), "little") for col in packed.T]
    clique = np.diagonal(zero).tolist()  # x^2 = 0 in the class
    members = [0] * len(zero)  # each class's vertices, as bits
    masks: list[int] = []
    twins: dict[int, int] = {}
    firsts: list[int] = []  # the classes with nonzero square, by least vertex
    formed = 0
    for v, c in enumerate(where.tolist()):
        m = class_masks[c]
        if clique[c]:
            m ^= 1 << v
            twins[m] = 1 << v
            formed += 1
        else:
            if not members[c]:
                twins[m] = 0  # filled in below; the key keeps its place
                firsts.append(c)
                formed += 1
            members[c] |= 1 << v
        masks.append(m)
    if len(twins) != formed:
        raise RingError(
            f"the annihilator classes of {ring.name} give {formed} twin classes "
            f"but {len(twins)} distinct neighbourhoods"
        )
    for c in firsts:
        twins[class_masks[c]] = members[c]
    elements = tuple(elems.tolist())
    labels = LazyLabels(len(elements), lambda i: ring.element_name(elements[i]))
    g = Graph.from_masks(masks, labels, name=f"Gamma({ring.name})", twins=twins)
    return ZdGraph(ring, g, elements)


def degree_one_vertices(z: ZdGraph) -> frozenset[int]:
    """Ring elements whose graph degree is exactly one."""
    return frozenset(z.elements[v] for v in range(z.graph.n) if z.graph.degree(v) == 1)


def tpc_pair_solver(z: ZdGraph) -> frozenset[int] | None:
    """First edge (lexicographic by vertex order) that is a total perfect
    code, as ring elements, or None.
    """
    return z.to_elements(z.code_pair) if z.code_pair is not None else None


def ring_code_exact(z: ZdGraph) -> frozenset[int] | None:
    """Unrestricted exact search on the graph, as ring elements; the empty
    graph of a field yields the vacuous empty code.
    """
    return z.to_elements(z.least_code) if z.least_code is not None else None


def _vertex_classes(ring: FiniteRing) -> np.ndarray:
    """Which annihilator classes lie in Z*(R), the vertices of Gamma(R):
    those annihilating more than 0 (not the units) but not all of R (not 0)."""
    ann = ring.class_sizes[1]
    return (ann > 1) & (ann < ring.order)


def _least_member(ring: FiniteRing, classes: np.ndarray) -> int:
    """The least element whose class is marked in `classes`."""
    return int(np.argmax(classes[ring.classes[0]]))


def is_code_pair(ring: FiniteRing, a: int, b: int) -> bool:
    """{a, b} is a total perfect code of Gamma(R), read off the annihilator
    classes: a and b are distinct vertices with ab = 0, so each lies in the
    other's neighbourhood N(x) = ann(x) - {0, x} and not in its own, and
    every other vertex lies in exactly one of N(a) and N(b), which a vertex
    v does exactly when one of a's and b's classes annihilates v's."""
    cls, zero = ring.classes
    if a == b or not (0 < a < ring.order and 0 < b < ring.order) or not zero[cls[a], cls[b]]:
        return False
    others = ring.class_sizes[0].copy()
    others[cls[a]] -= 1
    others[cls[b]] -= 1
    rest = _vertex_classes(ring) & (others > 0)
    return bool((zero[cls[a]] != zero[cls[b]])[rest].all())


def _route(ring: FiniteRing, decider_id: str, admits: bool, witness=None) -> DeciderResult:
    """One route's result, its witness named in `ring`, where it was found."""
    return DeciderResult(decider_id, admits, witness).named(ring.element_name)


#: a field's graph is empty and the empty code holds vacuously
_VACUOUS = DeciderResult("field-vacuous", True, frozenset(), ())


# -- local rings ---------------------------------------------------------------


def is_exceptional_local_fingerprint(ring: FiniteRing) -> bool:
    """Order 16, local, |Z*(R)| = 7, no element with |ann(x)| = 2, and
    exactly one vertex of Gamma(R) adjacent to all others.

    Axtell, Baeth and Stickles (Comm. Algebra 39, 2011) show that the graph
    of a finite local ring, on three or more vertices, has a cut vertex
    exactly when some |ann(x)| = 2 or the ring is one of seven rings of
    order 16, the packaged fixtures.  In each of the seven, m = Z(R) has 8
    elements and ann(m) = {0, z}, z being the cut vertex.  A vertex u
    adjacent to all others lies in ann(m), as u^2 = u(u - x) = 0 for any
    other vertex x; so the last condition says |ann(m)| = 2.  Order 16 and
    no |ann(x)| = 2 alone also pass the rings with residue field F4 (Gamma
    is K3) and F2[x,y]/(x^3, xy, y^2) (ann(m) = {0, x^2, y, x^2 + y}),
    whose graphs have no cut vertex.  Every count is read off the
    annihilator classes, ann(m) being the classes that every vertex class
    annihilates (0's class has |ann| = 16); no graph is built.
    """
    if ring.order != 16 or not ring.is_local or ring.num_zero_divisors != 7:
        return False
    size, ann = ring.class_sizes
    if (ann == 2).any():
        return False
    return int(size[ring.classes[1][_vertex_classes(ring)].all(axis=0)].sum()) == 2


@dataclass(frozen=True)
class CutVertexReport:
    ring_name: str
    articulation_elements: frozenset[int]
    code: frozenset[int] | None
    checks: tuple[tuple[str, bool, str], ...]
    findings: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "ring": self.ring_name,
            "articulation": sorted(self.articulation_elements),
            "code": sorted(self.code) if self.code is not None else None,
            "checks": [{"id": c, "ok": ok, "detail": d} for c, ok, d in self.checks],
            "findings": list(self.findings),
        }


def cut_vertex_report(ring: FiniteRing, z: ZdGraph | None = None) -> CutVertexReport:
    """Articulation analysis of a local ring's graph; `z` is that graph when
    the caller has already built it.

    Checks: every code member with |ann(z)| > 2 is a cut vertex; cut
    vertices exist iff some |ann(x)| = 2 or the ring carries the
    exceptional order-16 fingerprint (graphs with fewer than three vertices
    are skipped, a cut vertex being impossible there); the exceptional
    fixtures have cut vertices and no code.
    """
    if not ring.is_local:
        raise RingError(f"{ring.name} is not local")
    if z is None:
        z = zero_divisor_graph(ring)
    art = frozenset(z.elements[v] for v in articulation_points(z.graph))
    code = tpc_pair_solver(z)
    checks: list[tuple[str, bool, str]] = []
    findings: list[str] = []

    if code is not None:
        # |ann(z)| > 2 is the written condition, but its stated intent is
        # "z is not a degree-one vertex"; the two differ exactly when
        # z^2 = 0 puts z inside its own annihilator (Z9's vertices), and
        # only the degree reading is sound, so that is what is checked
        heavy = sorted(z.elements[v] for v in z.code_pair if z.graph.degree(v) >= 2)
        ok = all(x in art for x in heavy)
        detail = f"non-degree-one code members: {[ring.element_name(x) for x in heavy]}"
        checks.append(("code-members-with-big-ann-are-cut", ok, detail))
        if not ok:
            findings.append(f"{ring.name}: non-degree-one code member is not a cut vertex")

    exceptional = is_exceptional_local_fingerprint(ring)
    if z.graph.n >= 3:
        has_small_ann = bool((ring.class_sizes[1] == 2).any())  # 0's |ann| is the order
        expected = has_small_ann or exceptional
        ok = bool(art) == expected
        checks.append(
            (
                "cut-dichotomy",
                ok,
                f"cut vertices {'present' if art else 'absent'}; "
                f"ann-2 element {'present' if has_small_ann else 'absent'}; "
                f"exceptional fingerprint {exceptional}",
            )
        )
        if not ok:
            findings.append(f"{ring.name}: cut-vertex dichotomy mismatch")
    else:
        checks.append(("cut-dichotomy", True, "skipped: fewer than three vertices"))

    if exceptional:
        ok = bool(art) and code is None
        checks.append(
            ("exceptional-cut-no-code", ok, f"articulation {sorted(art)}, code {code}")
        )
        if not ok:
            findings.append(f"{ring.name}: exceptional fixture expectation violated")

    return CutVertexReport(ring.name, art, code, tuple(checks), tuple(findings))


# -- the ring deciders ------------------------------------------------------------


def mixed_decider(local_factors, field_factors, graph: ZdGraph | None = None) -> Verdict:
    """The characterisation on m local non-field factors and n field
    factors, beside the exact pair sweep on Gamma of their product, or on
    `graph`, Gamma of an isomorphic ring, when the caller has one.  A lone
    field gets the vacuous empty code.  One local ring: ann-pair-structural
    (some |ann(x)| = 2 with |Z(R)| >= 3, or a two-vertex graph whose
    vertices annihilate each other), with the degree-one and exact-search
    routes.  Fields only: field-count, a code exactly for two fields,
    witnessed by (1,0),(0,1).  Anything else: artinian-case, a code exactly
    for m = n = 1 with one nonzero zero-divisor z in the local factor,
    witnessed by (z,0),(0,1); the looser two-zero-divisor variant is
    refuted by the exact oracle (see the known findings manifest, entry
    local-field-zstar-two).  All routes must agree or the verdict is
    flagged.
    """
    locals_ = list(local_factors)
    fields_ = list(field_factors)
    for f in locals_:
        if f.is_field or not f.is_local:
            raise RingError(
                f"factor {f.name} is {'a field' if f.is_field else 'not local'}; "
                "it cannot be passed as a local non-field factor"
            )
    for f in fields_:
        if not f.is_field:
            raise RingError(f"factor {f.name} is not a field")
    if not locals_ and not fields_:
        raise RingError("at least one factor is required")
    if not locals_ and len(fields_) == 1:
        return consensus(fields_[0].name, [_VACUOUS])
    m, n = len(locals_), len(fields_)
    local = (m, n) == (1, 0)
    witness = head = None
    if local:
        ring, route_id = locals_[0], "ann-pair-structural"
        cls, zero = ring.classes
        ann = ring.class_sizes[1]
        if ring.num_zero_divisors == 2:  # |m| = 3 forces m^2 = 0: one edge
            witness = frozenset(np.flatnonzero(_vertex_classes(ring)[cls]).tolist())
        elif ring.num_zero_divisors > 2 and (ann == 2).any():
            # ann(x) = {0, y}: x's class annihilates 0's and y's, of one member
            x = _least_member(ring, ann == 2)
            partner = zero[cls[x]].copy()
            partner[cls[0]] = False
            witness = frozenset({x, _least_member(ring, partner)})
    else:
        ring = make_product(locals_ + fields_)
        route_id = "artinian-case" if m else "field-count"
        if (m, n) == (0, 2):
            head = fields_[0].one
        elif (m, n) == (1, 1) and locals_[0].num_zero_divisors == 1:
            head = _least_member(locals_[0], _vertex_classes(locals_[0]))
    if head is not None:
        witness = frozenset(
            {product_encode(ring, (head, 0)), product_encode(ring, (0, fields_[-1].one))}
        )
    if witness is not None and not is_code_pair(ring, *witness):
        names = sorted(ring.element_name(x) for x in witness)
        raise RingError(f"structural witness {names} is not a total perfect code of {ring.name}")
    z = graph if graph is not None else zero_divisor_graph(ring)
    pair = tpc_pair_solver(z)
    results = [_route(ring, route_id, witness is not None, witness)]
    if local:
        results.append(DeciderResult("degree-one", bool(degree_one_vertices(z))))
    results.append(_route(z.ring, "exact-pair", pair is not None, pair))
    if local:
        exact = ring_code_exact(z)
        results.append(_route(z.ring, "exact-search", exact is not None, exact))
    return consensus(ring.name, results, graph=z)


# -- decomposition for arbitrary rings ------------------------------------------


def artinian_split(ring: FiniteRing) -> tuple[list[FiniteRing], list[FiniteRing]] | None:
    """Local non-field factors and field factors of a ring whose build
    descriptor exposes them (products flatten, composite Z_n splits by
    CRT); None when some factor is neither local nor a field and cannot be
    split further.  The split ring is isomorphic to the original, so the
    decision transfers; witnesses do not.
    """
    locals_: list[FiniteRing] = []
    fields_: list[FiniteRing] = []

    def walk(r: FiniteRing) -> bool:
        if r.factors:
            return all(walk(f) for f in r.factors)
        if r.kind == "zn":
            parts = factorize(r.order)
            if len(parts) > 1:
                return all(walk(make_zn(p**e)) for p, e in parts)
        if r.is_field:
            fields_.append(r)
            return True
        if r.is_local:
            locals_.append(r)
            return True
        return False

    if not walk(ring):
        return None
    return locals_, fields_


def decide_ring(ring: FiniteRing) -> Verdict:
    """Every route on one ring, over one Gamma(R): the pair sweep, the
    structural case analysis on the Artinian split (its own graph routes
    read the same Gamma, the split being isomorphic to R), the closed
    forms whose shape Gamma has (`tpc.graph_routes`, witnesses named in R)
    and the exact search.  A disagreement among the case analysis's own
    routes flags the verdict and carries their notes.  A field's empty
    graph gets the vacuous route only.
    """
    z = zero_divisor_graph(ring)
    if z.graph.n == 0:
        return consensus(ring.name, [_VACUOUS], graph=z)
    pair = tpc_pair_solver(z)
    results = [_route(ring, "exact-pair", pair is not None, pair)]
    notes: tuple[str, ...] = ()
    split = artinian_split(ring)
    if split is not None:
        v = mixed_decider(*split, graph=z)
        route_id = "structural:" + "+".join(d.decider_id for d in v.deciders)
        results.append(DeciderResult(route_id, v.admits, v.witness, v.witness_names))
        notes = v.notes
    for r in graph_routes(z.graph):
        witness = z.to_elements(r.witness) if r.witness is not None else None
        results.append(_route(ring, r.decider_id, r.admits, witness))
    exact = ring_code_exact(z)
    results.append(_route(ring, "exact-search", exact is not None, exact))
    return consensus(ring.name, results, notes, graph=z)


# -- zero-divisor counting -------------------------------------------------------


#: the six product shapes with their smallest instances and the counts the
#: reference text states for them (one of which enumeration refutes; see the
#: known-findings manifest).
STATED_COUNTS = {
    "R1xF": ("Z4 x Z2", 5),
    "R1xR2": ("Z4 x Z4", 11),
    "R1xF1xF2": ("Z4 x Z2 x Z2", 13),
    "R1xR2xF": ("Z4 x Z4 x Z2", 27),
    "R1xF1xF2xF3": ("Z4 x Z2 x Z2 x Z2", 29),
    "R1xR2xR3": ("Z4 x Z4 x Z4", 59),
}


def _star(r: FiniteRing, reading: str) -> int:
    if reading == "nonzero":
        return r.order - 1
    if reading == "units":
        return r.num_units
    raise ValueError(f"unknown star reading {reading!r}")


def reference_formula(form: str, locals_, fields_, reading: str, emended: bool = False) -> int:
    """The stated closed form for one product shape under one reading of
    the star (|X*| as nonzero elements or as units).  For R1xR2xF the
    literal text has a bare |F| term; `emended` swaps it for |F*|.  The
    three-local form's inner indices are normalised to the symmetric
    pattern, its literal ones being internally inconsistent.
    """
    s = lambda r: _star(r, reading)
    z = lambda r: r.num_zero_divisors
    if form == "R1xF":
        (r1,), (f,) = locals_, fields_
        return s(r1) + s(f) + z(r1) * s(f)
    if form == "R1xR2":
        r1, r2 = locals_
        return s(r1) + s(r2) + z(r1) * z(r2)
    if form == "R1xF1xF2":
        (r1,), (f1, f2) = locals_, fields_
        return (
            s(r1) + s(f1) + s(f2)
            + s(r1) * s(f1) + s(r1) * s(f2) + s(f1) * s(f2)
            + z(r1) * s(f1) * s(f2)
        )
    if form == "R1xR2xF":
        (r1, r2), (f,) = locals_, fields_
        f_term = s(f) if emended else f.order
        return (
            s(r1) + s(r2) + f_term
            + s(r1) * s(r2) + s(r1) * s(f) + s(r2) * s(f)
            + z(r1) * s(f) * s(r2) + z(r2) * s(f) * s(r1)
            - z(r1) * z(r2) * s(f)
        )
    if form == "R1xF1xF2xF3":
        (r1,), (f1, f2, f3) = locals_, fields_
        singles = s(r1) + s(f1) + s(f2) + s(f3)
        pairs = (
            s(r1) * s(f1) + s(r1) * s(f2) + s(r1) * s(f3)
            + s(f1) * s(f2) + s(f1) * s(f3) + s(f2) * s(f3)
        )
        triples = (
            s(r1) * s(f1) * s(f2) + s(r1) * s(f1) * s(f3) + s(r1) * s(f2) * s(f3)
            + s(f1) * s(f2) * s(f3)
        )
        return singles + pairs + triples + z(r1) * s(f1) * s(f2) * s(f3)
    if form == "R1xR2xR3":
        r1, r2, r3 = locals_
        singles = s(r1) + s(r2) + s(r3)
        pairs = s(r1) * s(r2) + s(r1) * s(r3) + s(r2) * s(r3)
        triples = z(r1) * s(r2) * s(r3) + z(r2) * s(r1) * s(r3) + z(r3) * s(r1) * s(r2)
        minus = (
            z(r1) * z(r2) * s(r3) + z(r1) * z(r3) * s(r2) + z(r2) * z(r3) * s(r1)
            + z(r1) * z(r2) * z(r3)
        )
        return singles + pairs + triples - minus
    raise ValueError(f"unknown product form {form!r}")


@dataclass(frozen=True)
class CountReport:
    form: str | None
    closed_form: int
    enumerated: int | None
    formula_by_reading: dict
    notes: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "form": self.form,
            "closed_form": self.closed_form,
            "enumerated": self.enumerated,
            "formulas": self.formula_by_reading,
            "notes": list(self.notes),
        }


def count_zero_divisors(factors) -> tuple[int, CountReport]:
    """|Z*| of a product by the inclusion-exclusion closed form
    (product of orders minus product of unit counts minus one), checked by
    enumeration within the cap and compared against the stated shape
    formulas under both readings of the star notation.
    """
    factors = list(factors)
    if not factors:
        raise RingError("at least one factor is required")
    order = 1
    units = 1
    for f in factors:
        order *= f.order
        units *= f.num_units
    closed = order - units - 1

    enumerated = None
    if order <= config.current():
        # a brute-force scan: a product's own Z* is the unit complement, the
        # very identity the closed form rests on
        enumerated = len(make_product(factors).scan_zero_divisors())

    locals_ = [f for f in factors if f.is_local and not f.is_field]
    fields_ = [f for f in factors if f.is_field]
    form = None
    if len(locals_) + len(fields_) == len(factors):
        form = {
            (1, 1): "R1xF",
            (2, 0): "R1xR2",
            (1, 2): "R1xF1xF2",
            (2, 1): "R1xR2xF",
            (1, 3): "R1xF1xF2xF3",
            (3, 0): "R1xR2xR3",
        }.get((len(locals_), len(fields_)))

    formulas: dict = {}
    notes: list[str] = []
    if form is not None:
        for reading in ("nonzero", "units"):
            formulas[reading] = reference_formula(form, locals_, fields_, reading)
        if form == "R1xR2xF":
            formulas["nonzero-emended"] = reference_formula(
                form, locals_, fields_, "nonzero", emended=True
            )
        matching = sorted(k for k, v in formulas.items() if v == closed)
        if matching:
            notes.append(f"form {form}: formula matches under reading(s) {matching}")
        else:
            notes.append(f"form {form}: no reading of the formula matches the true count")
    if enumerated is not None and enumerated != closed:  # pragma: no cover - closed form is exact
        notes.append("closed form disagrees with enumeration")
    return closed, CountReport(form, closed, enumerated, formulas, tuple(notes))
