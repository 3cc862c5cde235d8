"""Executable verification of the theory at desk scale.

Every check re-derives a structural claim or worked example by exhaustive computation
on small graphs and reports pass/fail with a counterexample payload.  The
acceptance test suite and the `verify` CLI subcommand both run these checks.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from collections import namedtuple
from functools import reduce
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Callable, Sequence

from .burning import (
    burning_count,
    burning_map,
    burning_number,
    iter_burnings,
    source_sets,
    validate_burning,
)
from .complexes import SimplicialComplex, configuration_space, join, one_skeleton_graph
from .exactlinalg import InvariantError, SmithForm, smith_normal_form
from .graphs import (
    Graph,
    classify,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    iterated_sum,
    path_graph,
    validate_graph_map,
)
from .homology import HomologyGroup, chain_complex, euler_characteristic, homology
from .morphisms import (
    _EXTREMAL_N,
    compose_morphisms,
    extremal_path_report,
    identity_morphism,
    minimal_b_burned_subgraphs,
    validate_morphism,
)

RANDOM_SEED = 20250826


class CheckResult(namedtuple("CheckResult", "check_id statement status details elapsed_s")):
    __slots__ = ()
    check_id: str
    statement: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict
    elapsed_s: float  # wall-clock seconds, set by run_checks

    def __new__(cls, check_id: str, statement: str, status: str,
                details: dict | None = None, elapsed_s: float = 0.0) -> "CheckResult":
        details = {} if details is None else details  # a fresh dict per result
        return tuple.__new__(cls, (check_id, statement, status, details, elapsed_s))

    def to_record(self) -> dict:
        return {"check_id": self.check_id, "statement": self.statement,
                "status": self.status, "details": self.details,
                "elapsed_s": self.elapsed_s}


class VerificationReport(namedtuple("VerificationReport", "checks")):
    __slots__ = ()
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_record(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_record() for c in self.checks]}


# ---------------------------------------------------------------------------
# Corpora


def named_graphs(max_vertices: int = 8) -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    for n in range(1, max_vertices + 1):
        out.append((f"path({n})", path_graph(n)))
        out.append((f"complete({n})", complete_graph(n)))
        out.append((f"edgeless({n})", edgeless_graph(n)))
    for n in range(3, max_vertices + 1):
        out.append((f"cycle({n})", cycle_graph(n)))
    for n in range(1, max_vertices):
        for m in range(n, max_vertices - n + 1):
            out.append((f"bipartite({n},{m})", complete_bipartite_graph(n, m)))
    if max_vertices >= 8:
        out.append(("cube", cube_graph()))
    return out


def random_graphs(count: int = 50, max_vertices: int = 7,
                  seed: int = RANDOM_SEED) -> list[tuple[str, Graph]]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_vertices)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        out.append((f"random[{i}]", Graph.from_edges(n, edges)))
    return out


def connected_corpus(max_vertices: int = 6, random_count: int = 10,
                     seed: int = RANDOM_SEED + 1) -> list[tuple[str, Graph]]:
    out = [(name, g) for name, g in named_graphs(max_vertices)
           if g.vertex_count <= max_vertices and classify(g).connected]
    rng = random.Random(seed)
    made = 0
    while made < random_count:
        n = rng.randint(2, max_vertices)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if classify(g).connected:
            out.append((f"random-connected[{made}]", g))
            made += 1
    return out


# Worked examples used by several checks (0-based labels v0..v6).
EXAMPLE_FAN = Graph.from_edges(
    7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)])
EXAMPLE_FAN_SOURCES = (0, 5)
EXAMPLE_HEX = Graph.from_edges(
    7, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 6), (4, 5), (5, 6)])
EXAMPLE_HEX_SOURCES = (0, 4, 6)

# conf(K1) and conf(P2), written out so that the checks do not lean on the search.
POINT = SimplicialComplex(1, frozenset({0b1}))
S0 = SimplicialComplex(2, frozenset({0b01, 0b10}))


# ---------------------------------------------------------------------------
# Checks


def check_path_burning_numbers() -> CheckResult:
    statement = "burning number of the n-vertex path is ceil(sqrt(n)) for n=1..12"
    bad = {}
    for n in range(1, 13):
        got = burning_number(path_graph(n))
        want = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) for n >= 1
        if got != want:
            bad[n] = {"got": got, "want": want}
    return _result("path-burning-numbers", statement, not bad, {"mismatches": bad})


def check_p5_configuration_space() -> CheckResult:
    statement = ("configuration space of the 5-path has facets "
                 "{1,3,5},{1,4},{2,4},{2,5} in 1-based labels")
    got = sorted(tuple(v + 1 for v in f)
                 for f in configuration_space(path_graph(5)).facets)
    want = [(1, 3, 5), (1, 4), (2, 4), (2, 5)]
    return _result("p5-configuration-space", statement, got == want, {"facets": got})


def check_skeleton_complement() -> CheckResult:
    statement = ("the 1-skeleton of every configuration space equals the "
                 "complement graph, edge for edge")
    corpus = named_graphs(8) + random_graphs(50, 7)
    bad = []
    for name, g in corpus:
        if one_skeleton_graph(configuration_space(g)) != complement(g):
            bad.append(name)
    return _result("skeleton-complement", statement, not bad,
                   {"graphs_checked": len(corpus), "counterexamples": bad})


def check_cone_suspension() -> CheckResult:
    statement = ("adding an isolated vertex cones the configuration space; "
                 "adding a detached edge suspends it")
    bad = []
    corpus = connected_corpus(6)
    # The cone and the suspension are the joins with a point and with S^0,
    # numbered as `disjoint_union` numbers the new part: equal, not just
    # isomorphic.
    for name, g in corpus:
        base = configuration_space(g)
        with_point = configuration_space(disjoint_union(g, complete_graph(1)))
        if with_point != join(base, POINT):
            bad.append((name, "cone"))
        with_edge = configuration_space(disjoint_union(g, path_graph(2)))
        if with_edge != join(base, S0):
            bad.append((name, "suspension"))
    return _result("cone-suspension", statement, not bad,
                   {"graphs_checked": len(corpus), "counterexamples": bad})


def check_path_homology_table() -> CheckResult:
    statement = ("integer burning homology of paths n=1..6: free ranks "
                 "H_0 = 1,2,2,1,1,1, H_1 nontrivial only for n=5,6 (rank 1), "
                 "no torsion, all other groups zero")
    want_h0 = {1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}
    want_h1 = {5: 1, 6: 1}
    bad = {}
    for n in range(1, 7):
        groups = homology(configuration_space(path_graph(n)))
        for q, grp in enumerate(groups):
            want_rank = want_h0[n] if q == 0 else (want_h1.get(n, 0) if q == 1 else 0)
            if grp.free_rank != want_rank or grp.torsion:
                bad[f"P{n} degree {q}"] = {
                    "got": str(grp), "want_free_rank": want_rank}
    return _result("path-homology-table", statement, not bad, {"mismatches": bad})


def check_path_homology_kozlov() -> CheckResult:
    statement = ("for n=1..20 the configuration space of the n-path is its "
                 "independence complex, facet for facet, and its integer "
                 "homology is Kozlov's: a point for n=3k+1, else S^(k-1), "
                 "no torsion")
    bad = {}
    for n in range(1, 21):
        c = configuration_space(path_graph(n))
        maximal = _path_maximal_independent_sets(n)
        if set(c.facets) != maximal:
            bad[f"P{n} facets"] = {"got": len(c.facets), "want": len(maximal)}
        # Kozlov (JCTA 1999): Ind(P_n) is contractible for n = 3k+1 and
        # S^{k-1} for n = 3k-1 and n = 3k.
        k, r = divmod(n + 1, 3)
        want = {0: 1} if r == 2 else {0: 2} if k == 1 else {0: 1, k - 1: 1}
        groups = homology(c)
        got = {q: g.free_rank for q, g in enumerate(groups) if g.free_rank}
        if got != want or any(g.torsion for g in groups):
            bad[f"P{n} homology"] = {"got": [str(g) for g in groups],
                                     "want_free_ranks": want}
    return _result("path-homology-kozlov", statement, not bad, {"mismatches": bad})


def _path_maximal_independent_sets(n: int) -> set[tuple[int, ...]]:
    """Maximal independent sets of the n-path, written out directly.

    They start at vertex 0 or 1, step by 2 or 3 (a gap of 4 could take one
    more vertex) and end at n-1 or n-2.
    """
    out = set()
    stack = [(start,) for start in (0, 1) if start < n]
    while stack:
        s = stack.pop()
        if s[-1] >= n - 2:
            out.add(s)
        stack += [s + (s[-1] + step,) for step in (2, 3) if s[-1] + step < n]
    return out


def check_cross_polytope_spheres() -> CheckResult:
    statement = ("the configuration space of n <= 10 detached edges is the boundary "
                 "complex of the n-dimensional cross-polytope: 2^n facets of "
                 "size n, one endpoint per edge, sphere homology")
    bad = {}
    for n in range(1, 11):
        g = iterated_sum(n, path_graph(2))
        c = configuration_space(g)
        # The n-fold join of S^0, edge i's ends numbered 2i and 2i + 1.
        shape_ok = c == reduce(join, [S0] * n)
        groups = homology(c, reduced=True)
        if not (shape_ok and groups == [HomologyGroup(0)] * (n - 1) + [HomologyGroup(1)]):
            bad[n] = {"facets": len(c.facets), "homology": [str(x) for x in groups]}
    return _result("cross-polytope-spheres", statement, not bad, {"mismatches": bad})


def check_cube() -> CheckResult:
    statement = ("every burning of the 3-cube has exactly two sources and its "
                 "configuration space is the complement graph as a 1-complex")
    q = cube_graph()
    two_sources = all(len(b.sources) == 2 for b in iter_burnings(q))
    c = configuration_space(q)
    dim_ok = c.dimension == 1
    equal = one_skeleton_graph(c) == complement(q)
    ok = two_sources and dim_ok and equal
    return _result("cube", statement, ok, {
        "burning_count": burning_count(q), "all_two_sources": two_sources,
        "dimension": c.dimension, "equals_complement": equal})


def check_minimal_subgraphs() -> CheckResult:
    statement = ("minimal compatibly-burned subgraphs match the two worked "
                 "seven-vertex examples exactly and are always trees")
    details: dict = {}
    ok = True

    b = validate_burning(EXAMPLE_FAN, EXAMPLE_FAN_SOURCES)
    got = [(h.vertices, tuple(sorted(h.edges)))
           for h in minimal_b_burned_subgraphs(b)]
    want = [
        ((0, 1, 2, 5), ((0, 1), (1, 2), (2, 5))),
        ((0, 1, 3, 5), ((0, 1), (1, 3), (3, 5))),
        ((0, 1, 4, 5), ((0, 1), (1, 4), (4, 5))),
    ]
    if got != want:
        ok = False
        details["fan_example"] = got

    b2 = validate_burning(EXAMPLE_HEX, EXAMPLE_HEX_SOURCES)
    got_vs = sorted(h.vertices for h in minimal_b_burned_subgraphs(b2))
    want_vs = [(0, 1, 2, 3, 4, 6), (0, 1, 2, 4, 5, 6), (0, 1, 3, 4, 5, 6)]
    if got_vs != want_vs:
        ok = False
        details["hex_example"] = got_vs

    non_trees = []
    corpus = connected_corpus(6)
    for name, g in corpus:
        b_first = next(iter_burnings(g))
        for h in minimal_b_burned_subgraphs(b_first):
            local, _ = h.as_graph()
            if not classify(local).tree:
                non_trees.append((name, h.vertices))
    if non_trees:
        ok = False
        details["non_trees"] = non_trees
    details["corpus_graphs"] = len(corpus)
    return _result("minimal-subgraphs", statement, ok, details)


def check_extremal_paths() -> CheckResult:
    statement = ("extremal path lengths T^2, T^2-T+1, k^2+2k, 2k-1, 3k-2 have "
                 "validated witnesses, and the T^2 / 2k-1 bounds are tight")
    bad = []
    for p in (1, 2, 3):
        for kind in _EXTREMAL_N:
            try:
                extremal_path_report(kind, p)
            except Exception as exc:  # report, never crash the harness
                bad.append((kind, p, repr(exc)))
    for t in (1, 2, 3):
        # One vertex past the maximum cannot burn within the end time.
        if burning_number(path_graph(t * t + 1)) <= t:
            bad.append(("max-n-for-T tightness", t, "longer path still burns"))
    for k in (2, 3):
        # One vertex short of the minimum leaves no room for k sources.
        counts = {len(s) for s in source_sets(path_graph(2 * k - 2))}
        if any(c >= k for c in counts):
            bad.append(("min-n-for-k tightness", k, sorted(counts)))
    return _result("extremal-paths", statement, not bad, {"failures": bad})


def check_no_homomorphism_odd_cycles() -> CheckResult:
    statement = ("no burning of a graph with an odd closed path has an "
                 "edge-preserving burning map")
    corpus = [("K3", complete_graph(3)), ("C5", cycle_graph(5))]
    corpus += [(name, g) for name, g in connected_corpus(6)
               if not classify(g).bipartite]
    bad = []
    for name, g in corpus:
        for b in iter_burnings(g):
            if burning_map(b).is_homomorphism:
                bad.append((name, b.sources))
    return _result("no-homomorphism-odd-cycles", statement, not bad,
                   {"graphs_checked": len(corpus), "counterexamples": bad})


def check_suspension_shift() -> CheckResult:
    statement = ("adding a detached edge shifts reduced burning homology up "
                 "one degree, torsion included: conf(G) by homology() (strong core, "
                 "join split, coreduction), conf(G + P2) = conf(G) * S^0 by the Smith "
                 "forms of its whole augmented chain complex, which never splits a join")
    bad = []
    corpus = connected_corpus(6)
    for name, g in corpus:
        base = homology(configuration_space(g), reduced=True)
        cc = chain_complex(configuration_space(disjoint_union(g, path_graph(2))), True)
        diagonals = [smith_normal_form(cc.boundary(q)).diagonal for q in range(len(cc.dims) + 1)]
        lifted = [HomologyGroup(n - len(diagonals[q]) - len(diagonals[q + 1]),
                                tuple(d for d in diagonals[q + 1] if d > 1))
                  for q, n in enumerate(cc.dims)]
        if lifted != [HomologyGroup(0)] + base:
            bad.append((name, [str(x) for x in lifted], [str(x) for x in base]))
    return _result("suspension-shift", statement, not bad,
                   {"graphs_checked": len(corpus), "counterexamples": bad})


def determinantal_divisor_snf(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Independent oracle: d_k = gcd of k-by-k minors divided by the previous.

    Exponential in the matrix size; intended for small test matrices only.
    """
    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0

    def minor_det(ris: tuple[int, ...], cis: tuple[int, ...]) -> int:
        return _det([[m[i][j] for j in cis] for i in ris])

    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in combinations(range(rows), k):
            for cis in combinations(range(cols), k):
                g = gcd(g, minor_det(ris, cis))
        if g == 0:
            break
        divisors.append(g)
    diagonal = []
    prev = 1
    for d in divisors:
        diagonal.append(d // prev)
        prev = d
    return SmithForm(tuple(diagonal), len(diagonal))


def _det(sub: list[list[int]]) -> int:
    """The determinant of a square matrix, by cofactors along its first row."""
    n = len(sub)
    if n == 1:
        return sub[0][0]
    det = 0
    for j in range(n):
        if sub[0][j]:
            smaller = [row[:j] + row[j + 1:] for row in sub[1:]]
            sign = -1 if j % 2 else 1
            det += sign * sub[0][j] * _det(smaller)
    return det


def check_property_suites() -> CheckResult:
    statement = ("burning invariants, boundary-squared-zero, Euler "
                 "characteristic, Smith form vs minor-gcd oracle, and the "
                 "category laws all hold")
    failures = []

    small = [(n_, g) for n_, g in named_graphs(6)] + random_graphs(20, 6, RANDOM_SEED + 2)
    small.append(("cube", cube_graph()))
    for name, g in small:
        for b in iter_burnings(g):
            try:
                b.check_invariants()
                burning_map(b)
            except InvariantError as exc:
                failures.append((name, b.sources, str(exc)))

    for name, g in connected_corpus(5, random_count=5):
        c = configuration_space(g)
        try:
            chain_complex(c)  # checks boundary-squared zero, epsilon d_1 included
            ranks = sum((-1) ** q * grp.free_rank for q, grp in enumerate(homology(c)))
        except InvariantError as exc:
            failures.append((name, "invariant", str(exc)))
            continue
        chi = euler_characteristic(c)
        if chi != ranks:
            failures.append((name, "euler", chi, ranks))

    rng = random.Random(RANDOM_SEED + 3)
    for i in range(100):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        if smith_normal_form(m) != determinantal_divisor_snf(m):
            failures.append(("snf", i, m))

    failures.extend(_category_law_failures())
    return _result("property-suites", statement, not failures,
                   {"failures": failures})


def _category_law_failures() -> list:
    """Unit and associativity laws on a chain of nested path burnings."""
    failures = []
    burnings = [validate_burning(path_graph(n), s)
                for n, s in ((2, (0,)), (3, (0, 2)), (4, (0, 2)), (5, (0, 2, 4)))]
    chain = []
    for small, big in zip(burnings, burnings[1:]):
        inclusion = validate_graph_map(
            tuple(small.graph.vertices), small.graph, big.graph)
        chain.append(validate_morphism(inclusion, small, big))
    m1, m2, m3 = chain
    left = compose_morphisms(m3, compose_morphisms(m2, m1))
    right = compose_morphisms(compose_morphisms(m3, m2), m1)
    if (left.graph_map.vertex_fn, left.tau) != (right.graph_map.vertex_fn, right.tau):
        failures.append(("associativity", left.tau, right.tau))
    for m in chain:
        left_unit = compose_morphisms(m, identity_morphism(m.domain))
        right_unit = compose_morphisms(identity_morphism(m.codomain), m)
        for unit in (left_unit, right_unit):
            if (unit.graph_map.vertex_fn, unit.tau) != (m.graph_map.vertex_fn, m.tau):
                failures.append(("unit", m.tau))
    return failures


def _result(check_id: str, statement: str, ok: bool, details: dict) -> CheckResult:
    return CheckResult(check_id, statement, "pass" if ok else "fail", details)


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "path-burning-numbers": check_path_burning_numbers,
    "p5-configuration-space": check_p5_configuration_space,
    "skeleton-complement": check_skeleton_complement,
    "cone-suspension": check_cone_suspension,
    "path-homology-table": check_path_homology_table,
    "cross-polytope-spheres": check_cross_polytope_spheres,
    "cube": check_cube,
    "minimal-subgraphs": check_minimal_subgraphs,
    "extremal-paths": check_extremal_paths,
    "no-homomorphism-odd-cycles": check_no_homomorphism_odd_cycles,
    "suspension-shift": check_suspension_shift,
    "property-suites": check_property_suites,
    "path-homology-kozlov": check_path_homology_kozlov,
}


def run_checks(check_ids: list[str] | None = None) -> VerificationReport:
    ids = list(CHECKS) if not check_ids or check_ids == ["all"] else check_ids
    results = []
    for cid in ids:
        if cid not in CHECKS:
            raise ValueError(f"unknown check {cid!r}; known: {', '.join(CHECKS)}")
        start = time.perf_counter()
        try:
            result = CHECKS[cid]()
        except Exception as exc:  # report, never crash the harness
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            result = CheckResult(cid, f"raised {type(exc).__name__}", "fail", {
                "error": type(exc).__name__, "message": str(exc),
                "at": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"})
        results.append(result._replace(elapsed_s=round(time.perf_counter() - start, 3)))
    return VerificationReport(tuple(results))
