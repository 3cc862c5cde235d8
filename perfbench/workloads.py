"""Workload definitions, seeded input generation and output checks.

The CLI workloads are fixed `graphburn` argument lists.  The survey corpus is
generated here from the run's seed with stdlib `random`; the program only
ever receives the finished graphs.  Every check compares the program's
output with an expectation derived independently of the program (a closed
formula or an algebraic identity), and a failed check marks one operation as
wrong without stopping the run.
"""

from __future__ import annotations

import json
import random
from math import factorial

DEFAULT_SEED = 1

WORKLOADS = ("path-z", "sum-burn", "survey")

# Each entry is one cold `graphburn` invocation, in the order a pass runs them.
CLI_TASKS = {
    # Largest integer boundary matrices: dense Smith form dominates.
    "path-z": [["homology", "path:12"],
               ["homology", "path:13"],
               ["homology", "path:14"]],
    # 3,840 and 46,080 ordered burnings collapsing to 32 and 64 source sets.
    "sum-burn": [["burnings", "sum:5,path:2", "--format", "json"],
                 ["burning-number", "sum:6,path:2"],
                 ["complex", "sum:6,path:2"]],
}

# Survey corpus: connected graphs on 8, 9 and 10 vertices whose edge counts
# sit at 0.3 * C(n, 2) and one either side.  Cycling through the nine
# (n, edges) strata in a fixed order, rather than drawing n and the edge count
# at random, keeps the corpus cost close across seeds; only the shape of each
# graph is random.
SURVEY_EDGE_COUNTS = {8: (7, 8, 9), 9: (10, 11, 12), 10: (13, 14, 15)}
SURVEY_STRATA = tuple((n, m) for n, ms in SURVEY_EDGE_COUNTS.items() for m in ms)
SURVEY_GRAPHS = 108


def tasks(workload: str) -> list[dict]:
    """The task specs of one pass; each runs in its own process."""
    if workload == "survey":
        return [{"kind": "survey"}]
    return [{"kind": "cli", "argv": argv} for argv in CLI_TASKS[workload]]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for v, w in edges:
        rv, rw = find(v), find(w)
        if rv != rw:
            parent[rv] = rw
            parts -= 1
    return parts == 1


def survey_corpus(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded corpus as (vertex count, edge list) pairs, uniform within strata."""
    rng = random.Random(seed)
    corpus = []
    for i in range(SURVEY_GRAPHS):
        n, m = SURVEY_STRATA[i % len(SURVEY_STRATA)]
        pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
        while True:
            edges = sorted(rng.sample(pairs, m))
            if _connected(n, edges):
                break
        corpus.append((n, edges))
    return corpus


def survey_graph(mods: dict, g) -> dict:
    """The per-graph work of scripts/survey_burnings.py, plus H over Q and F_2."""
    burning, complexes, homology = mods["burning"], mods["complexes"], mods["homology"]
    burnings = burning.enumerate_burnings(g)
    has_hom = any(burning.burning_map(b).is_homomorphism for b in burnings)
    number = burning.burning_number(g)
    c = complexes.configuration_space(g)
    return {"burnings": len(burnings), "has_hom": has_hom, "burning_number": number,
            "complex": c,
            "z": homology.homology(c),
            "q": homology.homology(c, coeff="q"),
            "f2": homology.homology(c, coeff="p:2")}


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of error strings; empty means correct.


def _kozlov_text(n: int) -> list[str]:
    """H_*(conf P_n; Z) as the CLI prints it, from Ind(P_n) (Kozlov, JCTA 1999).

    Ind(P_n) is homotopy equivalent to S^{k-1} for n = 3k-1 and n = 3k and is
    contractible for n = 3k+1; its dimension is ceil(n/2) - 1.
    """
    ranks = [1] + [0] * ((n + 1) // 2 - 1)
    if n % 3 != 1:
        ranks[(n + 1) // 3 - 1] += 1
    return [f"H_{q} = " + ("0" if r == 0 else "Z" if r == 1 else f"Z^{r}")
            for q, r in enumerate(ranks)]


# Maximal independent sets of P_n, by m(n) = m(n-2) + m(n-3) from
# m(1), m(2), m(3) = 1, 2, 2: the facet counts of conf(P_n) = Ind(P_n).
PATH_FACETS = {12: 28, 13: 37, 14: 49}


def _pair_transversal_errors(sets: list[tuple[int, ...]], k: int) -> list[str]:
    """k x P2 has vertices 2i, 2i+1 per copy; each set must pick one of each."""
    errors = []
    distinct = set(sets)
    if len(distinct) != 2 ** k:
        errors.append(f"{len(distinct)} distinct source sets, expected {2 ** k}")
    for s in distinct:
        if sorted(v // 2 for v in s) != list(range(k)):
            errors.append(f"set {sorted(s)} is not one vertex per copy of P2")
            break
    return errors


def _check_path_homology(n: int, out: str, mods: dict) -> list[str]:
    errors = []
    got, want = out.strip().splitlines(), _kozlov_text(n)
    if got != want:
        errors.append(f"homology of conf(P{n}): got {got}, expected {want}")
    c = mods["complexes"].configuration_space(mods["graphs"].path_graph(n))
    if len(c.facets) != PATH_FACETS[n]:
        errors.append(f"conf(P{n}) has {len(c.facets)} facets, expected {PATH_FACETS[n]}")
    if any(b - a == 1 for f in c.facets for a, b in zip(f, f[1:])):
        errors.append(f"conf(P{n}) has a facet that is not independent in P{n}")
    return errors


def check_cli(argv: list[str], out: str, mods: dict) -> list[str]:
    command, spec = argv[0], argv[1]
    if command == "homology":
        return _check_path_homology(int(spec.split(":")[1]), out, mods)
    k = int(spec.split(":")[1].split(",")[0])
    if command == "burnings":
        records = json.loads(out)["burnings"]
        errors = []
        if len(records) != factorial(k) * 2 ** k:
            errors.append(f"{len(records)} burnings of {k}xP2, expected {factorial(k) * 2 ** k}")
        if any(r["end_time"] != k + 1 for r in records):
            errors.append(f"a burning of {k}xP2 does not end at time {k + 1}")
        return errors + _pair_transversal_errors(
            [tuple(sorted(r["sources"])) for r in records], k)
    if command == "burning-number":
        return [] if out.strip() == str(k + 1) else [
            f"burning number of {k}xP2: got {out.strip()!r}, expected {k + 1}"]
    if command == "complex":
        lines = out.strip().splitlines()
        errors = []
        if lines[0] != f"vertices {2 * k} dimension {k - 1}":
            errors.append(f"complex header {lines[0]!r}")
        facets = [tuple(int(v) for v in line.split()[1].split(","))
                  for line in lines[1:]]
        if len(facets) != 2 ** k or any(len(f) != k for f in facets):
            errors.append(f"expected {2 ** k} facets of size {k}")
        return errors + _pair_transversal_errors(facets, k)
    raise ValueError(f"no check for command {command!r}")


def check_survey(mods: dict, result: dict) -> list[str]:
    """Euler characteristic, Q against Z, and F_2 against the UCT."""
    c, z, q, f2 = result["complex"], result["z"], result["q"], result["f2"]
    errors = []
    f_vector = [len(mods["complexes"].faces(c, d)) for d in range(c.dimension + 1)]
    chi_faces = sum((-1) ** d * f for d, f in enumerate(f_vector))
    chi_ranks = sum((-1) ** d * h.free_rank for d, h in enumerate(z))
    if chi_faces != chi_ranks:
        errors.append(f"Euler characteristic {chi_faces} from faces, {chi_ranks} from ranks")
    if [h.free_rank for h in q] != [h.free_rank for h in z]:
        errors.append("Q Betti numbers differ from the Z free ranks")
    # H_d(X; F_2) = H_d(X) (x) F_2 + Tor(H_{d-1}(X), F_2): each even torsion
    # coefficient adds one dimension in its own degree and one above it.
    even = [sum(1 for t in h.torsion if t % 2 == 0) for h in z]
    uct = [h.free_rank + even[d] + (even[d - 1] if d else 0) for d, h in enumerate(z)]
    if [h.free_rank for h in f2] != uct:
        errors.append(f"F_2 ranks {[h.free_rank for h in f2]}, UCT gives {uct}")
    return errors
