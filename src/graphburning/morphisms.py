"""Morphisms of burnings, b-burned subgraphs, extensions and extremal paths.

The category of burnings, built on the burn step of `burning`.  A morphism
is a graph map that sends the sources to a prefix of the codomain's sources
and commutes with the time functions through a map tau of the end-time
paths (`validate_morphism`).  A b-burned subgraph carries the whole source
sequence and burns as the ambient graph does; the minimal ones are trees
grown along the paths joining the sources, a search that stops with
`SizeGuardExceeded` past a constant budget of path steps.  An extension is
decided from one completion of the embedded sources, with no search.  The
extremal path lengths come with closed-form witnesses, each validated on its
path.  No pipeline command runs this code, so the package loads it on first
use.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from . import burning
from .burning import (
    Burning,
    BurningError,
    SizeGuardExceeded,
    _closed_neighbourhoods,
    _expand,
    validate_burning,
)
from .complexes import configuration_space
from .exactlinalg import InvariantError
from .graphs import (
    Edge,
    Graph,
    GraphMap,
    Subgraph,
    _vertices,
    classify,
    compose_graph_maps,
    identity_map,
    path_graph,
)


# ---------------------------------------------------------------------------
# Morphisms of burnings


class MorphismError(ValueError):
    """A graph map that fails the burning-morphism conditions."""


class PrefixMismatch(MorphismError):
    pass


class TauIllDefined(MorphismError):
    pass


class TauNotGraphMap(MorphismError):
    pass


class BurningMorphism(namedtuple("BurningMorphism",
                                 "graph_map domain codomain tau tau_is_inclusion")):
    """A graph map commuting with the time functions through a path-graph map."""

    __slots__ = ()
    graph_map: GraphMap
    domain: Burning
    codomain: Burning
    tau: tuple[int, ...]  # tau[t-1] is the image of time t, 1-based values
    tau_is_inclusion: bool

    def map_time(self, t: int) -> int:
        return self.tau[t - 1]


def validate_morphism(f: GraphMap, b_g: Burning, b_h: Burning) -> BurningMorphism:
    """Certify f as a morphism of burnings, deriving the time map tau.

    Only a hand-built `Burning` raises `TauNotGraphMap`, skips a time or has
    one outside 1..end_time, which a `MorphismError` names: in those built by
    `validate_burning` sources map to sources, and every other vertex burning
    at t has a neighbour burning at t - 1, so tau moves by at most one."""
    if f.domain != b_g.graph or f.codomain != b_h.graph:
        raise MorphismError("graph map endpoints do not match the burnings")
    k, m = len(b_g.sources), len(b_h.sources)
    if k > m:
        raise PrefixMismatch(f"domain has more sources ({k}) than codomain ({m})")
    for i in range(k):
        if f(b_g.sources[i]) != b_h.sources[i]:
            raise PrefixMismatch(
                f"source {i + 1} maps to {f(b_g.sources[i])}, "
                f"expected {b_h.sources[i]}")
    # tau(t) := time of f(v) for any v burning at time t; the time function of
    # a validated burning is surjective, so this pins tau once it is well defined.
    tau: list[int | None] = [None] * b_g.end_time
    for v in b_g.graph.vertices:
        t = b_g.time(v)
        if not 1 <= t <= b_g.end_time:
            raise MorphismError(f"vertex {v} burns at time {t}, outside 1..{b_g.end_time}")
        image_t = b_h.time(f(v))
        if tau[t - 1] is None:
            tau[t - 1] = image_t
        elif tau[t - 1] != image_t:
            raise TauIllDefined(
                f"time {t} maps to both {tau[t - 1]} and {image_t}")
    if None in tau:  # only a hand-built burning skips a time
        raise MorphismError(f"no vertex burns at time {tau.index(None) + 1}")
    fixed = tuple(tau)
    for a, b in zip(fixed, fixed[1:]):
        if abs(a - b) > 1:
            raise TauNotGraphMap(f"tau jumps from {a} to {b}")
    inclusion = all(fixed[i] == i + 1 for i in range(len(fixed)))
    return BurningMorphism(f, b_g, b_h, fixed, inclusion)


def identity_morphism(b: Burning) -> BurningMorphism:
    return validate_morphism(identity_map(b.graph), b, b)


def compose_morphisms(second: BurningMorphism, first: BurningMorphism) -> BurningMorphism:
    if first.codomain != second.domain:
        raise MorphismError("morphisms do not compose")
    f = compose_graph_maps(second.graph_map, first.graph_map)
    return validate_morphism(f, first.domain, second.codomain)


# ---------------------------------------------------------------------------
# B-burned subgraphs


def _obeys_rule(b: Burning, vertices: Iterable[int], edges: Iterable[Edge]) -> bool:
    """Whether every non-source vertex has an edge to one burning a step earlier."""
    t = b.times
    fed = {v if t[v] > t[w] else w for v, w in edges if abs(t[v] - t[w]) == 1}
    return fed.union(b.sources).issuperset(vertices)


def is_b_burned(h: Subgraph, b: Burning) -> Burning | None:
    """Test whether the subgraph burns compatibly with the ambient burning.

    The subgraph must carry the full source sequence of the ambient burning:
    its own burning by that sequence must restrict the ambient time function
    and include as a morphism.  Returns the subgraph burning (on the extracted
    graph, whose vertex i is h.vertices[i]) or None.  That holds iff the
    subgraph obeys `_obeys_rule`: its distances are at least g's, so its times
    are at least b's, and by induction on the time they are equal exactly
    under the rule; then the morphism conditions hold with tau the inclusion.
    """
    if h.ambient != b.graph:
        raise BurningError("subgraph does not live in the burned graph")
    if not classify(b.graph).connected:
        raise BurningError("ambient graph must be connected")
    local, labels = h.as_graph()
    if not classify(local).connected:
        raise BurningError("subgraph must be connected")
    position = {v: i for i, v in enumerate(labels)}
    if any(v not in position for v in b.sources) or not _obeys_rule(b, labels, h.edges):
        return None
    times = tuple(b.times[v] for v in labels)
    return Burning(local, tuple(position[v] for v in b.sources), times, max(times))


# The subgraph search gives up past this many path steps: the 4x5 grid burned
# from (0, 2, 4, 13, 19) takes 61,424, the 5x5 grid 776,420, K8 from 0 none.
_SUBGRAPH_CANDIDATES = 100_000


def minimal_b_burned_subgraphs(b: Burning) -> list[Subgraph]:
    """The inclusion-minimal connected subgraphs burned compatibly with b.

    They are the trees that obey `_obeys_rule` and whose vertices of degree
    <= 1 are sources.  A spanning tree keeping one earlier-neighbour edge per
    non-source vertex obeys the rule, so a minimal one is a tree; a non-source
    leaf is no vertex's earlier neighbour and can go; and a connected subgraph
    of a tree that holds all its leaves is the whole tree.  So from {s_1}, each
    later source off the tree joins it by a simple path that meets it at the
    path's end only; as s_1..s_i span one subtree, each tree is built once.
    Past `_SUBGRAPH_CANDIDATES` path steps it raises `SizeGuardExceeded`.
    """
    g = b.graph
    if not classify(g).connected:
        raise BurningError("ambient graph must be connected")
    # Paths in progress: (source index, tree, end, path, edges as (edge, rest)).
    nbhd, sources, found, stack, steps = _closed_neighbourhoods(g), b.sources, [], [], 0

    def place(i: int, tree: int, edges: tuple | None) -> None:
        while i < len(sources) and tree >> sources[i] & 1:
            i += 1
        if i < len(sources):
            stack.append((i, tree, sources[i], 1 << sources[i], edges))
            return
        chosen = []
        while edges:
            e, edges = edges
            chosen.append(e)
        if _obeys_rule(b, _vertices(tree), chosen):
            found.append(Subgraph(g, _vertices(tree), frozenset(chosen)))

    place(1, 1 << sources[0], None)
    while stack:
        i, tree, v, path, edges = stack.pop()
        for w in _vertices(nbhd[v] & ~path):
            steps += 1
            if steps > _SUBGRAPH_CANDIDATES:
                raise SizeGuardExceeded(
                    f"the subgraph search passed {_SUBGRAPH_CANDIDATES:,} candidates "
                    f"on a graph with {g.vertex_count} vertices / {len(g.edges)} edges")
            grown = ((min(v, w), max(v, w)), edges)
            if tree >> w & 1:
                place(i + 1, tree | path, grown)
            else:
                stack.append((i, tree, w, path | 1 << w, grown))
    return sorted(found, key=lambda h: (h.vertices, sorted(h.edges)))


# ---------------------------------------------------------------------------
# Burning extensions


def admits_extension(b_h: Burning, embed: GraphMap, g: Graph) -> Burning | None:
    """First burning of g extending the given burning through the embedding.

    Every completion of the embedded sources gives the images of H the same
    times (README, "Extensions"), so they all share one `validate_morphism`
    verdict.  Only the first is built: the embedded sources, then the least
    admissible vertex while any is left.  None if the embedded sources are
    not admissible in g or that completion is no morphism.
    """
    if embed.domain != b_h.graph or embed.codomain != g:
        raise BurningError("embedding endpoints do not match")
    if not embed.is_injective():
        raise BurningError("embedding must be injective")
    sources = [embed(v) for v in b_h.sources]
    nbhd, whole = _closed_neighbourhoods(g), (1 << g.vertex_count) - 1
    burned = near = 0
    for j in range(g.vertex_count + 1):  # each source burns at least itself
        free, _, nns = _expand(nbhd, whole, burned, near)
        if j == len(sources):
            if not free:
                break
            sources.append((free & -free).bit_length() - 1)
        elif not free >> sources[j] & 1:
            return None
        burned, near = near | 1 << sources[j], nns | nbhd[sources[j]]
    b_g = validate_burning(g, sources)
    try:
        validate_morphism(embed, b_h, b_g)
    except MorphismError:
        return None
    return b_g


def is_burning_extension(embed: GraphMap) -> bool:
    """Whether every source set of the domain extends to one of the codomain,
    i.e. each facet of conf(H) maps onto a face of conf(G) (faces are exactly the
    subsets of source sets).  A search past its budget raises `SizeGuardExceeded`."""
    if not embed.is_injective():
        raise BurningError("embedding must be injective")
    target = configuration_space(embed.codomain)
    return all(target.has_face([embed(v) for v in f])
               for f in configuration_space(embed.domain).facets)


# ---------------------------------------------------------------------------
# Extremal path burnings


class ExtremalPathReport(namedtuple("ExtremalPathReport", "kind param n witness burning")):
    __slots__ = ()
    kind: str
    param: int
    n: int
    witness: tuple[int, ...]  # 0-based sources validated on path_graph(n)
    burning: Burning


# Each extremal kind: the path length n at parameter p, and the 1-based
# source positions suggested by the closed-form analysis.
_EXTREMAL_N = {
    # Source j sits at p^2 - r^2 + r with radius r = p + 1 - j.
    "max-n-for-T": (
        lambda p: p * p,
        lambda p: [p * p - r * r + r for r in range(p, 0, -1)]),
    # p - 1 sources (one for p = 1), the gap before source j being 2(p - j) + 1.
    "max-n-for-T-hom": (
        lambda p: p * p - p + 1,
        lambda p: [p + (j - 1) * (2 * p - j - 1) for j in range(1, max(p, 2))]),
    # Disjoint radius-(p + 1 - j) neighbourhoods tile the path, largest first.
    "max-n-for-k": (
        lambda p: p * p + 2 * p,
        lambda p: [(j - 1) * (2 * p + 3 - j) + p + 2 - j for j in range(1, p + 1)]),
    "min-n-for-k": (lambda p: 2 * p - 1, lambda p: [2 * i - 1 for i in range(1, p + 1)]),
    "min-n-for-k-hom": (lambda p: 3 * p - 2, lambda p: [3 * i - 2 for i in range(1, p + 1)]),
}


def _closed_form_witness(kind: str, p: int) -> tuple[int, ...]:
    """The 1-based source positions suggested by the closed-form analysis."""
    return tuple(_EXTREMAL_N[kind][1](p))


def _witness_ok(kind: str, p: int, b: Burning) -> bool:
    size = b.end_time if kind.startswith("max-n-for-T") else len(b.sources)
    return size == p and (not kind.endswith("-hom") or b.is_homomorphism)


def extremal_path_report(kind: str, param: int) -> ExtremalPathReport:
    """The extremal path length for the given constraint, with a validated witness.

    The witness is the closed-form source sequence; one that does not burn
    the path raises `BurningError`, one that burns it without meeting the
    constraint `InvariantError`.  A path past `_WITNESS_VERTICES` vertices
    raises `SizeGuardExceeded` before it is built.
    """
    if param < 1:
        raise ValueError("parameter must be >= 1")
    if kind not in _EXTREMAL_N:
        raise ValueError(f"unknown extremal kind {kind!r}")
    n = _EXTREMAL_N[kind][0](param)
    if n > burning._WITNESS_VERTICES:  # read at call time, like burning's own guard
        raise SizeGuardExceeded(
            f"the {kind} witness at {param} needs P{n}, past the witness "
            f"budget of {burning._WITNESS_VERTICES:,} vertices")
    one_based = _closed_form_witness(kind, param)
    b = validate_burning(path_graph(n), tuple(v - 1 for v in one_based))
    if not _witness_ok(kind, param, b):
        raise InvariantError(
            f"closed-form witness {one_based} for {kind} at {param} "
            f"does not meet the constraint on P{n}")
    return ExtremalPathReport(kind, param, n, b.sources, b)
