"""Burning sequences, time functions, enumeration, and burning morphisms.

A burning is determined by its ordered source sequence (v_1, ..., v_k): the
j-th source ignites at step j and fire spreads one hop per step.  The burned
region before step j ignites is U_j; a sequence is admissible when each source
is unburned at its step and the final spread covers the whole graph.  The time
function lam(v) is the first step at which v burns.

Validation, the search and the listing share one burn step, `_expand`, on
bitmasks and with no all-pairs distances.  Before step j the state is the
bitmask S of the region N_{j-1} burned by step j - 1, since the sources so
far burn any other w at step j - 1 + d(w, S).  So U_j = N[S], N[S] - S burns
at step j, and an admissible v (one off N[S]) moves S to N[S] | {v}.  The
region N[S] thus fixes everything after step j - 1; S matters only at the
end, for whether the last step burned anything.  One search memoised on
N[S] gives the source sets, the burning number and the number of burnings
(`burning_count`); a lazy walk memoised the same way yields the ordered
burnings one at a time (`iter_burnings`, which counts first and so refuses
an oversized listing before it yields anything).  A burning reads its
homomorphism flag off its time function (`Burning.is_homomorphism`: no edge
inside one time class), with no graph map built; `burning_map` certifies the
map itself.  Every exponential search stops with `SizeGuardExceeded` past a
constant budget of work (residual states, listed burnings, subgraph path
steps), not of size; an extension is decided from one completion, with no
search; and the bitmasks are not built for a graph past a constant vertex
count.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .exactlinalg import InvariantError
from .graphs import (
    Edge,
    Graph,
    GraphMap,
    Subgraph,
    _adjacency,
    _vertices,
    classify,
    compose_graph_maps,
    identity_map,
    path_graph,
    validate_graph_map,
)


class BurningError(ValueError):
    """A source sequence that is not a burning sequence."""


class SourceTooEarly(BurningError):
    """Source v_j already burned at its ignition step (v_j in U_j)."""

    def __init__(self, step: int, vertex: int):
        super().__init__(
            f"source {vertex} at step {step} is already burned (lies in U_{step})")
        self.step = step
        self.vertex = vertex


# An IncompleteBurning message names at most this many unburned vertices.
_UNBURNED_SHOWN = 10


class IncompleteBurning(BurningError):
    """The sequence ends with unburned vertices (U_{k+1} is not the whole graph)."""

    def __init__(self, unburned: Sequence[int]):
        self.unburned = tuple(sorted(unburned))
        n = len(self.unburned)
        if n <= _UNBURNED_SHOWN:
            super().__init__(f"vertices {list(self.unburned)} never burn")
        else:
            shown = ", ".join(map(str, self.unburned[:_UNBURNED_SHOWN]))
            super().__init__(f"vertices [{shown}, ...] never burn ({n:,} in all)")


class SourceOutOfRange(BurningError):
    """A source that is not a vertex of the graph."""

    def __init__(self, vertex: int):
        super().__init__(f"source {vertex} out of range")
        self.vertex = vertex


class SizeGuardExceeded(RuntimeError):
    """Explicit refusal to brute force past a work budget."""


def check_sources(g: Graph, sources: Sequence[int]) -> tuple[int, ...]:
    s = tuple(sources)
    if not s:
        raise BurningError("source sequence must be non-empty")
    if len(set(s)) != len(s):
        raise BurningError("source sequence entries must be pairwise distinct")
    for v in s:
        if not 0 <= v < g.vertex_count:
            raise SourceOutOfRange(v)
    return s


class Burning(namedtuple("Burning", "graph sources times end_time")):
    """A validated burning: sources, per-vertex burning times, end time."""

    __slots__ = ()
    graph: Graph
    sources: tuple[int, ...]
    times: tuple[int, ...]
    end_time: int

    def time(self, v: int) -> int:
        return self.times[v]

    def source_set(self) -> frozenset[int]:
        return frozenset(self.sources)

    @property
    def is_homomorphism(self) -> bool:
        """Whether the burning map to the end-time path is a homomorphism.

        The time function is a graph map to P_T, so it is one iff no edge
        joins two vertices that burn at the same step; `burning_map` is the
        certified map.
        """
        t = self.times
        return all(t[v] != t[w] for v, w in self.graph.edges)

    def check_invariants(self) -> None:
        n = self.graph.vertex_count
        if len(self.times) != n:
            raise InvariantError(f"{len(self.times)} times for {n} vertices")
        for v in self.sources:
            if not 0 <= v < n:
                raise InvariantError(f"source {v} out of range")
        k = len(self.sources)
        for i, v in enumerate(self.sources, start=1):
            if self.times[v] != i:
                raise InvariantError(f"source {v} burns at {self.times[v]} != {i}")
        if set(self.times) != set(range(1, self.end_time + 1)):
            raise InvariantError("times not surjective onto 1..T")
        if self.end_time not in (k, k + 1):
            raise InvariantError(f"T={self.end_time} with k={k}")
        for v, w in self.graph.edges:
            if abs(self.times[v] - self.times[w]) > 1:
                raise InvariantError(f"edge ({v},{w}) jumps more than one step")
        for a, b in zip(self.sources, self.sources[1:]):
            if self.graph.has_edge(a, b):
                raise InvariantError(f"consecutive sources {a},{b} adjacent")

    def to_record(self) -> dict:
        return {
            "sources": list(self.sources),
            "lambda": list(self.times),
            "end_time": self.end_time,
            "is_homomorphism": self.is_homomorphism,
        }


# The N[v] masks take ~n^2/16 bytes on a path: P40000 ~135 MiB, P200000 ~2.5 GiB.
_WITNESS_VERTICES = 40_000


def _closed_neighbourhoods(g: Graph) -> tuple[int, ...]:
    """Entry v is the bitmask of the closed neighbourhood N[v]."""
    if g.vertex_count > _WITNESS_VERTICES:
        raise SizeGuardExceeded(f"a graph with {g.vertex_count:,} vertices is past "
                                f"the bitmask budget of {_WITNESS_VERTICES:,} vertices")
    return tuple([sum([1 << w for w in a], 1 << v) for v, a in enumerate(_adjacency(g))])


def _expand(nbhd: tuple[int, ...], whole: int, s: int, ns: int) -> tuple[int, int, int]:
    """One burn step from the state S burned by step j - 1, given N[S].

    Returns the bitmasks of the admissible sources (off N[S]) and of the
    vertices N[S] - S that burn at step j, and N[N[S]]; igniting v moves to
    the state N[S] | {v}, with closed neighbourhood N[N[S]] | N[v].
    """
    ones = rest = ns & ~s
    nns = ns
    while rest:
        bit = rest & -rest
        rest ^= bit
        nns |= nbhd[bit.bit_length() - 1]
    return whole & ~ns, ones, nns


def validate_burning(g: Graph, sources: Sequence[int]) -> Burning:
    """Accept exactly the admissible sequences and compute the time function.

    The sources walk through `_expand`: v_j must lie off N[S], and a vertex
    still admissible after the last source never burns.
    """
    s = check_sources(g, sources)
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    times = [0] * g.vertex_count
    burned = near = 0
    for j, v in enumerate(s, start=1):
        if near >> v & 1:
            raise SourceTooEarly(j, v)
        _, ones, nns = _expand(nbhd, whole, burned, near)
        for w in _vertices(ones | 1 << v):
            times[w] = j
        burned, near = near | 1 << v, nns | nbhd[v]
    unburned = _expand(nbhd, whole, burned, near)[0]
    if unburned:
        raise IncompleteBurning(_vertices(unburned))
    times = tuple([t or len(s) + 1 for t in times])  # the rest burn at k + 1
    return Burning(g, s, times, max(times))


def burning_map(b: Burning) -> GraphMap:
    """The graph map into the end-time path graph given by the time function.

    The path's vertices are 0-based internally: time t maps to path vertex t-1.
    """
    target = path_graph(b.end_time)
    return validate_graph_map(tuple([t - 1 for t in b.times]), b.graph, target)


# The listing refuses past this many burnings rather than fill memory for
# minutes: 6xP2 has 46,080, while 7xP2 has 645,120 (~25 s, ~650 MiB).
_LISTED_BURNINGS = 100_000

# The search gives up past this many distinct states S rather than run for
# minutes: P20 meets 13,180, P25 89,118 and E16 2^16 (each answered in under
# 2 s), while C26 needs 105,159, P26 129,099 and E17 2^17.  It counts the
# states, not the regions N[S] that key its memo: an edgeless graph has one
# state per region, a path five or six, so regions alone misjudge the work.
_SEARCH_STATES = 100_000


def _burnings(g: Graph) -> Iterator[Burning]:
    """Every burning of g, lexicographic in the source sequences, lazily.

    Depth-first over the burned regions N[S] of `_search`, each expanded
    once: its entry lists, per admissible v, the child state
    S' = N[S] | {v}, N[S'] and the vertices N[S'] - S' that burn a step
    later.  So a node writes the times of its children and yields a leaf
    (N[S'] the whole graph) in place; its end time is the child's step if
    N[S'] != S', else the step before (a leaf has no admissible source, so
    no burning sequence is a proper prefix of another).  It follows the
    states the search meets, so `iter_burnings` bounds it with the search's
    state budget and count before it starts.
    """
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    memo: dict[int, list[tuple[int, int, int, tuple[int, ...]]]] = {}
    times = [0] * g.vertex_count
    prefix: list[int] = []

    def walk(s: int, ns: int) -> Iterator[Burning]:
        step = len(prefix) + 1
        children = memo.get(ns)
        if children is None:
            free, _, nns = _expand(nbhd, whole, s, ns)
            children = memo[ns] = []
            for v in _vertices(free):
                child, near = ns | 1 << v, nns | nbhd[v]
                children.append((v, child, near, _vertices(near & ~child)))
        for v, child, near, ones in children:
            times[v] = step
            for w in ones:
                times[w] = step + 1
            prefix.append(v)
            if near != whole:
                yield from walk(child, near)
            else:
                yield Burning(g, tuple(prefix), tuple(times), step + 1 if ones else step)
            prefix.pop()

    return walk(0, 0)


def iter_burnings(g: Graph) -> Iterator[Burning]:
    """Every burning of g, lexicographic in the source sequences, lazily.

    The search counts the burnings on the call itself, so a listing past
    `_LISTED_BURNINGS` is refused before the first `next`; the walk then
    holds one burning at a time.
    """
    total = burning_count(g)
    if total > _LISTED_BURNINGS:
        raise SizeGuardExceeded(
            f"a graph with {g.vertex_count} vertices has {total:,} burnings, "
            f"past the listing budget of {_LISTED_BURNINGS:,} burnings")
    return _burnings(g)


def enumerate_burnings(g: Graph) -> tuple[Burning, ...]:
    """Every burning of g as a tuple: `iter_burnings`, held whole."""
    return tuple(iter_burnings(g))


# One result per graph, bounded: the survey asks each graph for its burnings,
# its burning number and then its configuration space.  A search that raises
# leaves no entry.
@lru_cache(maxsize=8)
def _search(g: Graph) -> tuple[frozenset[int], int, int]:
    """Source-set bitmasks of all burnings of g, their least end time, and
    the number of burnings.

    Depth-first over the residual states: before step j, the bitmask S of
    the region burned by step j - 1.  Each state takes the step `_expand`.
    The region N[S] fixes the admissible sources and every later state, so
    it keys the memo: each region is searched once and maps to the source
    sets of its completions, their least end offset and their number, the
    sum over its children.  A state with N[S] the whole graph closes a
    burning and is not stored: its end offset is 0 if some vertex burns at
    its step (S is not the whole graph) and -1 otherwise.  Past
    `_SEARCH_STATES` distinct states S met (one per child of a searched
    region, and the start) it raises `SizeGuardExceeded`.
    """
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    memo: dict[int, tuple[set[int], int, int]] = {}
    states = {0}
    closed, closed_early = ({0}, 0, 1), ({0}, -1, 1)

    def visit(s: int, ns: int) -> tuple[set[int], int, int]:
        if ns == whole:
            return closed if s != whole else closed_early
        found = memo.get(ns)
        if found is not None:
            return found
        free, _, nns = _expand(nbhd, whole, s, ns)
        sets: set[int] = set()
        least = g.vertex_count  # past any end offset: each step burns a vertex
        count = 0
        while free:
            bit = free & -free
            free ^= bit
            child = ns | bit
            states.add(child)
            child_sets, child_least, child_count = visit(
                child, nns | nbhd[bit.bit_length() - 1])
            sets |= {m | bit for m in child_sets}
            if child_least < least:
                least = child_least
            count += child_count
        if len(states) > _SEARCH_STATES:
            raise SizeGuardExceeded(
                f"the burning search passed {_SEARCH_STATES:,} residual states "
                f"on a graph with {g.vertex_count} vertices")
        found = memo[ns] = (sets, least + 1, count)
        return found

    masks, least, count = visit(0, 0)
    return frozenset(masks), least + 1, count


def source_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The distinct source sets of all burnings as sorted tuples, in order."""
    masks = _search(g)[0]
    return tuple(sorted(_vertices(m) for m in masks))


def burning_number(g: Graph) -> int:
    """The least end time over all burnings of g."""
    return _search(g)[1]


def burning_count(g: Graph) -> int:
    """The number of burnings of g, from the search, with none listed."""
    return _search(g)[2]


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
    if n > _WITNESS_VERTICES:
        raise SizeGuardExceeded(
            f"the {kind} witness at {param} needs P{n}, past the witness "
            f"budget of {_WITNESS_VERTICES:,} vertices")
    one_based = _closed_form_witness(kind, param)
    b = validate_burning(path_graph(n), tuple(v - 1 for v in one_based))
    if not _witness_ok(kind, param, b):
        raise InvariantError(
            f"closed-form witness {one_based} for {kind} at {param} "
            f"does not meet the constraint on P{n}")
    return ExtremalPathReport(kind, param, n, b.sources, b)
