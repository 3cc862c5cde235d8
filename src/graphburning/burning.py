"""Burning sequences, time functions and enumeration.

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
an oversized listing before it yields anything).  A burning carries its
homomorphism flag as a field (`Burning.is_homomorphism`: no edge inside one
time class), with no graph map built: the walk ANDs it over the steps of
its path, and a record built from four fields takes it from the edges;
`burning_map` certifies the map itself.  Every exponential search stops
with `SizeGuardExceeded` past a constant budget of work (residual states,
listed burnings), not of size, and the bitmasks are not built for a graph
past a constant vertex count.  The category of burnings (morphisms,
b-burned subgraphs, extensions, extremal paths) builds on the same burn
step in `morphisms`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Sequence

from .exactlinalg import InvariantError
from .graphs import Graph, GraphMap, _adjacency, _vertices, path_graph, validate_graph_map


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


def _homomorphic(g: Graph, times: Sequence[int]) -> bool:
    """The edge rule: no edge joins two vertices that burn at the same step."""
    return all(times[v] != times[w] for v, w in g.edges)


class Burning(namedtuple("Burning", "graph sources times end_time is_homomorphism")):
    """A validated burning: sources, per-vertex burning times, end time, and
    whether the burning map to the end-time path is a homomorphism.

    The time function is a graph map to P_T, so it is one iff no edge joins
    two vertices that burn at the same step; `burning_map` is the certified
    map.  The listing sets the flag step by step; a record built with four
    fields takes it from the edges.
    """

    __slots__ = ()
    graph: Graph
    sources: tuple[int, ...]
    times: tuple[int, ...]
    end_time: int
    is_homomorphism: bool

    def __new__(cls, graph: Graph, sources: tuple[int, ...], times: tuple[int, ...],
                end_time: int, is_homomorphism: bool | None = None) -> Burning:
        if is_homomorphism is None:
            if len(times) != graph.vertex_count:
                raise InvariantError(f"{len(times)} times for {graph.vertex_count} vertices")
            is_homomorphism = _homomorphic(graph, times)
        return tuple.__new__(cls, (graph, sources, times, end_time, is_homomorphism))

    def time(self, v: int) -> int:
        return self.times[v]

    def source_set(self) -> frozenset[int]:
        return frozenset(self.sources)

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
        if self.is_homomorphism != _homomorphic(self.graph, self.times):
            raise InvariantError(f"is_homomorphism={self.is_homomorphism} disagrees with "
                                 f"the edges")

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
    no burning sequence is a proper prefix of another).  The homomorphism
    flag rides down the path: a step's class is (N[S] - S) | {v}, so the
    step stays clean iff N[S] - S is independent and N[v] misses it, and a
    leaf's last class N[S'] - S' has no source.  Independence is memoised
    per mask and tested only while the flag holds.  It follows the states
    the search meets, so `iter_burnings` bounds it with the search's state
    budget and count before it starts.
    """
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    memo: dict[int, list[tuple[int, int, int, tuple[int, ...]]]] = {}
    independent: dict[int, bool] = {}
    times = [0] * g.vertex_count
    prefix: list[int] = []

    def clean(m: int) -> bool:
        """Whether no edge joins two vertices of the bitmask m."""
        found = independent.get(m)
        if found is None:
            found = independent[m] = all([nbhd[w] & m == 1 << w for w in _vertices(m)])
        return found

    def walk(s: int, ns: int, hom: bool) -> Iterator[Burning]:
        step = len(prefix) + 1
        now = ns & ~s  # the class of this step, less its source
        hom = hom and clean(now)
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
            ok = hom and not nbhd[v] & now
            if near != whole:
                yield from walk(child, near, ok)
            else:  # the fields are right by construction; the last class has no source
                yield tuple.__new__(Burning, (g, tuple(prefix), tuple(times),
                                              step + 1 if ones else step,
                                              ok and clean(near & ~child)))
            prefix.pop()

    return walk(0, 0, True)


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
