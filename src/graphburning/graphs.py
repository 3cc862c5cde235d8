"""Finite simple undirected graphs and the constructions the burning theory uses.

Vertices are the contiguous integers 0..vertex_count-1.  Edges are stored as a
frozenset of sorted pairs, so graphs are hashable and safe to share.  Like
every record of the package, a graph is an immutable named tuple: its fields
compare, hash, pickle and print as a tuple's do.
`classify` is the one traversal; the burned region is modelled once, on
bitmasks, by `burning._expand`.  The literal model of the paper (distances,
balls N_r[v], their induced unions) lives only in the test oracle
`tests/filtration.py`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph data or an operation applied to an unsuitable graph."""


def _normalize_edge(v: int, w: int) -> Edge:
    if v == w:
        raise GraphError(f"self-loop at vertex {v}")
    return (v, w) if v < w else (w, v)


class Graph(namedtuple("Graph", "vertex_count edges")):
    """A finite simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ()
    vertex_count: int
    edges: frozenset[Edge]

    def __new__(cls, vertex_count: int, edges: Iterable[Edge] = frozenset()) -> "Graph":
        edges = frozenset(edges)
        if vertex_count < 1:
            raise GraphError("graph needs at least one vertex")
        for v, w in edges:
            if not (0 <= v < w < vertex_count):
                raise GraphError(f"bad edge ({v}, {w}) for {vertex_count} vertices")
        return tuple.__new__(cls, (vertex_count, edges))

    @staticmethod
    def from_edges(vertex_count: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return Graph(vertex_count, frozenset(_normalize_edge(v, w) for v, w in edges))

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def has_edge(self, v: int, w: int) -> bool:
        return v != w and _normalize_edge(v, w) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _adjacency(self)[v]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


# Bounded so a long-running process does not pin every graph it has seen.
@lru_cache(maxsize=8)
def _adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in g.vertices]
    for v, w in g.edges:
        adj[v].append(w)
        adj[w].append(v)
    return tuple(tuple(sorted(a)) for a in adj)


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (bit v set iff v is in the set), in order."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


class Subgraph(namedtuple("Subgraph", "ambient vertices edges")):
    """A subgraph of an ambient graph: explicit vertex set and edge subset."""

    __slots__ = ()
    ambient: Graph
    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __new__(cls, ambient: Graph, vertices: Iterable[int],
                edges: Iterable[Edge]) -> "Subgraph":
        vertices, edges = tuple(vertices), frozenset(edges)
        vs = set(vertices)
        if list(vertices) != sorted(vs):
            raise GraphError("subgraph vertices must be sorted and duplicate-free")
        if not vs:
            raise GraphError("subgraph needs at least one vertex")
        for e in edges:
            if e not in ambient.edges:
                raise GraphError(f"edge {e} not in the ambient graph")
            if e[0] not in vs or e[1] not in vs:
                raise GraphError(f"edge {e} leaves the subgraph vertex set")
        return tuple.__new__(cls, (ambient, vertices, edges))

    def is_induced(self) -> bool:
        vs = set(self.vertices)
        return all(e in self.edges for e in self.ambient.edges
                   if e[0] in vs and e[1] in vs)

    def contains(self, other: "Subgraph") -> bool:
        """Subgraph inclusion within the same ambient graph."""
        return (self.ambient == other.ambient
                and set(other.vertices) <= set(self.vertices)
                and other.edges <= self.edges)

    def as_graph(self) -> tuple[Graph, tuple[int, ...]]:
        """Extract a standalone graph; returns (graph, local->ambient labels)."""
        index = {v: i for i, v in enumerate(self.vertices)}
        edges = frozenset((index[v], index[w]) for v, w in self.edges)
        return Graph(len(self.vertices), edges), self.vertices


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Subgraph:
    vs = tuple(sorted(set(vertices)))
    for v in vs:
        if not 0 <= v < g.vertex_count:
            raise GraphError(f"vertex {v} out of range")
    inside = set(vs)
    edges = frozenset(e for e in g.edges if e[0] in inside and e[1] in inside)
    return Subgraph(g, vs, edges)


def whole_graph(g: Graph) -> Subgraph:
    return Subgraph(g, tuple(g.vertices), g.edges)


# ---------------------------------------------------------------------------
# Named families


# Every burning map targets a path of its end time; graphs are immutable, so
# the few end times in use can share one Graph each.
@lru_cache(maxsize=16)
def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path graph needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def edgeless_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("edgeless graph needs n >= 1")
    return Graph(n)


def complete_bipartite_graph(n: int, m: int) -> Graph:
    if n < 1 or m < 1:
        raise GraphError("complete bipartite graph needs n, m >= 1")
    return Graph.from_edges(n + m, [(i, n + j) for i in range(n) for j in range(m)])


# The 3-cube with the fixed labeling used throughout the tests: vertices 0..7,
# two horizontal squares 0-1-3-2 and 4-5-7-6 joined by the vertical edges i, i+4.
_CUBE_EDGES = [
    (0, 1), (2, 3), (0, 2), (1, 3),
    (4, 5), (6, 7), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]


def cube_graph() -> Graph:
    return Graph.from_edges(8, _CUBE_EDGES)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of h are re-indexed after those of g."""
    shift = g.vertex_count
    edges = set(g.edges)
    edges.update((v + shift, w + shift) for v, w in h.edges)
    return Graph.from_edges(g.vertex_count + h.vertex_count, edges)


def iterated_sum(n: int, g: Graph) -> Graph:
    if n < 1:
        raise GraphError("iterated sum needs n >= 1")
    out = g
    for _ in range(n - 1):
        out = disjoint_union(out, g)
    return out


# Each family's builder with its parameter names, which a refusal spells out.
_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "edgeless": (edgeless_graph, ("n",)),
    "complete_bipartite": (complete_bipartite_graph, ("n", "m")),
    "bipartite": (complete_bipartite_graph, ("n", "m")),
    "cube": (cube_graph, ()),
}


def build_named(family: str, *params: int) -> Graph:
    """Build a canonical member of a named family, e.g. build_named("path", 5).

    The wrong number of parameters raises `GraphError` naming the family's
    builder expression, e.g. `bipartite:<n>,<m>`.
    """
    if family == "iterated_sum":
        raise GraphError("use iterated_sum(k, g) directly")
    try:
        builder, names = _FAMILIES[family]
    except KeyError:
        raise GraphError(f"unknown graph family {family!r}") from None
    if len(params) != len(names):
        form = f"{family}:" + ",".join(f"<{name}>" for name in names) if names else family
        raise GraphError(f"bad parameters for {family!r}: expected {form}, "
                         f"got {len(params)} parameter{'s' * (len(params) != 1)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# Structure


def complement(g: Graph) -> Graph:
    edges = frozenset(e for e in combinations(range(g.vertex_count), 2)
                      if e not in g.edges)
    return Graph(g.vertex_count, edges)


class StructureReport(namedtuple("StructureReport", "connected tree bipartite components")):
    __slots__ = ()
    connected: bool
    tree: bool
    bipartite: bool
    components: tuple[tuple[int, ...], ...]


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    return classify(g).components


def classify(g: Graph) -> StructureReport:
    """Components and a 2-colouring from one BFS per component.

    Components are sorted and ordered by their least vertex.
    """
    adj = _adjacency(g)
    color: dict[int, int] = {}
    bipartite = True
    comps = []
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        comp = [start]  # also the BFS queue: the loop reads what it appends
        for v in comp:
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    comp.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        comps.append(tuple(sorted(comp)))
    connected = len(comps) == 1
    tree = connected and len(g.edges) == g.vertex_count - 1
    return StructureReport(connected, tree, bipartite, tuple(comps))


# ---------------------------------------------------------------------------
# Graph maps


class GraphMapError(ValueError):
    """A vertex function that is not a graph map; carries the offending edge."""

    def __init__(self, message: str, edge: Edge | None = None):
        super().__init__(message)
        self.edge = edge


class GraphMap(namedtuple("GraphMap", "domain codomain vertex_fn is_homomorphism")):
    """A graph map: every edge maps to an edge or collapses to a vertex."""

    __slots__ = ()
    domain: Graph
    codomain: Graph
    vertex_fn: tuple[int, ...]
    is_homomorphism: bool

    def __call__(self, v: int) -> int:
        return self.vertex_fn[v]

    def is_injective(self) -> bool:
        return len(set(self.vertex_fn)) == self.domain.vertex_count


def validate_graph_map(vertex_fn: Sequence[int], g: Graph, h: Graph) -> GraphMap:
    """Check the graph-map condition edge by edge and certify the result."""
    fn = tuple(vertex_fn)
    if len(fn) != g.vertex_count:
        raise GraphMapError("vertex function must be total on the domain")
    for image in fn:
        if not 0 <= image < h.vertex_count:
            raise GraphMapError(f"image vertex {image} out of range")
    target = h.edges
    collapsed = False
    broken = []
    for e in g.edges:
        fv, fw = fn[e[0]], fn[e[1]]
        if fv < fw:
            if (fv, fw) not in target:
                broken.append(e)
        elif fw < fv:
            if (fw, fv) not in target:
                broken.append(e)
        else:
            collapsed = True
    if broken:
        v, w = min(broken)  # the least, so the error does not hang on set order
        raise GraphMapError(
            f"edge ({v}, {w}) maps to non-adjacent pair ({fn[v]}, {fn[w]})",
            edge=(v, w))
    return GraphMap(g, h, fn, not collapsed)


def identity_map(g: Graph) -> GraphMap:
    return validate_graph_map(tuple(g.vertices), g, g)


def compose_graph_maps(second: GraphMap, first: GraphMap) -> GraphMap:
    if first.codomain != second.domain:
        raise GraphMapError("graph maps do not compose")
    fn = tuple(second.vertex_fn[first.vertex_fn[v]] for v in first.domain.vertices)
    return validate_graph_map(fn, first.domain, second.codomain)


# ---------------------------------------------------------------------------
# Text format: optional "n <count>" first line, then "u v" edge lines.


def parse_graph_text(text: str) -> Graph:
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if vertex_count is not None or edges:
                raise GraphError(f"line {lineno}: stray vertex-count line")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise GraphError(f"line {lineno}: expected 'n <count>'")
            vertex_count = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            v, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex") from None
        if v < 0 or w < 0:
            raise GraphError(f"line {lineno}: negative vertex index")
        edges.append((v, w))
        max_index = max(max_index, v, w)
    if vertex_count is None:
        vertex_count = max_index + 1 if max_index >= 0 else 1
    if max_index >= vertex_count:
        raise GraphError(f"edge index {max_index} exceeds vertex count {vertex_count}")
    return Graph.from_edges(vertex_count, edges)


def format_graph_text(g: Graph) -> str:
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"{v} {w}" for v, w in g.sorted_edges())
    return "\n".join(lines) + "\n"
