"""Finite abstract simplicial complexes stored by their facets.

A complex is a vertex count plus the antichain of inclusion-maximal simplexes;
all lower faces are derived on demand.  Generators are absorbed into facets as
vertex bitmasks.  The burning configuration space of a graph is the complex
generated by the source sets of all its burnings, which the memoised burning
search yields without building any ordered burning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, groupby
from operator import or_
from typing import Iterable, Sequence

from .burning import source_sets
from .graphs import Graph

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Invalid simplicial complex data."""


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    facets: frozenset[Simplex]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ComplexError("complex needs at least one vertex")
        masks: list[int] = []
        for f in self.facets:
            if not f:
                raise ComplexError("empty facet")
            if list(f) != sorted(set(f)):
                raise ComplexError(f"facet {f} not sorted and duplicate-free")
            if f[0] < 0 or f[-1] >= self.vertex_count:
                raise ComplexError(f"facet {f} has out-of-range vertices")
            masks.append(sum(1 << v for v in f))
        if reduce(or_, masks, 0) != (1 << self.vertex_count) - 1:
            raise ComplexError("every vertex must lie in some facet")
        # Distinct facets, so one can only lie inside a strictly larger one.
        larger: list[int] = []
        for _, group in groupby(sorted(masks, key=int.bit_count, reverse=True),
                                key=int.bit_count):
            same_size = list(group)
            if any(a & b == a for a in same_size for b in larger):
                raise ComplexError("facets must form an antichain")
            larger += same_size

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def has_face(self, simplex: Sequence[int]) -> bool:
        s = set(simplex)
        return any(s <= set(f) for f in self.facets)

    def to_record(self) -> dict:
        return {"vertex_count": self.vertex_count,
                "facets": sorted(list(f) for f in self.facets)}


def from_generators(vertex_count: int, simplexes: Iterable[Sequence[int]]) -> SimplicialComplex:
    """The complex generated by arbitrary simplexes; non-maximal ones are absorbed.

    Each generator becomes a vertex bitmask.  Taken largest first, a mask is
    kept unless a kept one contains it, so the kept masks are the facets.
    """
    masks: set[int] = set()
    for s in simplexes:
        mask = 0
        for v in s:
            if not 0 <= v < vertex_count:
                raise ComplexError(f"generator vertex {v} out of range")
            mask |= 1 << v
        masks.add(mask)
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if mask & k == mask:
                break
        else:
            kept.append(mask)
    return SimplicialComplex(vertex_count, frozenset(
        tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
        for mask in kept))


def configuration_space(g: Graph) -> SimplicialComplex:
    """The complex on the graph's vertices generated by all burning source sets."""
    return from_generators(g.vertex_count, source_sets(g))


# Bounded to hold every degree of the last few complexes: the chain complex
# asks for each degree once, with and without the augmentation.
@lru_cache(maxsize=32)
def faces(c: SimplicialComplex, q: int) -> tuple[Simplex, ...]:
    """All q-dimensional faces in lexicographic order."""
    if q < 0:
        raise ComplexError("dimension must be >= 0")
    out: set[Simplex] = set()
    for f in c.facets:
        if len(f) >= q + 1:
            out.update(combinations(f, q + 1))
    return tuple(sorted(out))


def skeleton(c: SimplicialComplex, n: int) -> SimplicialComplex:
    """The subcomplex of faces of dimension at most n."""
    if n < 0:
        raise ComplexError("dimension must be >= 0")
    generators: set[Simplex] = set()
    for f in c.facets:
        if len(f) <= n + 1:
            generators.add(f)
        else:
            generators.update(combinations(f, n + 1))
    return SimplicialComplex(c.vertex_count, frozenset(generators))


def one_skeleton_graph(c: SimplicialComplex) -> Graph:
    """The 1-skeleton read as a graph on the same vertices."""
    return Graph(c.vertex_count, frozenset(faces(c, 1)))


def graph_as_complex(g: Graph) -> SimplicialComplex:
    """A graph viewed as a one-dimensional complex (isolated vertices allowed)."""
    return from_generators(
        g.vertex_count, list(g.edges) + [(v,) for v in g.vertices])


def cone(c: SimplicialComplex) -> SimplicialComplex:
    """Add an apex vertex joined to every simplex; apex index = old vertex count."""
    apex = c.vertex_count
    facets = frozenset(f + (apex,) for f in c.facets)
    return SimplicialComplex(c.vertex_count + 1, facets)


def suspension(c: SimplicialComplex) -> SimplicialComplex:
    """Add two poles, each joined to every simplex."""
    south, north = c.vertex_count, c.vertex_count + 1
    facets = frozenset(f + (p,) for f in c.facets for p in (south, north))
    return SimplicialComplex(c.vertex_count + 2, facets)


# ---------------------------------------------------------------------------
# Simplicial maps


class SimplicialMapError(ValueError):
    """A vertex function whose image of some facet is not a face."""

    def __init__(self, message: str, facet: Simplex | None = None):
        super().__init__(message)
        self.facet = facet


@dataclass(frozen=True)
class SimplicialMap:
    domain: SimplicialComplex
    codomain: SimplicialComplex
    vertex_fn: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.vertex_fn[v]

    def image_simplex(self, simplex: Sequence[int]) -> Simplex:
        return tuple(sorted({self.vertex_fn[v] for v in simplex}))


def validate_simplicial_map(vertex_fn: Sequence[int], c1: SimplicialComplex,
                            c2: SimplicialComplex) -> SimplicialMap:
    """Accept iff the image of every facet (hence every face) is a face of c2."""
    fn = tuple(vertex_fn)
    if len(fn) != c1.vertex_count:
        raise SimplicialMapError("vertex function must be total on the domain")
    for image in fn:
        if not 0 <= image < c2.vertex_count:
            raise SimplicialMapError(f"image vertex {image} out of range")
    for f in sorted(c1.facets):
        image = tuple(sorted({fn[v] for v in f}))
        if not c2.has_face(image):
            raise SimplicialMapError(
                f"facet {f} maps onto {image}, which is not a face", facet=f)
    return SimplicialMap(c1, c2, fn)


def identity_simplicial_map(c: SimplicialComplex) -> SimplicialMap:
    return validate_simplicial_map(tuple(range(c.vertex_count)), c, c)


def compose_simplicial_maps(second: SimplicialMap, first: SimplicialMap) -> SimplicialMap:
    if first.codomain != second.domain:
        raise SimplicialMapError("simplicial maps do not compose")
    fn = tuple(second.vertex_fn[first.vertex_fn[v]]
               for v in range(first.domain.vertex_count))
    return validate_simplicial_map(fn, first.domain, second.codomain)
