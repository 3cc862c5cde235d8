"""Finite abstract simplicial complexes stored by their facets.

A complex is a vertex count plus the antichain of inclusion-maximal simplexes
as vertex bitmasks (bit v set iff v is in the facet), a format no other module
reads; `facets` views them as ascending tuples, and lower faces are derived on
demand.  The burning configuration space of a graph is the complex generated
by the source sets of all its burnings, which the memoised burning search
yields as masks without building any ordered burning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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
    masks: frozenset[int]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ComplexError("complex needs at least one vertex")
        if 0 in self.masks:
            raise ComplexError("empty facet")
        # Out-of-range bits and uncovered vertices both break this equality.
        if reduce(or_, self.masks, 0) != (1 << self.vertex_count) - 1:
            raise ComplexError(f"facets must cover exactly 0..{self.vertex_count - 1}")
        # Distinct facets, so one can only lie inside a strictly larger one.
        larger: list[int] = []
        for _, group in groupby(sorted(self.masks, key=int.bit_count, reverse=True),
                                key=int.bit_count):
            same_size = list(group)
            if any(a & b == a for a in same_size for b in larger):
                raise ComplexError("facets must form an antichain")
            larger += same_size

    @cached_property
    def facets(self) -> frozenset[Simplex]:
        """The facets as ascending vertex tuples."""
        return frozenset(_vertices(m) for m in self.masks)

    @property
    def dimension(self) -> int:
        return max(m.bit_count() for m in self.masks) - 1

    def has_face(self, simplex: Sequence[int]) -> bool:
        mask = 0
        for v in simplex:
            if not 0 <= v < self.vertex_count:
                return False
            mask |= 1 << v
        return any(mask & m == mask for m in self.masks)

    def to_record(self) -> dict:
        return {"vertex_count": self.vertex_count,
                "facets": sorted(list(f) for f in self.facets)}


def _vertices(mask: int) -> Simplex:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


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
    return SimplicialComplex(vertex_count, frozenset(kept))


def configuration_space(g: Graph) -> SimplicialComplex:
    """The complex on the graph's vertices generated by all burning source sets."""
    return from_generators(g.vertex_count, source_sets(g))


# Bounded to hold every degree of the last few complexes.
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
    masks: set[int] = set()
    for m in c.masks:
        if m.bit_count() <= n + 1:
            masks.add(m)
        else:
            masks.update(sum(1 << v for v in s) for s in combinations(_vertices(m), n + 1))
    return SimplicialComplex(c.vertex_count, frozenset(masks))


def one_skeleton_graph(c: SimplicialComplex) -> Graph:
    """The 1-skeleton read as a graph on the same vertices."""
    return Graph(c.vertex_count, frozenset(faces(c, 1)))


def graph_as_complex(g: Graph) -> SimplicialComplex:
    """A graph viewed as a one-dimensional complex (isolated vertices allowed)."""
    return from_generators(
        g.vertex_count, list(g.edges) + [(v,) for v in g.vertices])


def cone(c: SimplicialComplex) -> SimplicialComplex:
    """Add an apex vertex joined to every simplex; apex index = old vertex count."""
    apex = 1 << c.vertex_count
    return SimplicialComplex(c.vertex_count + 1, frozenset(m | apex for m in c.masks))


def suspension(c: SimplicialComplex) -> SimplicialComplex:
    """Add two poles, each joined to every simplex."""
    south, north = 1 << c.vertex_count, 2 << c.vertex_count
    return SimplicialComplex(c.vertex_count + 2, frozenset(
        m | pole for m in c.masks for pole in (south, north)))


def _strong_core(c: SimplicialComplex) -> SimplicialComplex:
    """The complex left once no vertex is dominated, relabelled 0..m-1.

    v is dominated when every facet holding v also holds some fixed v' != v.
    Deleting v shrinks only the facets that held v; none of them can fall
    inside another that held v, so each is tested against the untouched ones.
    The vertex dominating v stays, so no component is lost.
    """
    masks = list(c.masks)
    vertices = list(range(c.vertex_count))
    while True:
        survivors = []
        for v in vertices:
            bit = 1 << v
            common = -1
            for m in masks:
                if m & bit:
                    common &= m
            if common == bit:
                survivors.append(v)
                continue
            untouched = [m for m in masks if not m & bit]
            masks = untouched + [
                s for s in (m ^ bit for m in masks if m & bit)
                if not any(s & m == s for m in untouched)]
        if len(survivors) == len(vertices):
            break
        vertices = survivors
    if len(vertices) == c.vertex_count:
        return c
    return SimplicialComplex(len(vertices), frozenset(
        sum(1 << i for i, v in enumerate(vertices) if m >> v & 1) for m in masks))


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
