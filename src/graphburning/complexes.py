"""Finite abstract simplicial complexes stored by their facets.

A complex is a vertex count plus the antichain of inclusion-maximal simplexes
as vertex bitmasks (bit v set iff v is in the facet); `facets` views them as
ascending tuples, and its face lattice (`lattice`), built once, holds every
face as a mask.  The constructor keeps the maximal masks it is given
(`_maximal`), so a complex is the one its masks generate; `configuration_space`
and each vertex deletion of the strong core (`_strong_core`) absorb through it.
The burning configuration space of a graph is the complex generated by the
source sets of all its burnings, the masks of the memoised burning search.
Simplicial maps live in `maps`, and `is_burning_extension`, which compares two
configuration spaces, in `morphisms`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Sequence

from .burning import SizeGuardExceeded, _search
from .graphs import Graph, _vertices

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Invalid simplicial complex data."""


class SimplicialComplex(namedtuple("SimplicialComplex", "vertex_count masks")):
    # No __slots__: the instance dict holds the cached facets and lattice.
    vertex_count: int
    masks: frozenset[int]

    def __new__(cls, vertex_count: int, masks: Iterable[int]) -> "SimplicialComplex":
        if vertex_count < 1:
            raise ComplexError("complex needs at least one vertex")
        masks = frozenset(_maximal(masks))  # the facets, an antichain by construction
        # Out-of-range bits and uncovered vertices both break this equality.
        if reduce(or_, masks, 0) != (1 << vertex_count) - 1:
            raise ComplexError(f"facets must cover exactly 0..{vertex_count - 1}")
        return tuple.__new__(cls, (vertex_count, masks))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable complex")

    @cached_property
    def facets(self) -> frozenset[Simplex]:
        """The facets as ascending vertex tuples."""
        return frozenset(_vertices(m) for m in self.masks)

    @cached_property
    def lattice(self) -> tuple[tuple[int, ...], ...]:
        """Every face as a mask; lattice[q] holds the q-faces in lexicographic order."""
        return _face_lattice(self.masks)

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


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks, largest first (a repeated one repeats).  Masks
    of one size cannot contain each other, so each meets only larger kept ones."""
    larger: list[int] = []
    same: list[int] = []
    size = -1
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if mask.bit_count() != size:
            size = mask.bit_count()
            larger += same
            same = []
        for k in larger:
            if mask & k == mask:
                break
        else:
            same.append(mask)
    return larger + same


# The face lattice gives up past this many faces rather than run for minutes:
# the boundary of the 16-simplex (131,070 faces) takes 0.4 s and each further
# vertex doubles it.  It admits conf(C25)'s strong core (142,330 faces), conf(P25)
# (196,417) and conf(11xP2) (177,146), which the burning search admits too.
_LATTICE_FACES = 250_000


def _face_lattice(masks: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Every face of the complex with these facets, one tuple per dimension in
    lexicographic order, built from the top down: a level is the level above
    with one vertex cleared from each face, plus the facets of that size.
    Past `_LATTICE_FACES` faces, counted after each level, it gives up."""
    levels, level, built = [], set(), 0
    for size in range(max(map(int.bit_count, masks)), 0, -1):
        level = {m ^ 1 << v for m in level for v in _vertices(m)}.union(
            m for m in masks if m.bit_count() == size)
        built += len(level)
        if built > _LATTICE_FACES:
            raise SizeGuardExceeded(f"the face lattice passed {_LATTICE_FACES:,} faces "
                                    f"on a complex with {len(masks):,} facets")
        # Of two faces of one size, the lexicographically first holds the least
        # vertex they do not share: its binary digits read from bit 0 compare larger.
        levels.append(tuple(sorted(level, key=lambda m: bin(m)[:1:-1], reverse=True)))
    return tuple(reversed(levels))


def from_generators(vertex_count: int, simplexes: Iterable[Sequence[int]]) -> SimplicialComplex:
    """The complex generated by arbitrary simplexes; the constructor absorbs faces."""
    masks: set[int] = set()
    for s in simplexes:
        mask = 0
        for v in s:
            if not 0 <= v < vertex_count:
                raise ComplexError(f"generator vertex {v} out of range")
            mask |= 1 << v
        masks.add(mask)
    return SimplicialComplex(vertex_count, masks)


def configuration_space(g: Graph) -> SimplicialComplex:
    """The complex generated by all burning source sets, the search's masks."""
    return SimplicialComplex(g.vertex_count, _search(g)[0])


def faces(c: SimplicialComplex, q: int) -> tuple[Simplex, ...]:
    """All q-dimensional faces in lexicographic order, read off the face
    lattice; asking for any level builds every face of c, once per complex."""
    if q < 0:
        raise ComplexError("dimension must be >= 0")
    return tuple(map(_vertices, c.lattice[q])) if q < len(c.lattice) else ()


def skeleton(c: SimplicialComplex, n: int) -> SimplicialComplex:
    """The subcomplex of faces of dimension at most n: the smaller facets and
    the n-faces of the lattice.  Like `faces`, it builds every face of c."""
    if n < 0:
        raise ComplexError("dimension must be >= 0")
    return SimplicialComplex(c.vertex_count, frozenset(
        m for m in c.masks if m.bit_count() <= n).union(*c.lattice[n:n + 1]))


def one_skeleton_graph(c: SimplicialComplex) -> Graph:
    """The 1-skeleton read as a graph on the same vertices."""
    return Graph(c.vertex_count, frozenset(faces(c, 1)))


def graph_as_complex(g: Graph) -> SimplicialComplex:
    """A graph viewed as a one-dimensional complex (isolated vertices allowed)."""
    return from_generators(
        g.vertex_count, list(g.edges) + [(v,) for v in g.vertices])


def join(c: SimplicialComplex, d: SimplicialComplex) -> SimplicialComplex:
    """The join c * d: each facet of c united with each of d.  d's vertices come
    after c's, as `disjoint_union` numbers H after G."""
    return SimplicialComplex(c.vertex_count + d.vertex_count, frozenset(
        m | n << c.vertex_count for m in c.masks for n in d.masks))


def _strong_core(c: SimplicialComplex) -> SimplicialComplex:
    """The complex left once no vertex is dominated, relabelled 0..m-1.

    v is dominated when every facet holding v also holds some fixed v' != v.
    The vertex dominating v stays, so no component is lost.  Each pass visits
    v in ascending order; deleting v moves the vertices above it down by one,
    and the constructor absorbs the shrunken facets.
    """
    core, deleted = c, True
    while deleted:
        deleted, v = False, 0
        while v < core.vertex_count:
            bit = 1 << v
            common = -1
            for m in core.masks:
                if m & bit:
                    common &= m
            if common == bit:
                v += 1
                continue
            low, deleted = bit - 1, True
            core = SimplicialComplex(core.vertex_count - 1,
                                     {m & low | m >> 1 & ~low for m in core.masks})
    return core
