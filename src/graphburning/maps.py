"""Simplicial maps and the maps they induce on homology over fields.

A simplicial map is a vertex function under which the image of every facet
is a face.  Its chain map in degree q sends a q-face to its image with the
sign of the permutation that sorts the image, and to 0 when the face
collapses.  The induced map on homology over Q or F_p reads the cycles of
the whole complex, with no strong core or coreduction, from a sparse field
echelon (`FieldEchelon`: Fraction entries for the rationals, ints mod p for
prime fields), which also gives `matrix_rank_over`.  No pipeline command
runs this code, so the package loads it on first use.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from itertools import combinations
from typing import Sequence

from .complexes import ComplexError, Simplex, SimplicialComplex
from .exactlinalg import InvariantError, Vector, apply_columns
from .graphs import _vertices
from .homology import ChainComplexZ, chain_complex, parse_coeff


# ---------------------------------------------------------------------------
# Simplicial maps


class SimplicialMapError(ValueError):
    """A vertex function whose image of some facet is not a face."""

    def __init__(self, message: str, facet: Simplex | None = None):
        super().__init__(message)
        self.facet = facet


class SimplicialMap(namedtuple("SimplicialMap", "domain codomain vertex_fn")):
    __slots__ = ()
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


# ---------------------------------------------------------------------------
# Sparse field echelon


class FieldEchelon:
    """A sparse row echelon basis over Q (p = 0) or the prime field F_p.

    Entries are Fractions over Q and ints in 0..p-1 over F_p.  Each row has a
    distinct pivot, its least index, scaled to 1.  Every inserted vector
    carries a tag, and each row carries the combination of tags that matches
    its combination of inserted vectors.  Tagging column j of a matrix with
    e_j makes the relation returned for a dependent column a kernel vector;
    tagging boundaries with 0 and the k-th independent cycle with e_k makes
    the combination `reduce` returns for a cycle its homology coordinates.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.rows: dict[int, tuple[dict, dict]] = {}
        if not p:  # imported on demand: only rational entries need it
            from fractions import Fraction
            self.fraction = Fraction

    def _convert(self, vector: Mapping, factor=1) -> dict:
        p = self.p
        entries = ((k, x * factor % p if p else self.fraction(x * factor))
                   for k, x in vector.items())
        return {k: x for k, x in entries if x}

    def _add_multiple(self, target: dict, factor, source: Mapping) -> None:
        """target += factor * source, in place, dropping zeros."""
        p = self.p
        for k, x in source.items():
            y = target.get(k, 0) + factor * x
            if p:
                y %= p
            if y:
                target[k] = y
            else:
                del target[k]

    def reduce(self, vector: Mapping) -> tuple[dict, dict]:
        """Subtract rows until the least index left is no pivot.

        Returns the remainder, empty iff the vector lies in the span, and the
        combination of row tags matching the rows subtracted.
        """
        v, combination = self._convert(vector), {}
        while v:
            k = min(v)
            if k not in self.rows:
                break
            row, tag = self.rows[k]
            f = v[k]
            self._add_multiple(v, -f, row)
            self._add_multiple(combination, f, tag)
        return v, combination

    def insert(self, vector: Mapping, tag: Mapping) -> dict | None:
        """Add the vector as a row and return None, if it is independent.

        Otherwise add nothing and return the tag of the relation found: the
        vector's tag less the tags of the rows that reduced it to zero.
        """
        v, combination = self.reduce(vector)
        t = self._convert(tag)
        self._add_multiple(t, -1, combination)
        if not v:
            return t
        k = min(v)
        inverse = pow(v[k], -1, self.p) if self.p else 1 / v[k]
        self.rows[k] = (self._convert(v, inverse), self._convert(t, inverse))
        return None


# ---------------------------------------------------------------------------
# Induced maps on homology with field coefficients


def chain_map_matrix(f: SimplicialMap, q: int) -> list[Vector]:
    """Degree-q chain map as sparse columns: image with orientation sign, 0 on
    collapsed simplexes."""
    if q < 0:
        raise ComplexError("dimension must be >= 0")
    source, target = (c.lattice[q] if q < len(c.lattice) else ()
                      for c in (f.domain, f.codomain))
    index = {m: i for i, m in enumerate(target)}
    columns: list[Vector] = []
    for m in source:
        images = [f(v) for v in _vertices(m)]
        image = sum(1 << v for v in set(images))
        # The sign of the permutation that sorts the images: -1 per inversion.
        columns.append({index[image]: (-1) ** sum(a > b for a, b in combinations(images, 2))}
                       if image.bit_count() == len(images) else {})
    return columns


def induced_map(f: SimplicialMap, degree: int, coeff: str = "q") -> list[list]:
    """The induced matrix between homology bases in the given degree.

    Field coefficients only; integer (torsion) coefficients are rejected.
    """
    p = parse_coeff(coeff)
    if p is None:
        raise ValueError("induced maps support field coefficients only (q or p:<prime>)")
    src_cc = chain_complex(f.domain)
    dst_cc = chain_complex(f.codomain)
    # Each chain map once, degree - 1 (none below 0) to degree + 1; a negative degree raises.
    maps = {q: chain_map_matrix(f, q) for q in range(degree - 1 if degree else 0, degree + 2)}
    # The chain map must commute with the boundaries.
    for q in (degree, degree + 1):
        if q < 1:
            continue
        d_dst = dst_cc.boundary(q)
        if any(apply_columns(maps[q - 1], column) != apply_columns(d_dst, maps[q][j])
               for j, column in enumerate(src_cc.boundary(q))):
            raise InvariantError("chain map does not commute with boundaries")
    _, cycles = _homology_basis(src_cc, degree, p)
    span, target_cycles = _homology_basis(dst_cc, degree, p)
    if not p:  # imported on demand, as by `FieldEchelon`
        from fractions import Fraction
    # Rows indexed by the target basis, columns by the source basis.
    matrix = [[0 if p else Fraction(0)] * len(cycles) for _ in target_cycles]
    for j, cycle in enumerate(cycles):
        remainder, coords = span.reduce(apply_columns(maps[degree], cycle))
        if remainder:
            raise InvariantError("the image of a cycle is not a cycle")
        for i, x in coords.items():
            matrix[i][j] = x
    return matrix


def matrix_rank_over(matrix: Sequence[Sequence], coeff: str = "q") -> int:
    p = parse_coeff(coeff)
    if p is None:
        raise ValueError("field coefficients only")
    echelon = FieldEchelon(p)
    for row in matrix:
        echelon.insert(dict(enumerate(row)), {})
    return len(echelon.rows)


def _homology_basis(cc: ChainComplexZ, degree: int,
                    p: int) -> tuple[FieldEchelon, list[dict]]:
    """Cycles whose classes are a basis of homology over Q or F_p, and an
    echelon of the boundaries and those cycles; its `reduce` gives a cycle's
    coordinates in that basis."""
    kernel = FieldEchelon(p)
    cycles = [relation for j, column in enumerate(cc.boundary(degree))
              if (relation := kernel.insert(column, {j: 1})) is not None]
    span = FieldEchelon(p)
    for column in cc.boundary(degree + 1):
        span.insert(column, {})
    representatives: list[dict] = []
    for cycle in cycles:
        if span.insert(cycle, {len(representatives): 1}) is None:
            representatives.append(cycle)
    return span, representatives
