"""Chain complexes of simplicial complexes and exact homology over Z and fields.

Simplexes are stored with ascending vertices; the boundary of [u_0 < ... < u_q]
is the alternating sum of its codimension-1 faces, sign (-1)^i for deleting
u_i.  Homology over Z, Q and F_p all comes from one integer Smith normal form
per boundary: by universal coefficients a boundary's rank over Q is the length
of its Smith diagonal and over F_p the number of entries p does not divide.
Field elimination serves only induced maps and `matrix_rank_over`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import SimplicialComplex, SimplicialMap, faces
from .exactlinalg import (
    FieldOps,
    InvariantError,
    Matrix,
    field_rank,
    mat_mul,
    nullspace,
    smith_normal_form,
    solve_in_span,
    zeros,
)


@dataclass(frozen=True)
class ChainComplexZ:
    """Integer chain complex; boundaries[q] maps degree q to degree q-1.

    When augmented, degree -1 has rank 1 and the degree-0 boundary is the
    all-ones augmentation row.
    """

    dims: tuple[int, ...]
    boundaries: tuple[tuple[tuple[int, ...], ...], ...]
    augmented: bool

    def dim(self, q: int) -> int:
        return self.dims[q] if 0 <= q < len(self.dims) else 0

    def boundary(self, q: int) -> Matrix:
        """The matrix of the boundary out of degree q (rows: degree q-1)."""
        if 0 <= q < len(self.boundaries):
            return [list(row) for row in self.boundaries[q]]
        return zeros(self.dim(q - 1), self.dim(q))


def boundary_of(simplex: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Codimension-1 faces of an ascending simplex with their signs."""
    out = []
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1:]
        out.append((face, -1 if i % 2 else 1))
    return out


def chain_complex(c: SimplicialComplex, augmented: bool = False) -> ChainComplexZ:
    """Build the boundary matrices on the canonical lexicographic face bases."""
    top = c.dimension
    bases = [faces(c, q) for q in range(top + 1)]
    dims = tuple(len(b) for b in bases)
    boundaries: list[Matrix] = []
    if augmented:
        boundaries.append([[1] * dims[0]])
    else:
        boundaries.append(zeros(0, dims[0]))
    for q in range(1, top + 1):
        index = {s: i for i, s in enumerate(bases[q - 1])}
        matrix = zeros(dims[q - 1], dims[q])
        for j, simplex in enumerate(bases[q]):
            for face, sign in boundary_of(simplex):
                matrix[index[face]][j] = sign
        boundaries.append(matrix)
    cc = ChainComplexZ(
        dims,
        tuple(tuple(tuple(row) for row in m) for m in boundaries),
        augmented)
    _assert_square_zero(cc)
    return cc


def _assert_square_zero(cc: ChainComplexZ) -> None:
    for q in range(1, len(cc.dims)):
        lower, upper = cc.boundary(q - 1), cc.boundary(q)
        if not lower or not upper or not upper[0]:
            continue
        product = mat_mul(lower, upper)
        if any(any(row) for row in product):
            raise InvariantError(f"boundary squared is nonzero out of degree {q}")


@dataclass(frozen=True)
class HomologyGroup:
    """Free rank (Betti number) plus torsion coefficients in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0 or any(t <= 1 for t in self.torsion):
            raise InvariantError(f"bad homology group {self.free_rank}, {self.torsion}")
        if any(b % a for a, b in zip(self.torsion, self.torsion[1:])):
            raise InvariantError(f"torsion {self.torsion} not in divisibility order")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _parse_coeff(coeff: str) -> FieldOps | None:
    """None means integer coefficients; otherwise a field."""
    if coeff == "z":
        return None
    if coeff == "q":
        return FieldOps(None)
    if coeff.startswith("p:"):
        return FieldOps(int(coeff[2:]))
    raise ValueError(f"unknown coefficient spec {coeff!r}; use z, q, or p:<prime>")


def homology(c: SimplicialComplex, reduced: bool = False,
             coeff: str = "z") -> list[HomologyGroup]:
    """Homology groups per degree 0..dim c.

    The free rank in degree q is (#q-faces) - rank(d_q) - rank(d_{q+1}), read
    off one Smith diagonal per boundary: over Z or Q the rank is the diagonal
    length, over F_p the count of entries p does not divide.  Over Z the
    torsion is the part of SNF(d_{q+1}) above 1; over a field it is empty.
    """
    field = _parse_coeff(coeff)
    p = field.p if field else None
    cc = chain_complex(c, augmented=reduced)
    top = len(cc.dims) - 1
    diagonals = [smith_normal_form(cc.boundary(q)).diagonal for q in range(top + 2)]
    ranks = [sum(1 for d in diagonal if not p or d % p) for diagonal in diagonals]
    return [HomologyGroup(
        cc.dim(q) - ranks[q] - ranks[q + 1],
        () if field else tuple(d for d in diagonals[q + 1] if d > 1))
        for q in range(top + 1)]


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** q * len(faces(c, q)) for q in range(c.dimension + 1))


def homology_to_record(groups: Sequence[HomologyGroup], coeff: str = "z") -> list[dict]:
    records = []
    for q, g in enumerate(groups):
        entry: dict = {"degree": q, "free_rank": g.free_rank,
                       "torsion": list(g.torsion)}
        if coeff == "q":
            entry["field"] = "Q"
        elif coeff.startswith("p:"):
            entry["field"] = "Fp"
            entry["p"] = int(coeff[2:])
        records.append(entry)
    return records


# ---------------------------------------------------------------------------
# Induced maps on homology with field coefficients


def chain_map_matrix(f: SimplicialMap, q: int) -> Matrix:
    """Degree-q chain map: image with orientation sign, 0 on collapsed simplexes."""
    source = faces(f.domain, q) if q <= f.domain.dimension else ()
    target = faces(f.codomain, q) if q <= f.codomain.dimension else ()
    index = {s: i for i, s in enumerate(target)}
    matrix = zeros(len(target), len(source))
    for j, simplex in enumerate(source):
        images = [f(v) for v in simplex]
        if len(set(images)) < len(images):
            continue
        sign = _permutation_sign(images)
        matrix[index[tuple(sorted(images))]][j] = sign
    return matrix


def _permutation_sign(values: Sequence[int]) -> int:
    sign = 1
    items = list(values)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def induced_map(f: SimplicialMap, degree: int, coeff: str = "q") -> Matrix:
    """The induced matrix between homology bases in the given degree.

    Field coefficients only; integer (torsion) coefficients are rejected.
    """
    field = _parse_coeff(coeff)
    if field is None:
        raise ValueError("induced maps support field coefficients only (q or p:<prime>)")
    # The chain map must commute with the boundaries.
    src_cc = chain_complex(f.domain)
    dst_cc = chain_complex(f.codomain)
    for q in (degree, degree + 1):
        if q < 1:
            continue
        upper = chain_map_matrix(f, q)
        lower = chain_map_matrix(f, q - 1)
        d_src = src_cc.boundary(q)
        d_dst = dst_cc.boundary(q)
        if d_src and d_src[0] and lower and d_dst and upper and upper[0]:
            if mat_mul(lower, d_src) != mat_mul(d_dst, upper):
                raise InvariantError("chain map does not commute with boundaries")
    src_basis = _HomologyBasis(f.domain, degree, field)
    dst_basis = _HomologyBasis(f.codomain, degree, field)
    cm = chain_map_matrix(f, degree)
    out = []
    for cycle in src_basis.representatives:
        image = [sum(cm[i][j] * cycle[j] for j in range(len(cycle)))
                 for i in range(len(cm))] if cm else []
        coords = dst_basis.coordinates(image, field)
        out.append(coords)
    # Transpose: rows indexed by target basis, columns by source basis.
    rows = len(dst_basis.representatives)
    matrix = [[out[j][i] for j in range(len(out))] for i in range(rows)]
    return matrix


def matrix_rank_over(matrix: Matrix, coeff: str = "q") -> int:
    field = _parse_coeff(coeff)
    if field is None:
        raise ValueError("field coefficients only")
    return field_rank(matrix, field)


class _HomologyBasis:
    """Cycle representatives spanning homology, with a coordinate solver."""

    def __init__(self, c: SimplicialComplex, degree: int, field: FieldOps):
        cc = chain_complex(c)
        d_q = cc.boundary(degree)
        d_next = cc.boundary(degree + 1)
        n = cc.dim(degree)
        if n == 0:
            self.boundaries: list[list] = []
            self.representatives: list[list] = []
            return
        if d_q and d_q[0]:
            cycles = nullspace(d_q, field)
        else:
            cycles = [[field.convert(1 if i == j else 0) for i in range(n)]
                      for j in range(n)]
        boundaries = []
        if d_next and d_next[0]:
            cols = len(d_next[0])
            for j in range(cols):
                boundaries.append([field.convert(d_next[i][j]) for i in range(n)])
        # Keep the boundary columns that are independent, then extend by cycles.
        chosen: list[list] = []
        for vec in boundaries:
            if solve_in_span(chosen, vec, field) is None:
                chosen.append(vec)
        self.boundaries = chosen
        self.representatives = []
        span = list(chosen)
        for vec in cycles:
            if solve_in_span(span, vec, field) is None:
                span.append(vec)
                self.representatives.append(vec)

    def coordinates(self, vector: Sequence, field: FieldOps) -> list:
        """Homology-class coordinates of a cycle in this basis."""
        vec = [field.convert(x) if isinstance(x, int) else x for x in vector]
        if not self.representatives:
            return []
        coords = solve_in_span(self.boundaries + self.representatives, vec, field)
        if coords is None:
            raise InvariantError("vector is not a cycle in the stored space")
        k = len(self.boundaries)
        return coords[k:]
