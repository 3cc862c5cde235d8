"""Chain complexes of simplicial complexes and exact homology over Z and fields.

The bases are the levels of the complex's face lattice, vertex bitmasks in
lexicographic order; the boundary of [u_0 < ... < u_q] clears one bit at a
time, sign (-1)^i for u_i.  Each boundary is stored once, as sparse columns
{face index: sign} on those bases, and every consumer reads that one form.
Before it builds any face, `homology()` strong-collapses the complex to its
core (`complexes._strong_core`), which keeps the homotopy type (Barmak-Minian,
Strong homotopy types, nerves and collapses, DCG 2012; on an independence
complex this is Engstrom's fold lemma).  conf(P_n) collapses to a point or to
the boundary of a cross-polytope, Kozlov's homotopy type.  The degrees the
core lost are reported as zero groups up to the input's dimension.  The core
is then shrunk by coreduction (Mrozek-Batko, Coreduction homology algorithm,
DCG 2009): each vertex still alive is taken out as a generator of H_0, and
cells that have a single remaining boundary face are removed together with
that face, which keeps the integer homology.  Homology over Z, Q and F_p all
comes from one integer Smith normal form per restricted boundary of the
surviving cells: by universal coefficients a boundary's rank over Q is the
length of its Smith diagonal and over F_p the number of entries p does not
divide.  That reduction (the strong core, its chain complex with the
boundary-squared check, the coreduction and the Smith forms) is cached per
complex, so every ring after the first, and the reduced groups, cost only the
rank read-out.  `euler_characteristic` counts the lattice levels of the
whole complex.  Induced maps, which need cycles of the whole complex, live in
`maps`, with the sparse field echelon they use.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache
from typing import Sequence

from .complexes import SimplicialComplex, _strong_core
from .exactlinalg import InvariantError, Vector, apply_columns, smith_normal_form
from .graphs import _vertices


class ChainComplexZ(namedtuple("ChainComplexZ", "dims boundaries augmented")):
    """Integer chain complex; boundaries[q] maps degree q to degree q-1.

    boundaries[q][j] is the boundary of the j-th q-face as a sparse column
    {index of a (q-1)-face: sign}.  When augmented, degree -1 has rank 1 and
    every vertex's column is {0: 1}.
    """

    __slots__ = ()
    dims: tuple[int, ...]
    boundaries: tuple[list[Vector], ...]
    augmented: bool

    def dim(self, q: int) -> int:
        return self.dims[q] if 0 <= q < len(self.dims) else 0

    def boundary(self, q: int) -> list[Vector]:
        """The sparse columns of the boundary out of degree q, not copied."""
        return self.boundaries[q] if 0 <= q < len(self.boundaries) else []


def chain_complex(c: SimplicialComplex, augmented: bool = False) -> ChainComplexZ:
    """Build the sparse boundary columns on the levels of the face lattice."""
    levels = c.lattice
    boundaries = [[{0: 1} if augmented else {} for _ in levels[0]]]
    for lower, upper in zip(levels, levels[1:]):
        index = {m: i for i, m in enumerate(lower)}
        boundaries.append([{index[m ^ 1 << v]: -1 if i % 2 else 1
                            for i, v in enumerate(_vertices(m))} for m in upper])
    cc = ChainComplexZ(tuple(map(len, levels)), tuple(boundaries), augmented)
    _assert_square_zero(cc)
    return cc


def _assert_square_zero(cc: ChainComplexZ) -> None:
    """Raise unless every boundary composes to zero, the augmentation
    epsilon = (1 ... 1) below degree 1 included whether or not cc carries it."""
    for q in range(1, len(cc.dims)):
        lower = cc.boundary(q - 1) if q > 1 else [{0: 1}] * cc.dims[0]
        if any(apply_columns(lower, column) for column in cc.boundary(q)):
            raise InvariantError(f"boundary squared is nonzero out of degree {q}")


class HomologyGroup(namedtuple("HomologyGroup", "free_rank torsion")):
    """Free rank (Betti number) plus torsion coefficients in divisibility order."""

    __slots__ = ()
    free_rank: int
    torsion: tuple[int, ...]

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()) -> "HomologyGroup":
        if free_rank < 0 or any(t <= 1 for t in torsion):
            raise InvariantError(f"bad homology group {free_rank}, {torsion}")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise InvariantError(f"torsion {torsion} not in divisibility order")
        return tuple.__new__(cls, (free_rank, torsion))

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


def parse_coeff(coeff: str) -> int | None:
    """The coefficient ring of a spec: None for Z, 0 for Q, p for F_p."""
    if coeff == "z":
        return None
    if coeff == "q":
        return 0
    digits = coeff[2:] if coeff.startswith("p:") else ""
    if not digits.isdecimal():
        raise ValueError(f"unknown coefficient spec {coeff!r}; "
                         "use z, q, or p:N with N prime")
    p = int(digits)
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


def homology(c: SimplicialComplex, reduced: bool = False,
             coeff: str = "z") -> list[HomologyGroup]:
    """Homology groups per degree 0..dim c.

    The free rank in degree q is (#surviving q-cells) - rank(d_q) -
    rank(d_{q+1}), plus the H_0 generators taken out (one fewer when
    reduced; a complex always has a vertex), with the ranks read off
    the Smith diagonals of `_reduction`: over Z or Q the rank is the diagonal
    length, over F_p the count of entries p does not divide.  Over Z the
    torsion is the part of SNF(d_{q+1}) above 1; over a field it is empty.
    """
    p = parse_coeff(coeff)
    generators, cells, diagonals = _reduction(c)
    ranks = [sum(1 for d in diagonal if not p or d % p) for diagonal in diagonals]
    return [HomologyGroup(
        cells[q] + (generators - reduced if q == 0 else 0) - ranks[q] - ranks[q + 1],
        () if p is not None else tuple(d for d in diagonals[q + 1] if d > 1))
        for q in range(len(cells))]


# One integer reduction per complex, read by every coefficient ring: the
# survey asks each complex for its homology over Z, Q and F_2 in turn.
@lru_cache(maxsize=8)
def _reduction(c: SimplicialComplex) -> tuple[
        int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The H_0 generators taken out by `_coreduce`, the surviving cells per
    degree, and the Smith diagonal of each restricted boundary d_q for
    q = 0..dim c + 1 (empty at both ends), all read on the strong core of c."""
    core = _strong_core(c)
    cc = chain_complex(core)
    generators, alive = _coreduce(cc)
    top = len(cc.dims) - 1
    # The columns of d_q are the rows of its transpose, which has the same Smith form.
    diagonals = [()] + [smith_normal_form(
        [{i: x for i, x in cc.boundary(q)[j].items() if alive[q - 1][i]}
         for j in range(cc.dims[q]) if alive[q][j]]).diagonal
        for q in range(1, top + 1)] + [()]
    # The core may have lost top degrees; they have no cells and no boundary.
    missing = c.dimension - core.dimension
    return (generators, tuple(sum(a) for a in alive) + (0,) * missing,
            tuple(diagonals) + ((),) * missing)


def _coreduce(cc: ChainComplexZ) -> tuple[int, list[bytearray]]:
    """The H_0 generators taken out, and a flag per cell: 1 if it survives.

    Each vertex still alive is taken out as a free generator of H_0, and a
    work queue then removes coreduction pairs: a cell with a single remaining
    boundary face, together with that face.  Their incidence is +-1, so the
    restricted boundaries of the surviving cells, unchanged otherwise, have
    the same integer homology, torsion included.  A drain leaves no live edge
    with one live end, so no live vertex is left in a component whose H_0 it
    emptied: one generator per component.
    """
    top = len(cc.dims) - 1
    alive = [bytearray(b"\1") * n for n in cc.dims]
    cofaces: list[list[list[int]]] = [[[] for _ in range(n)] for n in cc.dims]
    for q in range(1, top + 1):
        for j, column in enumerate(cc.boundary(q)):
            for i in column:
                cofaces[q - 1][i].append(j)
    remaining = [[len(column) for column in cc.boundary(q)] for q in range(top + 1)]
    queue: deque[tuple[int, int]] = deque()

    def remove(q: int, j: int) -> None:
        alive[q][j] = 0
        for k in cofaces[q][j]:
            remaining[q + 1][k] -= 1
            if remaining[q + 1][k] == 1:
                queue.append((q + 1, k))

    generators = 0
    for v in range(cc.dim(0)):
        if not alive[0][v]:
            continue
        generators += 1
        remove(0, v)
        while queue:
            q, j = queue.popleft()
            if alive[q][j] and remaining[q][j] == 1:
                face = next(i for i in cc.boundary(q)[j] if alive[q - 1][i])
                remove(q, j)
                remove(q - 1, face)
    return generators, alive


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** q * len(level) for q, level in enumerate(c.lattice))


def homology_to_record(groups: Sequence[HomologyGroup], coeff: str = "z") -> list[dict]:
    p = parse_coeff(coeff)
    records = []
    for q, g in enumerate(groups):
        entry: dict = {"degree": q, "free_rank": g.free_rank,
                       "torsion": list(g.torsion)}
        if p == 0:
            entry["field"] = "Q"
        elif p:
            entry["field"] = "Fp"
            entry["p"] = p
        records.append(entry)
    return records
