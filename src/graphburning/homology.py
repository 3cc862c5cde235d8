"""Chain complexes of simplicial complexes and exact homology over Z and fields.

The bases are the levels of the complex's face lattice, vertex bitmasks in
lexicographic order; the boundary of [u_0 < ... < u_q] clears one bit at a
time, sign (-1)^i for u_i.  Each boundary is stored once, as sparse columns
{face index: sign} on those bases, and every consumer reads that one form.
The route of `homology()` is strong core -> join split -> coreduction ->
Smith forms.  Before it builds any face, it strong-collapses the complex to
its core (`complexes._strong_core`), which keeps the homotopy type
(Barmak-Minian, Strong homotopy types, nerves and collapses, DCG 2012; on an
independence complex this is Engstrom's fold lemma): conf(P_n) collapses to
a point or to the boundary of a cross-polytope, Kozlov's homotopy type.  The
degrees the core lost are reported as zero groups.  `_join_factors` splits
the core into join factors, such as the S^0s of a cross-polytope.  Each
factor is shrunk by coreduction (Mrozek-Batko, Coreduction homology
algorithm, DCG 2009): each vertex still alive is taken out as a generator of
H_0, and a cell with a single remaining boundary face is removed together
with that face, which keeps the integer homology.  The Smith forms of the
surviving cells' restricted boundaries give the factor's reduced integer
groups, and Milnor's join formula combines them (`_join_groups`), so no face
of the join is built.  Every ring is read from those integer groups by
universal coefficients.  The reduction is cached per complex, so every ring
after the first, and the reduced groups, cost only the read-out.
`euler_characteristic` counts the lattice levels of the whole complex.
Induced maps, which need cycles of the whole complex, live in `maps`, with
the sparse field echelon they use.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache, reduce
from math import gcd
from typing import Sequence

from .complexes import SimplicialComplex, _strong_core
from .exactlinalg import InvariantError, Vector, apply_columns, invariant_factors, smith_normal_form
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


Groups = tuple[tuple[int, tuple[int, ...]], ...]  # reduced: (free rank, torsion) by degree


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
    """Homology groups per degree 0..dim c, read off the reduced integer
    groups of `_reduction`: over Z those, over Q their free ranks, over F_p
    (universal coefficients) the free rank plus the torsion orders p divides
    in degrees q and q - 1.  Unless reduced, H_0 gains one free generator.
    """
    p = parse_coeff(coeff)
    groups = _reduction(c)
    # shared[q + 1] counts the cyclic summands of degree q that p divides.
    shared = [0] + [sum(1 for t in torsion if p and t % p == 0) for _, torsion in groups]
    return [HomologyGroup(free + (q == 0 and not reduced) + shared[q] + shared[q + 1],
                          () if p is not None else torsion)
            for q, (free, torsion) in enumerate(groups)]


# One integer reduction per complex, read by every coefficient ring: the
# survey asks each complex for its homology over Z, Q and F_2 in turn.
@lru_cache(maxsize=8)
def _reduction(c: SimplicialComplex) -> Groups:
    """The reduced integer groups of c in degrees 0..dim c: those of the join
    factors of its strong core, combined by `_join_groups`, and zero in the
    degrees the core lost."""
    groups = reduce(_join_groups, map(_core_groups, _join_factors(_strong_core(c))))
    return groups + ((0, ()),) * (c.dimension + 1 - len(groups))


def _join_factors(c: SimplicialComplex) -> list[SimplicialComplex]:
    """Complexes relabelled 0..k-1 whose join is c, or [c] (README, "Disjoint unions").

    A join factor is a union of components of the non-edge graph (u ~ v when
    no facet holds both).  F -> (F & A, F - A) is one-to-one on the facets F,
    so a component A splits off iff |{F & A}| * |{F - A}| = |facets|; one that
    fails stays in the rest.  A factor of a strong core is a strong core.
    """
    whole = (1 << c.vertex_count) - 1
    near = [0] * c.vertex_count  # near[v]: the vertices that share a facet with v
    for m in c.masks:
        bits = m
        while bits:
            low = bits & -bits
            near[low.bit_length() - 1] |= m
            bits ^= low
    parts, unseen = [], whole
    while unseen:
        part = grow = unseen & -unseen
        while grow:  # a search on the non-edge graph from unseen's lowest vertex
            low = grow & -grow
            new = whole & ~near[low.bit_length() - 1] & ~part
            part, grow = part | new, grow ^ low | new
        parts.append(part)
        unseen &= ~part
    pieces, masks, rest = [], c.masks, whole
    for part in parts[:-1]:
        inside, outside = {m & part for m in masks}, {m & ~part for m in masks}
        if len(inside) * len(outside) == len(masks):
            pieces.append((inside, part))
            masks, rest = outside, rest & ~part
    if not pieces:
        return [c]
    return [SimplicialComplex(part.bit_count(), {
        sum(1 << i for i, v in enumerate(_vertices(part)) if m >> v & 1) for m in inside})
        for inside, part in pieces + [(masks, rest)]]


def _core_groups(core: SimplicialComplex) -> Groups:
    """The reduced integer groups of core, degrees 0..dim core: its chain
    complex, coreduced, and the Smith diagonal of each restricted boundary."""
    cc = chain_complex(core)
    generators, alive = _coreduce(cc)
    # The columns of d_q are the rows of its transpose, which has the same Smith form.
    diagonals = [()] + [smith_normal_form(
        [{i: x for i, x in cc.boundary(q)[j].items() if alive[q - 1][i]}
         for j in range(cc.dims[q]) if alive[q][j]]).diagonal
        for q in range(1, len(cc.dims))] + [()]
    return tuple((sum(alive[q]) + (generators - 1 if q == 0 else 0)
                  - len(diagonals[q]) - len(diagonals[q + 1]),
                  tuple(d for d in diagonals[q + 1] if d > 1)) for q in range(len(cc.dims)))


def _join_groups(x: Groups, y: Groups) -> Groups:
    """The reduced integer groups of X * Y by Milnor's formula (Construction of
    universal bundles II, Ann. Math. 1956): H~_{r+1}(X * Y) is the sum over
    i + j = r of H~_i(X) (x) H~_j(Y) plus over i + j = r - 1 of Tor(H~_i(X), H~_j(Y))."""
    free = [0] * (len(x) + len(y) + 1)
    orders: list[list[int]] = [[] for _ in free]
    for i, (a, s) in enumerate(x):
        for j, (b, t) in enumerate(y):
            # Z (x) Z/t = Z/t, and Z/s (x) Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t).
            both = [gcd(m, n) for m in s for n in t]
            free[i + j + 1] += a * b
            orders[i + j + 1] += list(s) * b + list(t) * a + both
            orders[i + j + 2] += both
    # A top degree has no torsion, so the last slot stays empty.
    return tuple((f, invariant_factors(o)) for f, o in zip(free[:-1], orders))


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
