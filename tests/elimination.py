"""Dense field elimination, evaluated literally, and unreduced homology.

A test oracle for the sparse routines: boundaries and chain maps as dense
row lists, and `Fraction` or mod-p row reduction with the rank read off it.
The elimination shares no code with `graphburning.exactlinalg`.

`unreduced_homology` is the oracle for the coreduction in `homology()`: the
same Smith forms, taken on every boundary of the whole chain complex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from graphburning import HomologyGroup, chain_complex, smith_normal_form
from graphburning.homology import parse_coeff

Matrix = list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def dense_columns(columns: Sequence[dict], rows: int) -> Matrix:
    """The dense matrix whose j-th column is the sparse column columns[j]."""
    matrix = zeros(rows, len(columns))
    for j, column in enumerate(columns):
        for i, x in column.items():
            matrix[i][j] = x
    return matrix


def dense(cc, q: int) -> Matrix:
    """The boundary out of degree q of a chain complex as a dense matrix."""
    rows = 1 if q == 0 and cc.augmented else cc.dim(q - 1)
    return dense_columns(cc.boundary(q), rows)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                row_b = b[k]
                row_o = out[i]
                for j in range(cols):
                    row_o[j] += aik * row_b[j]
    return out


class FieldOps:
    """Arithmetic over Q (p=None) or the prime field of order p."""

    def __init__(self, p: int | None = None):
        if p is not None:
            if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
                raise ValueError(f"{p} is not prime")
        self.p = p

    def convert(self, x: int):
        return x % self.p if self.p else Fraction(x)

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def div(self, a, b):
        if self.p:
            return (a * pow(b, -1, self.p)) % self.p
        return a / b


def rref(matrix: Sequence[Sequence[int]], ops: FieldOps):
    """Reduced row echelon form over the field; returns (rows, pivot columns)."""
    m = [[ops.convert(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not ops.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [ops.div(x, inv) for x in m[r]]
        for i in range(rows):
            if i != r and not ops.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [ops.sub(a, ops.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def field_rank(matrix: Sequence[Sequence[int]], ops: FieldOps) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix, ops)[1])


# One reduction per complex: `_assert_matches_unreduced_route` asks for four rings.
@lru_cache(maxsize=8)
def _unreduced_diagonals(c, reduced: bool) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The face counts, and the Smith diagonal of every boundary of the whole complex."""
    cc = chain_complex(c, augmented=reduced)
    return cc.dims, tuple(smith_normal_form(cc.boundary(q)).diagonal
                          for q in range(len(cc.dims) + 1))


def unreduced_homology(c, reduced: bool = False, coeff: str = "z") -> list:
    """Homology from the Smith forms of every boundary of the whole complex."""
    p = parse_coeff(coeff)
    dims, diagonals = _unreduced_diagonals(c, reduced)
    ranks = [sum(1 for d in diagonal if not p or d % p) for diagonal in diagonals]
    return [HomologyGroup(
        dims[q] - ranks[q] - ranks[q + 1],
        () if p is not None else tuple(d for d in diagonals[q + 1] if d > 1))
        for q in range(len(dims))]
