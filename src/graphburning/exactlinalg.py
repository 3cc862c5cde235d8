"""Exact matrix reduction: integer Smith normal form and field elimination.

Matrices are lists of row lists.  Integer work uses Python's arbitrary
precision ints throughout.  The Smith form converts its input to sparse rows
({column: value}, zeros dropped) and reduces them in one elimination loop, so
each pivot costs work in the nonzero entries rather than the matrix's area.
Homology over every coefficient ring is read off the integer Smith form by
universal coefficients; field elimination (Fraction for the rationals, ints
mod p for prime fields) serves induced maps and `matrix_rank_over`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

Matrix = list[list[int]]


class InvariantError(AssertionError):
    """A structural invariant failed; raised explicitly so `python -O` keeps it."""


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


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


@dataclass(frozen=True)
class SmithForm:
    """Diagonal d_1 | d_2 | ... of positive integers; rank = its length."""

    diagonal: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if any(b % a for a, b in zip(self.diagonal, self.diagonal[1:])):
            raise InvariantError(f"divisibility chain broken: {self.diagonal}")
        if self.rank != len(self.diagonal):
            raise InvariantError(f"rank {self.rank} != diagonal length {len(self.diagonal)}")


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Exact Smith normal form by one elimination on sparse rows.

    Each step pivots on a nonzero entry of least absolute value, preferring
    the lightest row, so the unit entries of a boundary matrix go first.  Row
    operations clear the pivot's column; once it holds only the pivot, column
    operations touch the pivot row alone and reduce it modulo the pivot.  A
    remainder left by either step is smaller than every entry, so it is the
    next pivot.  A pivot alone in its row and column is a diagonal entry.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, row in enumerate(matrix):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
    diagonal: list[int] = []
    while rows:
        i = min(rows, key=lambda k: (min(map(abs, rows[k].values())), len(rows[k])))
        pivot_row = rows[i]
        j = min(pivot_row, key=lambda c: abs(pivot_row[c]))
        p = pivot_row[j]
        remainder = False
        for k, row in rows.items():
            if k == i or j not in row:
                continue
            # |row[j]| >= |p|, so q != 0 and every entry it cancels was present.
            q = row[j] // p
            for c, x in pivot_row.items():
                y = row.get(c, 0) - q * x
                if y:
                    row[c] = y
                else:
                    del row[c]
            remainder = remainder or j in row
        rows = {k: row for k, row in rows.items() if row}
        if remainder:
            continue
        for c in list(pivot_row):
            if c != j:
                x = pivot_row[c] % p
                if x:
                    pivot_row[c] = x
                else:
                    del pivot_row[c]
        if len(pivot_row) == 1:
            diagonal.append(abs(p))
            del rows[i]
    # diag(a, b) ~ diag(gcd, lcm) orders the non-units into a divisibility chain.
    chain = [d for d in diagonal if d != 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return SmithForm((1,) * (len(diagonal) - len(chain)) + tuple(chain), len(diagonal))


def determinantal_divisor_snf(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Independent oracle: d_k = gcd of k-by-k minors divided by the previous.

    Exponential in the matrix size; intended for small test matrices only.
    """
    from itertools import combinations

    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0

    def minor_det(ris: tuple[int, ...], cis: tuple[int, ...]) -> int:
        return _det([[m[i][j] for j in cis] for i in ris])

    def _det(sub: list[list[int]]) -> int:
        n = len(sub)
        if n == 1:
            return sub[0][0]
        det = 0
        for j in range(n):
            if sub[0][j]:
                smaller = [row[:j] + row[j + 1:] for row in sub[1:]]
                sign = -1 if j % 2 else 1
                det += sign * sub[0][j] * _det(smaller)
        return det

    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in combinations(range(rows), k):
            for cis in combinations(range(cols), k):
                g = gcd(g, minor_det(ris, cis))
        if g == 0:
            break
        divisors.append(g)
    diagonal = []
    prev = 1
    for d in divisors:
        diagonal.append(d // prev)
        prev = d
    return SmithForm(tuple(diagonal), len(diagonal))


# ---------------------------------------------------------------------------
# Field elimination (rationals or a prime field)


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


def nullspace(matrix: Sequence[Sequence[int]], ops: FieldOps) -> list[list]:
    """Basis column vectors of the kernel (each returned as a list)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    if cols == 0:
        return []
    reduced, pivots = rref(matrix, ops)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ops.convert(0)] * cols
        vec[f] = ops.convert(1)
        for r, c in enumerate(pivots):
            vec[c] = ops.sub(ops.convert(0), reduced[r][f])
        basis.append(vec)
    return basis


def solve_in_span(columns: list[list], target: list, ops: FieldOps) -> list | None:
    """Coordinates of target in the span of the columns, or None."""
    if not columns:
        return [] if all(ops.is_zero(x) for x in target) else None
    n = len(target)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(n)]
    reduced, pivots = rref(aug, ops)
    k = len(columns)
    if k in pivots:
        return None
    coords = [ops.convert(0)] * k
    for r, c in enumerate(pivots):
        coords[c] = reduced[r][k]
    return coords
