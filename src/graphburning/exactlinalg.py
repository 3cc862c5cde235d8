"""Exact matrix reduction: integer Smith normal form and sparse field echelon.

Sparse vectors are dicts {index: value} with zeros dropped, and a sparse
matrix is a list of them.  The Smith form reads its input as rows, given
either as such dicts or as dense lists, and reduces them in one elimination
loop on Python's arbitrary precision ints, so each pivot costs work in the
nonzero entries rather than the matrix's area.  Homology over every
coefficient ring is read off the integer Smith form by universal
coefficients; `FieldEchelon` (Fraction entries for the rationals, ints mod p
for prime fields) serves induced maps and `matrix_rank_over`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from math import gcd

Vector = dict[int, int]


class InvariantError(AssertionError):
    """A structural invariant failed; raised explicitly so `python -O` keeps it."""


def apply_columns(columns: Sequence[Mapping[int, int]], vector: Mapping) -> dict:
    """The sparse product M v of a matrix given by its columns and a vector."""
    out: dict = {}
    for j, x in vector.items():
        for i, y in columns[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


class SmithForm(namedtuple("SmithForm", "diagonal rank")):
    """Diagonal d_1 | d_2 | ... of positive integers; rank = its length."""

    __slots__ = ()
    diagonal: tuple[int, ...]
    rank: int

    def __new__(cls, diagonal: tuple[int, ...], rank: int) -> "SmithForm":
        if any(b % a for a, b in zip(diagonal, diagonal[1:])):
            raise InvariantError(f"divisibility chain broken: {diagonal}")
        if rank != len(diagonal):
            raise InvariantError(f"rank {rank} != diagonal length {len(diagonal)}")
        return tuple.__new__(cls, (diagonal, rank))


def smith_normal_form(matrix: Sequence[Sequence[int] | Mapping[int, int]]) -> SmithForm:
    """Exact Smith normal form by one elimination on sparse rows.

    The rows are dense lists or sparse {column: value} dicts; the input is
    copied, never changed.  Passing the columns of D as rows reduces its
    transpose, which has the same Smith form.

    Each step pivots on a nonzero entry of least absolute value, preferring
    the lightest row, so the unit entries of a boundary matrix go first.  Row
    operations clear the pivot's column; once it holds only the pivot, column
    operations touch the pivot row alone and reduce it modulo the pivot.  A
    remainder left by either step is smaller than every entry, so it is the
    next pivot.  A pivot alone in its row and column is a diagonal entry.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, row in enumerate(matrix):
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        entries = {j: x for j, x in items if x}
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
