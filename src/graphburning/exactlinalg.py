"""Exact matrix reduction: the integer Smith normal form.

Sparse vectors are dicts {index: value} with zeros dropped, and a sparse
matrix is a list of them.  The Smith form reads its input as rows, given
either as such dicts or as dense lists, and reduces them in one elimination
loop on Python's arbitrary precision ints, so each pivot costs work in the
nonzero entries rather than the matrix's area; `invariant_factors` puts its
non-unit entries, and the torsion of a join, into divisibility order.  The
sparse field echelon of induced maps lives in `maps`, and the
determinantal-divisor oracle for the Smith form in `verify`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
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
    chain = invariant_factors(diagonal)
    return SmithForm((1,) * (len(diagonal) - len(chain)) + chain, len(diagonal))


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """The invariant factors above 1 of the sum of the cyclic groups Z/d, d in orders."""
    # diag(a, b) ~ diag(gcd, lcm) orders the non-units into a divisibility chain.
    chain = [d for d in orders if d != 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return tuple(d for d in chain if d != 1)
