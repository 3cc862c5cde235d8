"""Faces and boundaries on ascending vertex tuples, evaluated literally.

A test oracle for the face lattice of `graphburning.complexes`, which works
on vertex bitmasks: the q-faces are every (q+1)-subset of a facet tuple by
`combinations`, sorted, and the boundary of [u_0 < ... < u_q] deletes one
vertex at a time, u_i with sign (-1)^i, looked up in a tuple-keyed index.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

Simplex = tuple[int, ...]


def faces(c, q: int) -> tuple[Simplex, ...]:
    """All q-faces of c in lexicographic order."""
    return tuple(sorted({s for f in c.facets for s in combinations(f, q + 1)}))


def levels(c) -> list[tuple[Simplex, ...]]:
    """The faces of every dimension 0..dim c."""
    return [faces(c, q) for q in range(c.dimension + 1)]


def skeleton_facets(c, n: int) -> set[Simplex]:
    """The facets of the n-skeleton: the facets of c with at most n + 1
    vertices and every n-face."""
    return {f for f in c.facets if len(f) <= n} | set(faces(c, n))


def euler_characteristic(c) -> int:
    return sum((-1) ** q * len(level) for q, level in enumerate(levels(c)))


def boundary_of(simplex: Sequence[int]) -> list[tuple[Simplex, int]]:
    """Codimension-1 faces of an ascending simplex with their signs."""
    return [(tuple(simplex[:i]) + tuple(simplex[i + 1:]), -1 if i % 2 else 1)
            for i in range(len(simplex))]


def boundaries(c, augmented: bool = False) -> list[list[dict[int, int]]]:
    """The boundary out of each degree 0..dim c as sparse columns
    {index of a face one dimension down: sign}; degree 0 maps each vertex to
    {0: 1} when augmented and to nothing otherwise."""
    bases = levels(c)
    out = [[{0: 1} if augmented else {} for _ in bases[0]]]
    for lower, upper in zip(bases, bases[1:]):
        index = {s: i for i, s in enumerate(lower)}
        out.append([{index[face]: sign for face, sign in boundary_of(s)} for s in upper])
    return out
