"""The faces of conf(G) from their definition, with no burning search.

A set of vertices is admissible when some ordering s_1..s_m of it has
d(s_j, s_k) > k - j for all j < k: each source is off the region the earlier
ones have burned by its step.  The faces of conf(G) are exactly the
admissible sets (README, "Faces").  This oracle tries the orderings one
prefix at a time, on the Floyd-Warshall distances of `tests/filtration.py`.
"""

from __future__ import annotations

from itertools import combinations

from graphburning import Graph

from filtration import distances


def is_admissible(dist: list[list[float]], vertices: frozenset[int],
                  order: tuple[int, ...] = ()) -> bool:
    """Whether some ordering of `vertices` continues `order` admissibly."""
    if not vertices:
        return True
    k = len(order)
    return any(all(dist[s][v] > k - j for j, s in enumerate(order))
               and is_admissible(dist, vertices - {v}, order + (v,))
               for v in vertices)


def admissible_faces(g: Graph) -> list[tuple[tuple[int, ...], ...]]:
    """The admissible sets of each size 1, 2, ... while there are any, each
    level in lexicographic order."""
    dist = distances(g)
    levels = []
    for size in range(1, g.vertex_count + 1):
        level = tuple(s for s in combinations(g.vertices, size)
                      if is_admissible(dist, frozenset(s)))
        if not level:
            break
        levels.append(level)
    return levels
