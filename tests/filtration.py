"""The neighbourhood filtration of a source sequence, evaluated literally.

A test oracle for the burning engine, and the one home of the paper's literal
model of the burned region: all-pairs distances by Floyd–Warshall, the ball
N_r[v] = {w : d(v, w) <= r}, and the region burned by step j as the union of
the balls N_{j-i}[v_i].  The package keeps no such model; it burns on bitmasks
(`graphburning.burning._expand`) and shares no traversal with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from graphburning import Graph
from graphburning.burning import check_sources


def distances(g: Graph) -> list[list[float]]:
    """All-pairs shortest hop counts by Floyd–Warshall; math.inf if unreachable."""
    n = g.vertex_count
    d = [[0 if i == j else (1 if g.has_edge(i, j) else math.inf)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


@dataclass(frozen=True)
class FiltrationState:
    """Burned region at one step: N_j, plus U_j (burned before step-j ignition)."""

    step: int
    burned_now: tuple[int, ...]
    burned_before_source: tuple[int, ...] | None


def filtration(g: Graph, sources: Sequence[int]) -> list[FiltrationState]:
    """Evaluate the neighborhood filtration literally as unions of balls.

    The region is the induced union of the closed neighbourhoods; only its
    vertex set is read, so it is kept as the union of the balls' vertices.
    Returns states for steps 1..k+1; makes no validity judgment.
    """
    s = check_sources(g, sources)
    dist = distances(g)
    k = len(s)

    def region(radii: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        return tuple(w for w in g.vertices
                     if any(dist[v][w] <= r for v, r in radii))

    states = []
    for j in range(1, k + 2):
        n_j = region([(s[i], j - 1 - i) for i in range(min(j, k))])
        u_j = region([(s[i], j - 1 - i) for i in range(j - 1)]) if j >= 2 else None
        states.append(FiltrationState(j, n_j, u_j))
    return states
