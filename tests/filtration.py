"""The neighbourhood filtration of a source sequence, evaluated literally.

A test oracle for the burning engine: it builds each burned region as an
induced union of closed neighbourhoods and shares no code with the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from graphburning import Graph, closed_neighborhood, induced_union
from graphburning.burning import check_sources


@dataclass(frozen=True)
class FiltrationState:
    """Burned region at one step: N_j, plus U_j (burned before step-j ignition)."""

    step: int
    burned_now: tuple[int, ...]
    burned_before_source: tuple[int, ...] | None


def filtration(g: Graph, sources: Sequence[int]) -> list[FiltrationState]:
    """Evaluate the neighborhood filtration literally as induced unions.

    Returns states for steps 1..k+1; makes no validity judgment.
    """
    s = check_sources(g, sources)
    k = len(s)
    states = []
    for j in range(1, k + 2):
        if j <= k:
            parts = [closed_neighborhood(g, s[i], j - 1 - i) for i in range(j)]
        else:
            parts = [closed_neighborhood(g, s[i], k - i) for i in range(k)]
        n_j = induced_union(parts).vertices
        u_j = None
        if j >= 2:
            parts = [closed_neighborhood(g, s[i], j - 1 - i) for i in range(j - 1)]
            u_j = induced_union(parts).vertices
        states.append(FiltrationState(j, n_j, u_j))
    return states
