"""The prefix depth-first listing of ordered burnings, evaluated literally.

A test oracle for `graphburning.burning._burnings`, which walks the memoised
residual states: this one ignites every vertex at every node with `_ignite`,
a literal fold of the all-pairs distances that shares no code with the
package's burn step, and closes a burning once every burn time is at most
the current step.  No state is shared between nodes.  The distances are the
Floyd–Warshall ones of `tests/filtration.py`, the home of the literal model.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from graphburning import Burning, Graph

from filtration import distances


def _ignite(dist: Sequence[Sequence[float]], best: list[float], step: int,
            v: int) -> list[float] | None:
    """Burn times once source v ignites at the given step.

    best holds the burn times under the earlier sources (math.inf where unreached);
    the result is min(best(w), step + d(v, w)) for every w.  Returns None when
    v already burns by this step (v lies in U_step): it is not admissible.
    """
    if best[v] <= step:
        return None
    return [min(b, step + d) for b, d in zip(best, dist[v])]


def prefix_burnings(g: Graph, start: Sequence[int] = ()) -> Iterator[Burning]:
    """Every burning of g that begins with the given sources, lexicographic."""
    dist = distances(g)
    prefix = list(start)

    def extend(best: list) -> Iterator[Burning]:
        step = len(prefix) + 1
        if all(t <= step for t in best):
            yield Burning(g, tuple(prefix), tuple(best), max(best))
            return
        for v in g.vertices:
            ignited = _ignite(dist, best, step, v)
            if ignited is not None:
                prefix.append(v)
                yield from extend(ignited)
                prefix.pop()

    best = [math.inf] * g.vertex_count
    for step, v in enumerate(prefix, start=1):
        ignited = _ignite(dist, best, step, v)
        if ignited is None:
            return iter(())
        best = ignited
    return extend(best)
