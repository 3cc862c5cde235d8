"""The prefix depth-first listing of ordered burnings, evaluated literally.

A test oracle for `graphburning.burning._burnings`, which walks the memoised
residual states: this one ignites every vertex at every node with
`_ignite` (the step `validate_burning` uses) and closes a burning once every
burn time is at most the current step.  No state is shared between nodes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from graphburning import Burning, Graph
from graphburning.burning import _ignite
from graphburning.graphs import INF, distances


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

    best = [INF] * g.vertex_count
    for step, v in enumerate(prefix, start=1):
        ignited = _ignite(dist, best, step, v)
        if ignited is None:
            return iter(())
        best = ignited
    return extend(best)
