"""The burning search memoised on the burned set S, with no budget.

A test oracle for `graphburning.burning._search`, which memoises on the
region N[S] and stores nothing for a state that closes a burning.  This one
keys on the state itself: depth-first over the states S (before step j,
the bitmask of the region burned by step j - 1), each searched once, a leaf
being a state with no admissible source.  It shares the burn step
`_expand` with the package, which `tests/filtration.py` and
`tests/prefix_dfs.py` check independently; what it checks is the keying.
"""

from __future__ import annotations

from graphburning import Graph
from graphburning.burning import _closed_neighbourhoods, _expand


def search_on_burned_sets(g: Graph) -> tuple[frozenset[int], int, int, int]:
    """Source-set bitmasks, least end time and number of burnings of g, and
    the number of states S searched."""
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    memo: dict[int, tuple[set[int], int, int]] = {}

    def visit(s: int, ns: int) -> tuple[set[int], int, int]:
        found = memo.get(s)
        if found is not None:
            return found
        free, ones, nns = _expand(nbhd, whole, s, ns)
        sets: set[int] = set()
        least = g.vertex_count
        count = 0
        while free:
            bit = free & -free
            free ^= bit
            child_sets, child_least, child_count = visit(
                ns | bit, nns | nbhd[bit.bit_length() - 1])
            sets |= {m | bit for m in child_sets}
            least = min(least, child_least)
            count += child_count
        found = memo[s] = (sets, least + 1, count) if sets else ({0}, 0 if ones else -1, 1)
        return found

    masks, least, count = visit(0, 0)
    return frozenset(masks), least + 1, count, len(memo)


def burned_states(g: Graph) -> int:
    """The number of states S that the burning search meets, the unit of its
    budget, found by a plain traversal over the states that keeps no source
    sets."""
    nbhd = _closed_neighbourhoods(g)
    whole = (1 << g.vertex_count) - 1
    seen: set[int] = set()
    stack = [(0, 0)]
    while stack:
        s, ns = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        free, _, nns = _expand(nbhd, whole, s, ns)
        while free:
            bit = free & -free
            free ^= bit
            stack.append((ns | bit, nns | nbhd[bit.bit_length() - 1]))
    return len(seen)
