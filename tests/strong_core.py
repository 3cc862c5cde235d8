"""Literal oracles for facet absorption and the strong core, on vertex sets.

They share no code with `graphburning.complexes`: facets are tuples, absorption
is pairwise `set <=`, and domination is read off a set intersection.
"""


def absorb_literally(simplexes):
    """The maximal sets among the generators, by pairwise comparison."""
    sets = {tuple(sorted(set(s))) for s in simplexes}
    return {s for s in sets if not any(s != t and set(s) <= set(t) for t in sets)}


def strong_core_literally(vertex_count, facets):
    """(vertex count, facets) once no vertex is dominated, relabelled 0..m-1.

    The vertices are visited in ascending order, pass after pass, and a vertex
    is deleted as soon as the facets holding it share another vertex.
    """
    facets = absorb_literally(facets)
    vertices = list(range(vertex_count))
    while True:
        survivors = []
        for v in vertices:
            if set.intersection(*(set(f) for f in facets if v in f)) == {v}:
                survivors.append(v)
            else:
                facets = absorb_literally([w for w in f if w != v] for f in facets)
        if survivors == vertices:
            break
        vertices = survivors
    label = {v: i for i, v in enumerate(vertices)}
    return len(vertices), {tuple(label[v] for v in f) for f in facets}
