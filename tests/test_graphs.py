import inspect
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphburning import (
    Graph,
    GraphError,
    GraphMapError,
    Subgraph,
    build_named,
    classify,
    complement,
    complete_bipartite_graph,
    complete_graph,
    compose_graph_maps,
    cube_graph,
    cycle_graph,
    disjoint_union,
    identity_map,
    induced_subgraph,
    iterated_sum,
    parse_graph_text,
    path_graph,
    validate_graph_map,
    whole_graph,
)
from graphburning.graphs import _FAMILIES, _adjacency, components, format_graph_text

from conftest import graphs
from filtration import FiltrationState, distances, filtration


def test_builder_shapes():
    assert len(path_graph(5).edges) == 4
    assert len(cycle_graph(5).edges) == 5
    assert len(complete_graph(5).edges) == 10
    assert len(complete_bipartite_graph(2, 3).edges) == 6
    assert cube_graph().vertex_count == 8
    assert len(cube_graph().edges) == 12
    assert all(len(cube_graph().neighbors(v)) == 3 for v in range(8))


def test_builder_validation():
    with pytest.raises(GraphError):
        path_graph(0)
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        build_named("petersen")


def test_build_named_families():
    assert build_named("path", 4) == path_graph(4)
    assert build_named("bipartite", 2, 3) == complete_bipartite_graph(2, 3)
    assert build_named("cube") == cube_graph()
    with pytest.raises(GraphError, match=r"expected bipartite:<n>,<m>, got 1 parameter$"):
        build_named("bipartite", 2)
    with pytest.raises(GraphError, match=r"expected cube, got 1 parameter$"):
        build_named("cube", 3)


def test_family_table_names_each_builders_parameters():
    """`build_named` reads the names from its table; they must match the code."""
    for family, (builder, names) in _FAMILIES.items():
        assert tuple(inspect.signature(builder).parameters) == names, family


def test_edge_normalization():
    g = Graph.from_edges(3, [(2, 0), (1, 0)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.sorted_edges() == [(0, 1), (0, 2)]


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert len(g.edges) + len(complement(g).edges) == math.comb(g.vertex_count, 2)


def test_classify_families():
    assert classify(path_graph(6)).tree
    assert classify(path_graph(6)).bipartite
    assert not classify(cycle_graph(5)).bipartite
    assert classify(cycle_graph(6)).bipartite
    assert not classify(cycle_graph(6)).tree
    report = classify(disjoint_union(path_graph(2), path_graph(3)))
    assert not report.connected
    assert report.components == ((0, 1), (2, 3, 4))
    assert classify(cube_graph()).bipartite


@given(graphs())
def test_classify_matches_distances(g):
    """One BFS per component against the all-pairs distances."""
    dist = distances(g)
    partition = sorted({tuple(w for w in g.vertices if dist[v][w] != math.inf)
                        for v in g.vertices})
    report = classify(g)
    assert list(report.components) == partition == list(components(g))
    # A graph is bipartite iff no edge joins two vertices at equal distance
    # from the least vertex of their component.
    assert report.bipartite == all(dist[min(c)][v] != dist[min(c)][w]
                                   for c in partition for v, w in g.edges
                                   if v in c)


def test_iterated_sum():
    g = iterated_sum(3, path_graph(2))
    assert g.vertex_count == 6
    assert g.sorted_edges() == [(0, 1), (2, 3), (4, 5)]


def test_graph_caches_are_bounded_and_reused():
    # A long run sees many graphs; the caches keep only the last few, and a
    # graph asked for again while it is still held is not recomputed.
    caches = (_adjacency, path_graph)
    for cache in caches:
        cache.cache_clear()
    for n in range(1, 21):
        g = cycle_graph(n + 2)
        g.neighbors(0)
        path_graph(n)
    hits = [cache.cache_info().hits for cache in caches]
    assert g.neighbors(0) == (1, n + 1)
    assert path_graph(n) is path_graph(n)
    for cache, before in zip(caches, hits):
        info = cache.cache_info()
        assert info.hits > before
        assert info.currsize < 20


def test_filtration_is_union_of_distance_balls():
    """The literal oracle on P7, worked by hand: N_r[v] = {w : d(v, w) <= r}
    and the region burned by step j is the union of the N_{j-i}[v_i]."""
    g = path_graph(7)
    assert distances(g)[3] == [3, 2, 1, 0, 1, 2, 3]
    assert distances(disjoint_union(path_graph(2), path_graph(1))) == [
        [0, 1, math.inf], [1, 0, math.inf], [math.inf, math.inf, 0]]
    assert filtration(g, (3,)) == [
        FiltrationState(1, (3,), None),
        FiltrationState(2, (2, 3, 4), (2, 3, 4))]
    # (0, 4) is no burning of P7, vertex 6 never burns; the oracle judges nothing.
    assert filtration(g, (0, 4)) == [
        FiltrationState(1, (0,), None),
        FiltrationState(2, (0, 1, 4), (0, 1)),
        FiltrationState(3, (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))]


def test_induced_subgraph_and_union():
    g = cycle_graph(5)
    h = induced_subgraph(g, [0, 1, 3])
    assert h.edges == frozenset({(0, 1)})
    assert h.is_induced()
    # An induced union is the induced subgraph on the union of the vertex sets.
    a, b = induced_subgraph(g, [0, 1]), induced_subgraph(g, [2])
    u = induced_subgraph(g, {*a.vertices, *b.vertices})
    assert u.vertices == (0, 1, 2)
    assert u.edges == frozenset({(0, 1), (1, 2)})
    assert u.contains(a) and u.contains(b)
    assert whole_graph(g).contains(h)
    local, labels = h.as_graph()
    assert labels == (0, 1, 3)
    assert local.sorted_edges() == [(0, 1)]


def test_subgraph_from_a_list_or_set():
    """Vertices and edges given as a list or set are stored as a tuple and a
    frozenset, so the subgraph hashes and compares like the canonical one."""
    g = path_graph(4)
    want = Subgraph(g, (0, 1), frozenset({(0, 1)}))
    for vertices, edges in [([0, 1], [(0, 1)]), ({0, 1}, {(0, 1)}), ((0, 1), [(0, 1)])]:
        h = Subgraph(g, vertices, edges)
        assert h == want and hash(h) == hash(want)
        assert whole_graph(g).contains(h)
    assert len({want, Subgraph(g, [0, 1], [(0, 1)])}) == 1


def test_graph_map_validation():
    g, h = path_graph(3), path_graph(2)
    fold = validate_graph_map((0, 1, 0), g, h)
    assert fold.is_homomorphism
    collapse = validate_graph_map((0, 0, 1), g, h)
    assert not collapse.is_homomorphism
    with pytest.raises(GraphMapError) as err:
        validate_graph_map((0, 1, 1), path_graph(3), complement(path_graph(2)))
    assert err.value.edge == (0, 1)
    with pytest.raises(GraphMapError):
        validate_graph_map((0, 1), g, h)


def test_graph_map_reports_the_least_broken_edge():
    # On P4 -> P4 by (0, 2, 1, 3) the edges (0, 1) and (2, 3) both map to
    # non-adjacent pairs; (1, 2) maps to an edge.
    g = path_graph(4)
    with pytest.raises(GraphMapError) as err:
        validate_graph_map((0, 2, 1, 3), g, g)
    assert err.value.edge == (0, 1)
    assert str(err.value) == "edge (0, 1) maps to non-adjacent pair (0, 2)"
    # An image pair against the edge's order: (0, 2) -> (3, 0) and
    # (2, 3) -> (0, 2) break, (1, 3) -> (1, 2) does not.
    h = Graph.from_edges(4, [(2, 3), (1, 3), (0, 2)])
    with pytest.raises(GraphMapError) as err:
        validate_graph_map((3, 1, 0, 2), h, g)
    assert err.value.edge == (0, 2)
    assert str(err.value) == "edge (0, 2) maps to non-adjacent pair (3, 0)"


def test_graph_map_composition():
    g = path_graph(4)
    fold = validate_graph_map((0, 1, 2, 1), g, path_graph(3))
    squash = validate_graph_map((0, 1, 0), path_graph(3), path_graph(2))
    both = compose_graph_maps(squash, fold)
    assert both.vertex_fn == (0, 1, 0, 1)
    assert compose_graph_maps(identity_map(path_graph(3)), fold).vertex_fn == fold.vertex_fn


@given(graphs())
def test_graph_text_round_trip(g):
    assert parse_graph_text(format_graph_text(g)) == g


def test_parse_graph_text_details():
    g = parse_graph_text("# comment\nn 4\n0 1  # trailing\n\n2 3\n")
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])
    # Without a count line the vertex count is inferred from the largest index.
    assert parse_graph_text("0 1\n1 2\n").vertex_count == 3
    with pytest.raises(GraphError):
        parse_graph_text("n 2\n0 5\n")
    with pytest.raises(GraphError):
        parse_graph_text("0 1\nn 4\n")
    with pytest.raises(GraphError):
        parse_graph_text("0 one\n")
    with pytest.raises(GraphError, match="line 1: expected 'n <count>'"):
        parse_graph_text("n x\n")
