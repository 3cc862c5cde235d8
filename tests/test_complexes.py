import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphburning import (
    ComplexError,
    SimplicialComplex,
    SimplicialMapError,
    burning_number,
    classify,
    complement,
    complete_graph,
    compose_simplicial_maps,
    configuration_space,
    cube_graph,
    cycle_graph,
    disjoint_union,
    faces,
    from_generators,
    graph_as_complex,
    homology,
    identity_simplicial_map,
    iter_burnings,
    iterated_sum,
    join,
    one_skeleton_graph,
    path_graph,
    skeleton,
    source_sets,
    validate_burning,
    validate_simplicial_map,
)
from graphburning.complexes import _strong_core
from graphburning.graphs import Graph
from graphburning.verify import named_graphs

from admissible import admissible_faces
from conftest import complexes, graphs
from filtration import distances
from strong_core import absorb_literally, strong_core_literally

# Bit v of a facet mask is set iff vertex v is in the facet.
FULL_TRIANGLE = SimplicialComplex(3, frozenset({0b111}))
HOLLOW_TRIANGLE = SimplicialComplex(3, frozenset({0b011, 0b101, 0b110}))
# conf(K1) and conf(P2): the cone is the join with POINT, the suspension with S0.
POINT = SimplicialComplex(1, frozenset({0b1}))
S0 = SimplicialComplex(2, frozenset({0b01, 0b10}))


def test_complex_validation():
    # The constructor keeps the maximal masks: faces and a redundant empty mask go.
    assert SimplicialComplex(1, frozenset({0b1, 0})) == POINT
    assert SimplicialComplex(2, frozenset({0b01, 0b11})).masks == {0b11}
    with pytest.raises(ComplexError, match="cover exactly"):
        SimplicialComplex(3, frozenset({0b011}))  # vertex 2 uncovered
    with pytest.raises(ComplexError, match="cover exactly"):
        SimplicialComplex(2, frozenset({0b1001}))  # out of range
    with pytest.raises(ComplexError, match="cover exactly"):
        SimplicialComplex(1, frozenset({0}))  # only the empty mask


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s))),
    max_size=8).map(lambda fs: (n, fs))))
@settings(max_examples=200, deadline=None)
def test_constructor_absorbs_like_pairwise_sets(case):
    """Any masks, repeated, nested and empty ones included, give the complex
    they generate, which its own masks give again."""
    n, generators = case
    generators = generators + [(v,) for v in range(n)
                               if not any(v in s for s in generators)]  # cover every vertex
    c = SimplicialComplex(n, [sum(1 << v for v in s) for s in generators])
    assert c.facets == absorb_literally(generators)
    assert SimplicialComplex(n, c.masks) == c


def test_from_generators_absorbs_faces():
    c = from_generators(3, [(0, 1), (0, 1, 2), (2,), (1, 0)])
    assert c.facets == frozenset({(0, 1, 2)})
    assert c.dimension == 2


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=5), max_size=12))))
@settings(max_examples=200, deadline=None)
def test_from_generators_matches_literal_absorption(case):
    n, generators = case
    generators = generators + [[v] for v in range(n)]
    assert from_generators(n, generators).facets == absorb_literally(generators)


def test_from_generators_errors():
    with pytest.raises(ComplexError):
        from_generators(3, [()])  # empty generator
    with pytest.raises(ComplexError):
        from_generators(3, [(0, 1, 2), (-1,)])
    with pytest.raises(ComplexError):
        from_generators(3, [(0, 1, 2), (1, 3)])
    with pytest.raises(ComplexError):
        from_generators(3, [(0, 1)])  # vertex 2 uncovered
    assert from_generators(2, [(), (0, 1)]).facets == {(0, 1)}


def test_plain_containers_are_stored_as_frozensets():
    # A set or list of edges or masks hashes and compares like the frozenset.
    edges = [(0, 1), (1, 2)]
    frozen = Graph(3, frozenset(edges))
    for given_edges in (set(edges), list(edges)):
        g = Graph(3, given_edges)
        assert g == frozen and hash(g) == hash(frozen) and g.edges == frozenset(edges)
        assert burning_number(g) == burning_number(frozen) == 2
        assert configuration_space(g) == configuration_space(frozen)
    masks = [0b011, 0b110]
    frozen_c = SimplicialComplex(3, frozenset(masks))
    for given_masks in (set(masks), list(masks)):
        c = SimplicialComplex(3, given_masks)
        assert c == frozen_c and hash(c) == hash(frozen_c) and c.masks == frozenset(masks)
        assert homology(c) == homology(frozen_c)
        assert homology(c, coeff="p:2", reduced=True) == homology(frozen_c, coeff="p:2",
                                                                   reduced=True)


def test_configuration_space_matches_generators_on_families():
    for g in ([path_graph(n) for n in range(1, 15)] + [cycle_graph(n) for n in range(3, 13)]
              + [iterated_sum(k, path_graph(2)) for k in range(1, 6)]):
        assert configuration_space(g) == from_generators(g.vertex_count, source_sets(g))


@given(graphs(max_vertices=7))
@settings(max_examples=150, deadline=None)
def test_configuration_space_matches_generators(g):
    # Disconnected graphs included: the strategy draws any edge set.
    assert configuration_space(g) == from_generators(g.vertex_count, source_sets(g))


@given(st.one_of(complexes(), graphs(max_vertices=7).map(configuration_space)))
@settings(max_examples=300, deadline=None)
def test_strong_core_matches_literal_oracle(c):
    core = _strong_core(c)
    assert (core.vertex_count, core.facets) == strong_core_literally(
        c.vertex_count, c.facets)


@given(complexes())
@settings(max_examples=100, deadline=None)
def test_facets_are_the_tuple_view_of_masks(c):
    n = c.vertex_count
    sets = [{v for v in range(n) if m >> v & 1} for m in c.masks]
    assert c.facets == {tuple(sorted(s)) for s in sets}
    assert from_generators(n, c.facets) == c
    for k in range(n + 3):
        for simplex in itertools.combinations(range(-1, n + 1), k):
            assert c.has_face(simplex) == any(set(simplex) <= s for s in sets), simplex


def test_faces_of_full_triangle():
    assert faces(FULL_TRIANGLE, 0) == ((0,), (1,), (2,))
    assert faces(FULL_TRIANGLE, 1) == ((0, 1), (0, 2), (1, 2))
    assert faces(FULL_TRIANGLE, 2) == ((0, 1, 2),)
    assert faces(FULL_TRIANGLE, 3) == ()
    assert FULL_TRIANGLE.has_face((0, 2))
    assert not HOLLOW_TRIANGLE.has_face((0, 1, 2))


def test_skeleton():
    assert skeleton(FULL_TRIANGLE, 1) == HOLLOW_TRIANGLE
    assert skeleton(FULL_TRIANGLE, 2) == FULL_TRIANGLE
    assert skeleton(FULL_TRIANGLE, 0).facets == frozenset({(0,), (1,), (2,)})


@given(complexes())
@settings(max_examples=50, deadline=None)
def test_skeleton_faces_agree(c):
    for n in range(c.dimension + 1):
        s = skeleton(c, n)
        assert s.dimension <= n
        for q in range(n + 1):
            assert faces(s, q) == faces(c, q)


def test_graph_as_complex_round_trip():
    g = path_graph(4)
    assert one_skeleton_graph(graph_as_complex(g)) == g
    lonely = graph_as_complex(complement(path_graph(2)))
    assert lonely.facets == frozenset({(0,), (1,)})


def test_cone_and_suspension_shapes():
    c = join(HOLLOW_TRIANGLE, POINT)
    assert c.vertex_count == 4
    assert c.facets == frozenset({(0, 1, 3), (0, 2, 3), (1, 2, 3)})
    s = join(HOLLOW_TRIANGLE, S0)
    assert s.vertex_count == 5
    assert s.facets == frozenset({(0, 1, 3), (0, 2, 3), (1, 2, 3),
                                  (0, 1, 4), (0, 2, 4), (1, 2, 4)})
    # d's vertices come after c's.
    assert join(POINT, HOLLOW_TRIANGLE).facets == frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3)})
    assert join(join(S0, S0), S0) == join(S0, join(S0, S0))
    assert len(reduce(join, [S0] * 4).facets) == 16


@given(graphs(max_vertices=6))
@settings(max_examples=60, deadline=None)
def test_isolated_vertex_cones_and_detached_edge_suspends(g):
    # Labelled equality: the new vertex is the apex, the edge's ends the poles.
    base = configuration_space(g)
    assert configuration_space(disjoint_union(g, complete_graph(1))) == join(base, POINT)
    assert configuration_space(disjoint_union(g, path_graph(2))) == join(base, S0)


def _random_graph(rng, max_vertices, density=0.4):
    n = rng.randint(1, max_vertices)
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < density])


def test_configuration_space_of_a_disjoint_union_is_the_join():
    # conf(G + H) = conf(G) * conf(H), both sides from the whole-graph search.
    # (i) A burning of G + H keeps its G-sources admissible in G, so its
    # source set meets G in a face of conf(G).  (ii) A burning of H followed
    # by a burning of G burns G + H: fire never crosses between the parts,
    # and delaying all of G's steps alike keeps the gaps between them.
    rng = random.Random(20261019)
    disconnected = 0
    for _ in range(200):
        g, h = _random_graph(rng, 5), _random_graph(rng, 5)
        union = disjoint_union(g, h)
        assert configuration_space(union) == join(configuration_space(g),
                                                  configuration_space(h))
        shift = g.vertex_count
        whole = set(source_sets(union))
        for bh in _one_burning_per_source_set(h):
            for bg in _one_burning_per_source_set(g):
                b = validate_burning(union, tuple(v + shift for v in bh.sources) + bg.sources)
                assert b.end_time == max(bh.end_time, len(bh.sources) + bg.end_time)
                assert tuple(sorted(b.sources)) in whole
        disconnected += not (classify(g).connected and classify(h).connected)
    assert disconnected > 50


def _one_burning_per_source_set(g):
    first = {}
    for b in iter_burnings(g):
        first.setdefault(frozenset(b.sources), b)
    return first.values()


def test_configuration_space_of_p5():
    c = configuration_space(path_graph(5))
    assert c.facets == frozenset({(0, 2, 4), (0, 3), (1, 3), (1, 4)})


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_one_skeleton_is_complement(c):
    g = c
    space = configuration_space(g)
    assert one_skeleton_graph(skeleton(space, 1)) == complement(g)


def test_configuration_space_of_cube():
    c = configuration_space(cube_graph())
    assert c.dimension == 1
    assert one_skeleton_graph(c) == complement(cube_graph())


def test_faces_are_the_admissible_sets():
    # README, "Faces": a set is a face iff some ordering s_1..s_m has
    # d(s_j, s_k) > k - j for all j < k.  The first and last sources of a
    # face then lie at distance >= m, so a connected graph with two or more
    # vertices has faces of at most diam(G) vertices.
    rng = random.Random(20261020)
    corpus = [g for _, g in named_graphs(7)]
    corpus += [_random_graph(rng, 7, rng.random()) for _ in range(150)]
    disconnected = 0
    for g in corpus:
        c = configuration_space(g)
        assert [faces(c, q) for q in range(c.dimension + 1)] == admissible_faces(g), g
        if classify(g).connected and g.vertex_count > 1:
            assert c.dimension < max(map(max, distances(g))), g
        disconnected += not classify(g).connected
    assert disconnected > 30


# ---------------------------------------------------------------------------
# Simplicial maps


def test_simplicial_map_validation():
    collapse = validate_simplicial_map((0, 0, 1), HOLLOW_TRIANGLE,
                                       SimplicialComplex(2, frozenset({0b11})))
    assert collapse.image_simplex((0, 1)) == (0,)
    with pytest.raises(SimplicialMapError) as err:
        validate_simplicial_map((0, 1, 2), FULL_TRIANGLE, HOLLOW_TRIANGLE)
    assert err.value.facet == (0, 1, 2)
    with pytest.raises(SimplicialMapError):
        validate_simplicial_map((0, 1), FULL_TRIANGLE, FULL_TRIANGLE)


def test_simplicial_map_composition():
    ident = identity_simplicial_map(HOLLOW_TRIANGLE)
    twist = validate_simplicial_map((1, 2, 0), HOLLOW_TRIANGLE, HOLLOW_TRIANGLE)
    assert compose_simplicial_maps(twist, ident).vertex_fn == (1, 2, 0)
    assert compose_simplicial_maps(twist, twist).vertex_fn == (2, 0, 1)
