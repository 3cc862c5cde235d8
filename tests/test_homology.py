import importlib.util
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphburning import (
    ChainComplexZ,
    HomologyGroup,
    InvariantError,
    SimplicialComplex,
    SmithForm,
    chain_complex,
    classify,
    compose_simplicial_maps,
    configuration_space,
    cycle_graph,
    disjoint_union,
    euler_characteristic,
    faces,
    from_generators,
    homology,
    induced_map,
    iterated_sum,
    join,
    matrix_rank_over,
    path_graph,
    skeleton,
    smith_normal_form,
    validate_simplicial_map,
)
from graphburning.complexes import _strong_core
from graphburning.graphs import Graph
from graphburning.exactlinalg import invariant_factors
from graphburning.graphs import _vertices
from graphburning.homology import (
    _assert_square_zero,
    _coreduce,
    _join_factors,
    _reduction,
    homology_to_record,
)
from graphburning.maps import FieldEchelon, chain_map_matrix
from graphburning.verify import (
    connected_corpus,
    determinantal_divisor_snf,
    named_graphs,
    random_graphs,
)

import face_tuples
from conftest import complexes
from elimination import (
    FieldOps,
    dense,
    dense_columns,
    field_rank,
    mat_mul,
    rref,
    unreduced_homology,
)

HOLLOW_TRIANGLE = SimplicialComplex(3, frozenset({0b011, 0b101, 0b110}))
FULL_TRIANGLE = SimplicialComplex(3, frozenset({0b111}))
TETRA_BOUNDARY = from_generators(
    4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# A 6-vertex triangulation of the projective plane: 10 triangles, every one
# of the 15 edges shared by exactly two of them.
PROJECTIVE_PLANE = from_generators(6, [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)])
# The suspension and the cone of a complex are its joins with S^0 and a point.
S0 = SimplicialComplex(2, frozenset({0b01, 0b10}))
POINT = SimplicialComplex(1, frozenset({0b1}))
# Four components: RP^2 on 0..5, a hollow triangle and two isolated vertices.
SCATTERED = from_generators(11, sorted(PROJECTIVE_PLANE.facets) + [
    (6, 7), (7, 8), (6, 8), (9,), (10,)])


# ---------------------------------------------------------------------------
# Exact linear algebra


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)
    assert smith_normal_form([[1, 0], [0, 0]]).diagonal == (1,)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    assert smith_normal_form([[3]]).diagonal == (3,)
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]).diagonal == (2, 2, 60)
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]).diagonal == (1, 30, 30)
    assert smith_normal_form([[0, 2], [3, 0]]).diagonal == (1, 6)
    assert smith_normal_form([[-2]]).diagonal == (2,)
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[], []]).diagonal == ()


def test_invariant_factors():
    # Z/6 + Z/10 + Z/15 = (Z/2)^2 + (Z/3)^2 + (Z/5)^2 = (Z/30)^2.
    assert invariant_factors([6, 10, 15]) == (30, 30)
    assert invariant_factors([1, 2, 3, 4]) == (2, 12)
    assert invariant_factors([1, 1]) == invariant_factors([]) == ()


def test_smith_form_rejects_broken_chain():
    with pytest.raises(AssertionError):
        SmithForm((4, 2), 2)


def test_invariants_hold_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for snippet in ("from graphburning import SmithForm; SmithForm((4, 2), 2)",
                    "from graphburning import HomologyGroup; HomologyGroup(1, (4, 2))",
                    "from graphburning import Burning, path_graph; "
                    "Burning(path_graph(3), (0,), (1, 3, 3), 3).check_invariants()"):
        done = subprocess.run([sys.executable, "-O", "-c", snippet], env=env,
                              capture_output=True, text=True)
        assert done.returncode != 0 and "InvariantError" in done.stderr


# Mostly zeros and many units, as in boundary matrices, plus any small integer.
SPARSE_ENTRIES = st.one_of(st.just(0), st.just(0), st.sampled_from((1, -1)),
                           st.integers(-9, 9))


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_smith_vs_minor_gcd_oracle(rows, cols, data):
    m = [[data.draw(SPARSE_ENTRIES) for _ in range(cols)]
         for _ in range(rows)]
    assert smith_normal_form(m) == determinantal_divisor_snf(m)


@given(st.integers(0, 5), st.integers(0, 5), st.sampled_from(["q", "p:2", "p:3"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_field_echelon_matches_dense_elimination(rows, cols, coeff, data):
    m = [[data.draw(SPARSE_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    p = 0 if coeff == "q" else int(coeff[2:])
    ops = FieldOps(p or None)
    rank = field_rank(m, ops)
    assert matrix_rank_over(m, coeff) == rank
    # Tagging column j with e_j turns each dependent column into a kernel vector.
    echelon = FieldEchelon(p)
    kernel = [relation for j in range(cols)
              if (relation := echelon.insert({i: m[i][j] for i in range(rows)}, {j: 1}))
              is not None]
    assert len(kernel) == cols - rank and len(echelon.rows) == rank
    for vector in kernel:
        for row in m:
            total = sum(row[j] * x for j, x in vector.items())
            assert (total % p if p else total) == 0


def test_field_ops():
    q = FieldOps()
    f5 = FieldOps(5)
    assert f5.div(1, 2) == 3
    assert q.div(1, 2) * 2 == 1
    with pytest.raises(ValueError):
        FieldOps(6)


def test_rref_pivots():
    ops = FieldOps()
    m = [[1, 2, 3], [2, 4, 6]]
    _, pivots = rref(m, ops)
    assert pivots == [0]
    assert field_rank(m, ops) == 1


# ---------------------------------------------------------------------------
# Chain complexes


def _assert_matches_tuple_route(c):
    """`faces`, `skeleton`, the Euler characteristic and both chain complexes
    equal the tuple route's, dims and every column."""
    bases = face_tuples.levels(c)
    assert [faces(c, q) for q in range(len(bases) + 1)] == bases + [()]
    assert [skeleton(c, n).facets for n in range(len(bases))] == [
        face_tuples.skeleton_facets(c, n) for n in range(len(bases))]
    assert euler_characteristic(c) == face_tuples.euler_characteristic(c)
    for augmented in (False, True):
        cc = chain_complex(c, augmented)
        assert cc.dims == tuple(map(len, bases))
        assert list(cc.boundaries) == face_tuples.boundaries(c, augmented)


def _survey_graphs():
    """The benchmark's survey corpus for seed 1: 108 connected graphs on 8-10 vertices."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [Graph.from_edges(n, edges) for n, edges in workloads.survey_corpus(1)]


TUPLE_ROUTE_GRAPHS = {
    "verify": lambda: [g for _, g in named_graphs(8) + random_graphs(50, 7)
                       + connected_corpus(6)],
    "survey": _survey_graphs,
    "paths-cycles": lambda: [f(n) for f in (path_graph, cycle_graph) for n in range(12, 21)],
    "sums": lambda: [iterated_sum(k, path_graph(2)) for k in range(1, 9)],
}


def test_tuple_route_on_standard_complexes():
    # The oracle's signs: deleting u_i gives (-1)^i.
    assert face_tuples.boundary_of((0, 1, 2)) == [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]
    assert face_tuples.boundary_of((4,)) == [((), 1)]
    for c in (FULL_TRIANGLE, HOLLOW_TRIANGLE, TETRA_BOUNDARY, PROJECTIVE_PLANE, SCATTERED):
        _assert_matches_tuple_route(c)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_tuple_route_on_random_complexes(c):
    _assert_matches_tuple_route(c)


@pytest.mark.parametrize("family", TUPLE_ROUTE_GRAPHS)
def test_tuple_route_on_configuration_spaces(family):
    for g in TUPLE_ROUTE_GRAPHS[family]():
        _assert_matches_tuple_route(configuration_space(g))


def test_chain_complex_of_hollow_triangle():
    cc = chain_complex(HOLLOW_TRIANGLE)
    assert cc.dims == (3, 3)
    assert cc.boundary(1) == [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
    assert dense(cc, 1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert dense(cc, 0) == []
    assert dense(cc, 5) == []


def test_augmented_chain_complex():
    cc = chain_complex(HOLLOW_TRIANGLE, augmented=True)
    assert dense(cc, 0) == [[1, 1, 1]]
    product = mat_mul(dense(cc, 0), dense(cc, 1))
    assert all(x == 0 for row in product for x in row)


def test_square_zero_check_applies_the_augmentation():
    """One edge has no d_1 d_2 to check, so only epsilon d_1 = 0 sees a
    boundary with two +1 signs, augmented complex or not."""
    for augmented in (False, True):
        vertices = [{0: 1} if augmented else {}] * 2
        _assert_square_zero(ChainComplexZ((2, 1), (vertices, [{0: -1, 1: 1}]), augmented))
        with pytest.raises(InvariantError, match="nonzero out of degree 1"):
            _assert_square_zero(ChainComplexZ((2, 1), (vertices, [{0: 1, 1: 1}]), augmented))


@given(complexes())
@settings(max_examples=50, deadline=None)
def test_boundary_squared_zero(c):
    cc = chain_complex(c)
    for q in range(1, len(cc.dims)):
        lower, upper = dense(cc, q - 1), dense(cc, q)
        if lower and upper and upper[0]:
            assert all(x == 0 for row in mat_mul(lower, upper) for x in row)


# ---------------------------------------------------------------------------
# Homology groups


def test_homology_group_formatting():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert HomologyGroup(0).is_trivial
    with pytest.raises(AssertionError):
        HomologyGroup(1, (4, 2))


def test_homology_of_standard_spaces():
    assert [str(h) for h in homology(FULL_TRIANGLE)] == ["Z", "0", "0"]
    assert [str(h) for h in homology(HOLLOW_TRIANGLE)] == ["Z", "Z"]
    assert [str(h) for h in homology(TETRA_BOUNDARY)] == ["Z", "0", "Z"]


def test_homology_torsion_of_projective_plane():
    groups = homology(PROJECTIVE_PLANE)
    assert [str(h) for h in groups] == ["Z", "Z/2", "0"]
    # Over the rationals the torsion disappears; mod 2 it spreads out.
    assert [h.free_rank for h in homology(PROJECTIVE_PLANE, coeff="q")] == [1, 0, 0]
    assert [h.free_rank for h in homology(PROJECTIVE_PLANE, coeff="p:2")] == [1, 1, 1]
    assert [h.free_rank for h in homology(PROJECTIVE_PLANE, coeff="p:3")] == [1, 0, 0]


def test_reduced_homology():
    groups = homology(TETRA_BOUNDARY, reduced=True)
    assert [str(h) for h in groups] == ["0", "0", "Z"]


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_reduced_drops_one_component(c):
    plain = homology(c)
    reduced = homology(c, reduced=True)
    assert reduced[0].free_rank == plain[0].free_rank - 1
    assert reduced[1:] == plain[1:]


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_euler_characteristic_consistency(c):
    chi = euler_characteristic(c)
    assert chi == sum((-1) ** q * h.free_rank for q, h in enumerate(homology(c)))
    rational = homology(c, coeff="q")
    assert chi == sum((-1) ** q * h.free_rank for q, h in enumerate(rational))


def test_coefficient_parsing():
    with pytest.raises(ValueError):
        homology(FULL_TRIANGLE, coeff="r")
    with pytest.raises(ValueError):
        homology(FULL_TRIANGLE, coeff="p:6")


def _elimination_free_ranks(c, reduced, coeff):
    """Oracle: dim(q) - rank(d_q) - rank(d_{q+1}) by field elimination."""
    ops = FieldOps(None if coeff == "q" else int(coeff[2:]))
    cc = chain_complex(c, augmented=reduced)
    return [cc.dim(q) - field_rank(dense(cc, q), ops)
            - field_rank(dense(cc, q + 1), ops) for q in range(len(cc.dims))]


def _assert_field_ranks_match_elimination(c):
    for reduced in (False, True):
        for coeff in ("q", "p:2", "p:3"):
            got = [h.free_rank for h in homology(c, reduced, coeff)]
            assert got == _elimination_free_ranks(c, reduced, coeff), (reduced, coeff)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_field_ranks_match_elimination(c):
    _assert_field_ranks_match_elimination(c)


@pytest.mark.parametrize("c", [PROJECTIVE_PLANE, join(PROJECTIVE_PLANE, S0)],
                         ids=["RP2", "suspension-RP2"])
def test_field_ranks_match_elimination_with_torsion(c):
    _assert_field_ranks_match_elimination(c)


def _assert_matches_unreduced_route(c):
    for reduced in (False, True):
        for coeff in ("z", "q", "p:2", "p:3"):
            assert homology(c, reduced, coeff) == unreduced_homology(c, reduced, coeff), (
                reduced, coeff)


@given(complexes())
@settings(max_examples=80, deadline=None)
def test_coreduction_matches_unreduced_route(c):
    _assert_matches_unreduced_route(c)


def test_coreduction_matches_unreduced_route_on_random_complexes():
    # Many more complexes than the hypothesis test: pairing a cell that still
    # has two faces gives wrong groups on well under 1% of them.
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randint(1, 8)
        generators = [rng.sample(range(n), rng.randint(1, min(4, n)))
                      for _ in range(rng.randint(1, 8))]
        c = from_generators(n, [sorted(s) for s in generators] + [(v,) for v in range(n)])
        coeff = rng.choice(("z", "q", "p:2", "p:3"))
        for reduced in (False, True):
            assert homology(c, reduced, coeff) == unreduced_homology(c, reduced, coeff)


@pytest.mark.parametrize("c", [PROJECTIVE_PLANE, join(PROJECTIVE_PLANE, S0), SCATTERED],
                         ids=["RP2", "suspension-RP2", "scattered"])
def test_coreduction_keeps_torsion_and_components(c):
    _assert_matches_unreduced_route(c)


def test_coreduction_matches_unreduced_route_on_configuration_spaces():
    rng = random.Random(20261018)
    disconnected = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.4])
        if rng.random() < 0.25:
            g = disjoint_union(g, path_graph(rng.randint(1, 3)))
        disconnected += not classify(g).connected
        _assert_matches_unreduced_route(configuration_space(g))
    assert disconnected > 10


def test_coreduction_leaves_few_cells():
    # Spheres coreduce to their top cell; conf(C12) to a basis of H_3 = Z^36.
    for k in range(2, 7):
        cc = chain_complex(configuration_space(iterated_sum(k, path_graph(2))))
        generators, alive = _coreduce(cc)
        assert generators == 1 and [sum(a) for a in alive] == [0] * (k - 1) + [1], k
    _, alive = _coreduce(chain_complex(configuration_space(cycle_graph(12))))
    assert [sum(a) for a in alive] == [0, 0, 0, 36]


RINGS = ("z", "q", "p:2", "p:3")


def _assert_cached_reduction_matches(c):
    """Fresh and cached reductions agree with each other and with the oracle."""
    for reduced in (False, True):
        _reduction.cache_clear()
        fresh = [homology(c, reduced, coeff) for coeff in RINGS]
        assert _reduction.cache_info().misses == 1
        assert [homology(c, reduced, coeff) for coeff in RINGS] == fresh
        assert fresh == [unreduced_homology(c, reduced, coeff) for coeff in RINGS]
        free = [[h.free_rank for h in groups] for groups in fresh[1:]]
        assert free == [_elimination_free_ranks(c, reduced, coeff) for coeff in RINGS[1:]]


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_one_reduction_serves_every_ring(c):
    _assert_cached_reduction_matches(c)


@pytest.mark.parametrize("c", [PROJECTIVE_PLANE, join(PROJECTIVE_PLANE, S0), SCATTERED],
                         ids=["RP2", "suspension-RP2", "scattered"])
def test_one_reduction_serves_every_ring_with_torsion(c):
    _assert_cached_reduction_matches(c)


def test_reduction_cache_is_bounded_and_reused():
    # The survey asks each complex for H over Z, then Q, then F_2: one
    # reduction, then two cache hits.  The reduced groups are a third hit.
    _reduction.cache_clear()
    spaces = [configuration_space(path_graph(n)) for n in range(1, 13)]
    for n, c in enumerate(spaces, start=1):
        for coeff in ("z", "q", "p:2"):
            homology(c, coeff=coeff)
        info = _reduction.cache_info()
        assert (info.misses, info.hits) == (n, 3 * n - 1)
        homology(c, reduced=True)
        info = _reduction.cache_info()
        assert (info.misses, info.hits) == (n, 3 * n)
    assert _reduction.cache_info().currsize < len(spaces)


@st.composite
def scattered_complexes(draw):
    """Side by side: up to three random complexes and up to two isolated vertices."""
    parts = draw(st.lists(complexes(max_vertices=5, max_facets=5), min_size=1, max_size=3))
    isolated = draw(st.integers(0, 2))
    generators: list[tuple[int, ...]] = []
    n = 0
    for part in parts:
        generators += [tuple(v + n for v in f) for f in part.facets]
        n += part.vertex_count
    generators += [(v,) for v in range(n, n + isolated)]
    return from_generators(n + isolated, generators)


@given(scattered_complexes())
@settings(max_examples=80, deadline=None)
def test_strong_core_keeps_homology(c):
    core = _strong_core(c)
    assert _strong_core(core) is core  # no dominated vertex is left
    # The oracle builds and reduces every face of the whole complex, and
    # returns one group per degree 0..dim c.
    _assert_matches_unreduced_route(c)


def test_strong_core_keeps_projective_plane_torsion():
    # The 6-vertex RP^2 has no dominated vertex; a tetrahedron glued on one
    # of its triangles has one, and collapses back onto RP^2.
    assert _strong_core(PROJECTIVE_PLANE) is PROJECTIVE_PLANE
    glued = from_generators(7, sorted(PROJECTIVE_PLANE.facets - {(0, 1, 2)}) + [(0, 1, 2, 6)])
    assert _strong_core(glued) == PROJECTIVE_PLANE
    assert [str(h) for h in homology(glued)] == ["Z", "Z/2", "0", "0"]
    _assert_matches_unreduced_route(glued)


def test_collapsed_degrees_are_still_reported():
    # Both collapse to a point; every degree up to the input's dimension stays.
    p13 = configuration_space(path_graph(13))
    coned = join(PROJECTIVE_PLANE, POINT)
    for c in (p13, coned):
        assert _strong_core(c).vertex_count == 1
        assert [str(h) for h in homology(c)] == ["Z"] + ["0"] * c.dimension
        assert [str(h) for h in homology(c, reduced=True, coeff="p:2")] == [
            "0"] * (c.dimension + 1)
    assert p13.dimension == 6 and coned.dimension == 3


def _assert_cross_polytope_boundary(c, k):
    """2k vertices in k pairs that share no facet; the 2^k facets are every
    choice of one vertex per pair."""
    vertices = range(c.vertex_count)
    assert c.vertex_count == 2 * k and len(c.facets) == 2 ** k
    apart = {v: [w for w in vertices if w != v
                 and not any(v in f and w in f for f in c.facets)] for v in vertices}
    assert all(len(others) == 1 for others in apart.values())
    pairs = {tuple(sorted((v, others[0]))) for v, others in apart.items()}
    assert len(pairs) == k
    assert all(len(f) == k and all(len(set(f) & set(pair)) == 1 for pair in pairs)
               for f in c.facets)


def test_path_cores_match_kozlov():
    # Kozlov (JCTA 1999): Ind(P_n) is a point for n = 3k+1 and S^{k-1} for
    # n = 3k-1 or n = 3k; the core is that point or the boundary of the
    # k-cross-polytope, so it certifies the homotopy type.
    for n in range(1, 23):
        core = _strong_core(configuration_space(path_graph(n)))
        k, r = divmod(n + 1, 3)
        if r == 2:
            assert core == SimplicialComplex(1, frozenset({0b1})), n
        else:
            _assert_cross_polytope_boundary(core, k)


def _subdivision(c):
    """The barycentric subdivision: a vertex per face of c, and a facet per
    chain of faces from a facet of c down to a vertex."""
    index = {m: i for i, m in enumerate(m for level in c.lattice for m in level)}

    def chains(m):
        if m.bit_count() == 1:
            yield (index[m],)
        else:
            for v in _vertices(m):
                yield from ((index[m],) + rest for rest in chains(m ^ 1 << v))

    return from_generators(len(index), [tuple(sorted(ch)) for m in c.masks for ch in chains(m)])


@st.composite
def joins(draw):
    """The join of two or three parts: small random complexes or their strong
    cores other than a point, which keep the join from collapsing to a point,
    and RP^2 at most once."""
    small = complexes(max_vertices=4, max_facets=3)
    part = st.one_of(small, small.map(_strong_core).filter(lambda c: c.vertex_count > 1))
    parts = draw(st.lists(part, min_size=1, max_size=3))
    if len(parts) == 1 or (len(parts) == 2 and draw(st.booleans())):
        parts.insert(draw(st.integers(0, len(parts))), PROJECTIVE_PLANE)
    return reduce(join, parts)


@given(joins())
@settings(max_examples=50, deadline=None)
def test_join_split_matches_unreduced_route(c):
    _assert_matches_unreduced_route(c)


def test_join_split_of_path_and_cycle_cores():
    # conf(P14)'s core is the boundary of the 5-cross-polytope, five S^0s;
    # conf(C12)'s core is no join.
    assert _join_factors(_strong_core(configuration_space(path_graph(14)))) == [S0] * 5
    core = _strong_core(configuration_space(cycle_graph(12)))
    assert _join_factors(core) == [core]


def test_join_split_keeps_torsion():
    # Sigma(RP^2) * RP^2 = Sigma(RP^2 * RP^2): Z/2 (x) Z/2 in degree 4 and
    # Tor(Z/2, Z/2) in degree 5.  RP^2's 1-skeleton is complete, so only S^0
    # splits off, and RP^2 * RP^2 takes the unsplit route.
    twisted = join(join(PROJECTIVE_PLANE, S0), PROJECTIVE_PLANE)
    assert len(_join_factors(twisted)) == 2
    assert [str(h) for h in homology(twisted)] == ["Z", "0", "0", "0", "Z/2", "Z/2", "0"]
    assert homology(twisted, reduced=True) == unreduced_homology(twisted, reduced=True)
    # Over F_2 each Z/2 counts in its degree and the one above.
    assert [h.free_rank for h in homology(twisted, True, "p:2")] == [0, 0, 0, 0, 1, 2, 1]
    # The subdivided RP^2 has a connected non-edge graph, so its join with
    # itself splits in two, and the Z/2 of degree 4 comes from the Tor term alone.
    sd = _subdivision(PROJECTIVE_PLANE)
    assert (sd.vertex_count, len(sd.masks)) == (31, 60)
    assert [str(h) for h in homology(sd)] == ["Z", "Z/2", "0"]
    squared = join(sd, sd)
    assert _join_factors(_strong_core(squared)) == [sd, sd]
    for reduced in (False, True):
        for coeff in RINGS:
            assert homology(squared, reduced, coeff) == homology(
                join(PROJECTIVE_PLANE, PROJECTIVE_PLANE), reduced, coeff), (reduced, coeff)


def test_homology_record():
    records = homology_to_record(homology(PROJECTIVE_PLANE))
    assert records[1] == {"degree": 1, "free_rank": 0, "torsion": [2]}
    rational = homology_to_record(homology(PROJECTIVE_PLANE, coeff="q"), "q")
    assert rational[0]["field"] == "Q"


def test_homology_of_burning_configuration_spaces():
    table = {n: [str(h) for h in homology(configuration_space(path_graph(n)))]
             for n in range(1, 6)}
    assert table == {1: ["Z"], 2: ["Z^2"], 3: ["Z^2", "0"], 4: ["Z", "0"],
                     5: ["Z", "Z", "0"]}


def test_path_spaces_match_kozlov():
    for n in range(1, 11):
        # conf(P_n) is the independence complex Ind(P_n): its facets are the
        # maximal vertex sets with no two consecutive vertices.
        independent = [
            s for k in range(1, n + 1)
            for s in itertools.combinations(range(n), k)
            if all(b - a > 1 for a, b in zip(s, s[1:]))]
        maximal = {s for s in independent
                   if not any(set(s) < set(t) for t in independent)}
        space = configuration_space(path_graph(n))
        assert space.facets == maximal, n
        # Kozlov (JCTA 1999): Ind(P_n) is a point for n = 3k+1 and S^{k-1}
        # for n = 3k-1 or n = 3k.
        k, r = divmod(n + 1, 3)
        if r == 2:
            want = {0: 1}
        elif k == 1:
            want = {0: 2}
        else:
            want = {0: 1, k - 1: 1}
        groups = homology(space)
        assert not any(g.torsion for g in groups), n
        assert {q: g.free_rank for q, g in enumerate(groups)
                if g.free_rank} == want, n


# ---------------------------------------------------------------------------
# Induced maps


def test_chain_map_collapse():
    point = SimplicialComplex(1, frozenset({0b1}))
    squash = validate_simplicial_map((0, 0, 0), HOLLOW_TRIANGLE, point)
    assert dense_columns(chain_map_matrix(squash, 1), 0) == []
    assert dense_columns(chain_map_matrix(squash, 0), 1) == [[1, 1, 1]]


def test_induced_map_rotation_and_reflection():
    rotate = validate_simplicial_map((1, 2, 0), HOLLOW_TRIANGLE, HOLLOW_TRIANGLE)
    reflect = validate_simplicial_map((0, 2, 1), HOLLOW_TRIANGLE, HOLLOW_TRIANGLE)
    assert induced_map(rotate, 1) == [[Fraction(1)]]
    assert induced_map(reflect, 1) == [[Fraction(-1)]]
    assert matrix_rank_over(induced_map(rotate, 1)) == 1


def test_induced_map_kills_filled_cycle():
    inclusion = validate_simplicial_map((0, 1, 2), HOLLOW_TRIANGLE, FULL_TRIANGLE)
    assert induced_map(inclusion, 1) == []  # target H_1 is trivial
    assert induced_map(inclusion, 0) == [[1]]


def test_induced_map_mod_two():
    ident = validate_simplicial_map(tuple(range(6)), PROJECTIVE_PLANE,
                                    PROJECTIVE_PLANE)
    assert induced_map(ident, 1, coeff="p:2") == [[1]]
    with pytest.raises(ValueError):
        induced_map(ident, 1, coeff="z")


def _symmetries_and_constants():
    """Self-maps: the rotations and reflections of conf(C_n) for n = 4..9, the
    reflection of conf(P_n) for n = 2..11, and a constant map on each."""
    for n in range(4, 10):
        c = configuration_space(cycle_graph(n))
        for k in range(n):
            yield validate_simplicial_map(tuple((v + k) % n for v in range(n)), c, c)
            yield validate_simplicial_map(tuple((k - v) % n for v in range(n)), c, c)
        yield validate_simplicial_map((0,) * n, c, c)
    for n in range(2, 12):
        c = configuration_space(path_graph(n))
        yield validate_simplicial_map(tuple(range(n - 1, -1, -1)), c, c)
        yield validate_simplicial_map((n - 1,) * n, c, c)


def _trace(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


@pytest.mark.parametrize("coeff", ["q", "p:2", "p:3"])
def test_hopf_trace_formula(coeff):
    """The alternating sum of traces is the same on homology and on chains."""
    p = 0 if coeff == "q" else int(coeff[2:])
    for f in _symmetries_and_constants():
        degrees = range(f.domain.dimension + 1)
        maps = [induced_map(f, q, coeff) for q in degrees]
        on_homology = sum((-1) ** q * _trace(maps[q]) for q in degrees)
        on_chains = sum((-1) ** q * sum(column.get(j, 0)
                                        for j, column in enumerate(chain_map_matrix(f, q)))
                        for q in degrees)
        if p:
            assert (on_homology - on_chains) % p == 0, f.vertex_fn
        else:
            assert on_homology == on_chains, f.vertex_fn
            assert all(isinstance(x, Fraction) for m in maps for row in m for x in row)


def _product(a, b, p):
    inner = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % p if p
             else sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


@pytest.mark.parametrize("coeff", ["q", "p:2", "p:3"])
def test_induced_maps_are_functorial(coeff):
    """(g f)_* = g_* f_* on conf(C_n) symmetries and through the triangles."""
    p = 0 if coeff == "q" else int(coeff[2:])
    point = SimplicialComplex(1, frozenset({0b1}))
    triangles = [validate_simplicial_map((1, 2, 0), HOLLOW_TRIANGLE, HOLLOW_TRIANGLE),
                 validate_simplicial_map((0, 1, 2), HOLLOW_TRIANGLE, FULL_TRIANGLE),
                 validate_simplicial_map((0, 0, 0), FULL_TRIANGLE, point)]
    chains = [triangles]
    for n in (5, 6, 9):
        c = configuration_space(cycle_graph(n))
        rotate = validate_simplicial_map(tuple((v + 1) % n for v in range(n)), c, c)
        reflect = validate_simplicial_map(tuple((-v) % n for v in range(n)), c, c)
        constant = validate_simplicial_map((2,) * n, c, c)
        chains.append([rotate, reflect, rotate, constant])
    for chain in chains:
        for f, g in zip(chain, chain[1:]):
            for q in range(f.domain.dimension + 1):
                composite = induced_map(compose_simplicial_maps(g, f), q, coeff)
                assert composite == _product(induced_map(g, q, coeff),
                                             induced_map(f, q, coeff), p), (q, f, g)
