import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphburning import (
    Burning,
    BurningError,
    IncompleteBurning,
    InvariantError,
    MorphismError,
    PrefixMismatch,
    SizeGuardExceeded,
    SourceTooEarly,
    TauIllDefined,
    admits_extension,
    burning_count,
    burning_map,
    burning_number,
    classify,
    compose_morphisms,
    configuration_space,
    enumerate_burnings,
    extremal_path_report,
    identity_morphism,
    induced_subgraph,
    is_b_burned,
    is_burning_extension,
    iter_burnings,
    minimal_b_burned_subgraphs,
    source_sets,
    validate_burning,
    validate_morphism,
)
from graphburning import burning, morphisms
from graphburning.burning import _burnings, _search
from graphburning.morphisms import _closed_form_witness
from graphburning.graphs import (
    Graph,
    Subgraph,
    complete_graph,
    cube_graph,
    cycle_graph,
    edgeless_graph,
    iterated_sum,
    path_graph,
    validate_graph_map,
    whole_graph,
)

from conftest import connected_graphs, graphs
from filtration import distances, filtration
from prefix_dfs import _ignite, prefix_burnings
from state_search import burned_states, search_on_burned_sets

# Two five-vertex graphs burned by the same source pair: on the first the
# burning map preserves every edge, on the second one edge collapses.
HOUSE_A = Graph.from_edges(5, [(0, 1), (0, 2), (2, 3), (1, 3), (3, 4)])
HOUSE_B = Graph.from_edges(5, [(3, 4), (1, 3), (0, 2), (2, 3), (0, 1), (1, 2)])


def test_validate_burning_basic():
    b = validate_burning(path_graph(5), (0, 3))
    assert b.times == (1, 2, 3, 2, 3)
    assert b.end_time == 3
    assert b.source_set() == frozenset({0, 3})
    b.check_invariants()


def test_source_too_early():
    with pytest.raises(SourceTooEarly) as err:
        validate_burning(path_graph(5), (0, 1))
    assert (err.value.step, err.value.vertex) == (2, 1)


def test_incomplete_burning():
    with pytest.raises(IncompleteBurning) as err:
        validate_burning(path_graph(9), (0,))
    assert err.value.unburned == (2, 3, 4, 5, 6, 7, 8)
    assert str(err.value) == "vertices [2, 3, 4, 5, 6, 7, 8] never burn"
    # Ten unburned vertices are all named; past ten, the first ten and the
    # count, while `unburned` keeps them all.
    with pytest.raises(IncompleteBurning) as err:
        validate_burning(path_graph(12), (0,))
    assert str(err.value) == "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] never burn"
    with pytest.raises(IncompleteBurning) as err:
        validate_burning(path_graph(13), (0,))
    assert err.value.unburned == tuple(range(2, 13))
    assert str(err.value) == ("vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] "
                              "never burn (11 in all)")


def test_bad_source_sequences():
    g = path_graph(4)
    with pytest.raises(BurningError):
        validate_burning(g, ())
    with pytest.raises(BurningError):
        validate_burning(g, (0, 0))
    with pytest.raises(BurningError):
        validate_burning(g, (7,))


def _folded(g, dist, seq):
    """validate_burning's outcome by folding `_ignite` over the distances."""
    best = [math.inf] * g.vertex_count
    for j, v in enumerate(seq, start=1):
        ignited = _ignite(dist, best, j, v)
        if ignited is None:
            return SourceTooEarly, j, v
        best = ignited
    unburned = tuple(v for v in g.vertices if best[v] > len(seq) + 1)
    if unburned:
        return IncompleteBurning, unburned
    return tuple(best), max(best)


@given(graphs(max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_validate_matches_literal_fold(g):
    """Times and end time, or the error and its fields, as the distance fold
    gives them: every sequence of up to three distinct vertices and the
    sources of every listed burning."""
    sequences = [seq for k in range(1, 4) for seq in permutations(g.vertices, k)]
    dist = distances(g)
    for seq in sequences + [b.sources for b in enumerate_burnings(g)]:
        try:
            b = validate_burning(g, seq)
        except SourceTooEarly as exc:
            got = SourceTooEarly, exc.step, exc.vertex
        except IncompleteBurning as exc:
            got = IncompleteBurning, exc.unburned
        else:
            got = b.times, b.end_time
        assert got == _folded(g, dist, seq), seq


@pytest.mark.parametrize("times, sources, message", [
    ((2, 2, 3), (0,), "source 0 burns at 2 != 1"),
    ((1, 3, 3), (0,), "times not surjective onto 1..T"),
    ((1, 2, 3), (0,), "T=3 with k=1"),
    ((1, 3, 2), (0, 2), "edge (0,1) jumps more than one step"),
    ((1, 2, 3), (0, 1), "consecutive sources 0,1 adjacent"),
    ((1,), (0,), "1 times for 3 vertices"),
    ((1, 2, 2), (5,), "source 5 out of range"),
])
def test_check_invariants_raises(times, sources, message):
    """Every broken invariant of a hand-built burning of P3 raises its message."""
    with pytest.raises(InvariantError) as err:
        Burning(path_graph(3), sources, times, max(times)).check_invariants()
    assert str(err.value) == message


@given(connected_graphs(max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_times_match_filtration(g):
    """The closed-form time function equals first appearance in the filtration."""
    for b in enumerate_burnings(g)[:20]:
        states = filtration(g, b.sources)
        for v in g.vertices:
            first = next(s.step for s in states if v in s.burned_now)
            assert b.time(v) == first


@given(graphs(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_residual_state_is_distance_to_burned_set(g):
    """Before step j, u_j = max(best - j + 1, 0) is d(w, S) off S and 0 on S,
    where S = N_{j-1} is the region burned by step j - 1, and the region U_j
    burned at step j before v_j ignites is N[S] = {u_j <= 1}.  So S alone
    fixes the residual state, v_j is admissible iff it is off N[S], and
    N[S], which keys the searches' memos, fixes every later step.

    best is folded through `_ignite`; S and U_j are the filtration's literal
    induced unions.  Every prefix of every burning is checked, the full one
    included, on an evenly spaced sample of at most 150 burnings.
    """
    dist = distances(g)
    listed = list(prefix_burnings(g))
    for b in listed[::math.ceil(len(listed) / 150)]:
        states = filtration(g, b.sources)
        best = [math.inf] * g.vertex_count
        for j in range(1, len(b.sources) + 2):
            if j > 1:
                best = _ignite(dist, best, j - 1, b.sources[j - 2])
            burned = set(states[j - 2].burned_now) if j > 1 else set()
            u = [max(t - j + 1, 0) for t in best]
            assert u == [
                0 if w in burned else min((dist[w][x] for x in burned), default=math.inf)
                for w in g.vertices], (b.sources, j)
            if j > 1:
                assert states[j - 1].burned_before_source == tuple(
                    w for w in g.vertices if u[w] <= 1), (b.sources, j)


@given(graphs(max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_brute_force(g):
    """Compare the backtracking enumerator against trying every permutation."""
    found = {(b.sources, b.times, b.end_time) for b in enumerate_burnings(g)}
    brute = set()
    for k in range(1, g.vertex_count + 1):
        for seq in permutations(range(g.vertex_count), k):
            try:
                b = validate_burning(g, seq)
            except BurningError:
                continue
            brute.add((b.sources, b.times, b.end_time))
    assert found == brute


@given(graphs(max_vertices=5))
@settings(max_examples=25, deadline=None)
def test_enumeration_matches_literal_filtration(g):
    """Every permutation prefix judged by the literal filtration alone.

    A sequence is a burning iff v_j is not in U_j for j >= 2 and N_{k+1} = V;
    its times are first appearances in the filtration.  validate_burning, the
    search and the listing share one burn step, `_expand`, so this is their
    independent oracle.
    """
    everything = set(g.vertices)
    brute = set()
    for k in range(1, g.vertex_count + 1):
        for seq in permutations(range(g.vertex_count), k):
            states = filtration(g, seq)
            if any(v in state.burned_before_source
                   for v, state in zip(seq[1:], states[1:])):
                continue
            if set(states[-1].burned_now) != everything:
                continue
            times = tuple(next(st.step for st in states if v in st.burned_now)
                          for v in g.vertices)
            brute.add((seq, times, max(times)))
    assert {(b.sources, b.times, b.end_time) for b in enumerate_burnings(g)} == brute
    # The memoised search shares no step with this oracle either.
    assert set(source_sets(g)) == {tuple(sorted(seq)) for seq, _, _ in brute}
    assert burning_number(g) == min(end for _, _, end in brute)


def _listed(burnings):
    return [(b.sources, b.times, b.end_time, b.is_homomorphism) for b in burnings]


@given(graphs(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_listing_matches_prefix_dfs(g):
    """The walk over residual states lists what the prefix DFS lists, in order.

    From every one- and two-vertex start, admissible or not, the extension
    of the start is the first that the prefix DFS lists.
    """
    assert _listed(enumerate_burnings(g)) == _listed(prefix_burnings(g))
    for v in g.vertices:
        for start in [(v,)] + [(v, w) for w in g.vertices if w != v]:
            h = edgeless_graph(len(start))
            embed = validate_graph_map(start, h, g)
            b_h = validate_burning(h, tuple(h.vertices))
            first = first_extension_in_listing(b_h, embed, prefix_burnings(g, start))
            assert admits_extension(b_h, embed, g) == first, start


def test_listing_matches_prefix_dfs_on_families():
    cases = ([path_graph(n) for n in range(1, 11)] + [cycle_graph(n) for n in range(3, 11)]
             + [iterated_sum(k, path_graph(2)) for k in range(1, 5)])
    for g in cases:
        assert _listed(enumerate_burnings(g)) == _listed(prefix_burnings(g))


def test_completion_counts():
    """A state's count is the sum over its children; k x P2 has k! 2^k burnings."""
    for g in [path_graph(n) for n in range(1, 13)] + [cycle_graph(12)]:
        assert burning_count(g) == len(list(prefix_burnings(g)))
    for k in range(1, 9):
        g = iterated_sum(k, path_graph(2))
        assert burning_count(g) == math.factorial(k) * 2 ** k


def test_oversized_listing_is_refused_before_it_starts(monkeypatch):
    def must_not_list(*args, **kwargs):
        raise AssertionError("the listing started")

    monkeypatch.setattr(burning, "_burnings", must_not_list)
    with pytest.raises(SizeGuardExceeded, match="has 645,120 burnings"):
        enumerate_burnings(iterated_sum(7, path_graph(2)))
    # The count comes from the search and its state budget: 7xP2 has 897 states.
    _search.cache_clear()
    monkeypatch.setattr(burning, "_SEARCH_STATES", 896)
    with pytest.raises(SizeGuardExceeded, match="896 residual states"):
        enumerate_burnings(iterated_sum(7, path_graph(2)))


def test_iter_burnings_refuses_on_the_call():
    """The count runs when `iter_burnings` is called, before any `next`."""
    with pytest.raises(SizeGuardExceeded, match="has 645,120 burnings"):
        iter_burnings(iterated_sum(7, path_graph(2)))
    g = iterated_sum(6, path_graph(2))
    listing = iter_burnings(g)
    assert iter(listing) is listing
    assert next(listing) == validate_burning(g, (0, 2, 4, 6, 8, 10))


@given(graphs(max_vertices=6))
@settings(max_examples=60, deadline=None)
def test_search_matches_enumeration(g):
    """Source sets, burning number and count from the memoised residual-state search."""
    burnings = enumerate_burnings(g)
    assert burning_count(g) == len(burnings)
    assert list(iter_burnings(g)) == list(burnings)
    assert set(source_sets(g)) == {tuple(sorted(b.sources)) for b in burnings}
    assert list(source_sets(g)) == sorted(source_sets(g))
    assert burning_number(g) == min(b.end_time for b in burnings)


@given(graphs(max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_all_burnings_satisfy_invariants(g):
    for b in enumerate_burnings(g):
        b.check_invariants()
        burning_map(b)  # must at least be a graph map


def test_burning_number_of_paths():
    for n in range(1, 21):
        assert burning_number(path_graph(n)) == math.isqrt(n - 1) + 1


def test_sums_of_edges():
    """k x P2: one vertex of every edge per source set, all ending at k + 1."""
    for k in range(1, 8):
        g = iterated_sum(k, path_graph(2))
        sets = source_sets(g)
        assert len(sets) == 2 ** k
        assert all(sorted(v // 2 for v in s) == list(range(k)) for s in sets)
        assert len(configuration_space(g).facets) == 2 ** k
        assert burning_number(g) == k + 1


def _search_oracle_cases():
    rng = random.Random(22)
    pairs = {n: list(combinations(range(n), 2)) for n in range(1, 10)}
    corpus = []
    for _ in range(400):
        n = rng.randint(1, 9)
        corpus.append(Graph.from_edges(n, rng.sample(pairs[n], rng.randint(0, len(pairs[n])))))
    return corpus


def test_search_matches_burned_set_oracle():
    """Keyed on N[S], the search gives what the S-keyed search gives: source
    sets, least end time and count, on the families and 400 seeded random
    graphs with 1-9 vertices, disconnected ones included."""
    families = ([path_graph(n) for n in range(1, 21)] + [cycle_graph(n) for n in range(3, 21)]
                + [iterated_sum(k, path_graph(2)) for k in range(1, 8)] + [cube_graph()])
    corpus = _search_oracle_cases()
    assert sum(not classify(g).connected for g in corpus) > 50
    for g in families + corpus:
        masks, least, count, _ = search_on_burned_sets(g)
        assert _search(g) == (masks, least, count), g
    # The S-keyed search and the plain traversal meet the same states.
    assert search_on_burned_sets(path_graph(20))[3] == burned_states(path_graph(20)) == 13_180


def test_listing_matches_prefix_dfs_from_starts():
    """The walk, and the extension of every one-vertex start and a sample of
    two-vertex ones, against the prefix DFS."""
    rng = random.Random(23)
    for g in _search_oracle_cases()[:60]:
        if g.vertex_count > 7:
            continue
        assert _listed(_burnings(g)) == _listed(prefix_burnings(g))
        starts = [(v,) for v in g.vertices] + [
            tuple(rng.sample(range(g.vertex_count), 2))
            for _ in range(3) if g.vertex_count > 1]
        for start in starts:
            h = edgeless_graph(len(start))
            embed = validate_graph_map(start, h, g)
            b_h = validate_burning(h, tuple(h.vertices))
            first = first_extension_in_listing(b_h, embed, prefix_burnings(g, start))
            assert admits_extension(b_h, embed, g) == first, (g, start)


def test_enumeration_cache_is_bounded_and_reused():
    # Asked for its burning number and then its configuration space, a graph
    # is searched once and then found in the cache.
    _search.cache_clear()
    for n in range(1, 13):
        g = path_graph(n)
        burning_number(g)
        info = _search.cache_info()
        assert (info.misses, info.hits) == (n, n - 1)
        configuration_space(g)
        info = _search.cache_info()
        assert (info.misses, info.hits) == (n, n)
    assert _search.cache_info().currsize < 12
    # The survey lists the burnings first: the listing's count is the miss.
    _search.cache_clear()
    g = cycle_graph(9)
    enumerate_burnings(g)
    burning_number(g)
    configuration_space(g)
    info = _search.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_search_state_budget(monkeypatch):
    g = path_graph(9)
    _search.cache_clear()
    monkeypatch.setattr(burning, "_SEARCH_STATES", 10)
    with pytest.raises(SizeGuardExceeded, match="10 residual states"):
        burning_number(g)
    with pytest.raises(SizeGuardExceeded):
        configuration_space(g)
    # The failed search left no cache entry, so it runs again once allowed.
    assert _search.cache_info().currsize == 0
    # The budget counts the states entered: 7xP2 has 897, so 896 is too few.
    monkeypatch.setattr(burning, "_SEARCH_STATES", 896)
    with pytest.raises(SizeGuardExceeded, match="896 residual states"):
        burning_number(iterated_sum(7, path_graph(2)))
    monkeypatch.setattr(burning, "_SEARCH_STATES", 897)
    assert burning_number(iterated_sum(7, path_graph(2))) == 8
    # P20 enters exactly 13,180 states.
    monkeypatch.setattr(burning, "_SEARCH_STATES", 13_179)
    with pytest.raises(SizeGuardExceeded, match="13,179 residual states"):
        burning_number(path_graph(20))
    monkeypatch.setattr(burning, "_SEARCH_STATES", 13_180)
    assert burning_number(path_graph(20)) == 5
    _search.cache_clear()
    monkeypatch.undo()
    assert burning_number(g) == 3
    assert _search.cache_info().currsize == 1


def test_walk_state_budget(monkeypatch):
    """The listing walk follows the 472 states of P12 that the search meets,
    so the count of `iter_burnings` budgets it before it starts."""
    g = path_graph(12)
    assert burned_states(g) == 472
    _search.cache_clear()
    monkeypatch.setattr(burning, "_SEARCH_STATES", 471)
    with pytest.raises(SizeGuardExceeded, match="471 residual states"):
        iter_burnings(g)
    monkeypatch.setattr(burning, "_SEARCH_STATES", 472)
    listed = list(iter_burnings(g))
    assert len(listed) == 1_198
    assert _listed(listed) == _listed(prefix_burnings(g))


def test_search_budget_reach():
    """The budget admits P25, C25 and E16 and refuses P26, C26 and E17.

    The states are counted by the oracle's plain traversal, which matches
    the search's own count on P20 and 7xP2 (`test_search_state_budget`); an
    edgeless graph E_n meets all 2^n.  E16, with one region per state, runs
    at the real budget.
    """
    p20, p25, c25, c26, p26 = (burned_states(g) for g in (
        path_graph(20), path_graph(25), cycle_graph(25), cycle_graph(26), path_graph(26)))
    assert (p20, p25, c25, c26, p26) == (13_180, 89_118, 72_552, 105_159, 129_099)
    assert max(p25, c25, 2 ** 16) <= burning._SEARCH_STATES < min(c26, p26, 2 ** 17)
    assert burned_states(edgeless_graph(10)) == 2 ** 10
    assert burning_count(edgeless_graph(16)) == math.factorial(16)


def test_listing_budget(monkeypatch):
    g = path_graph(9)  # 164 burnings, 14 of them starting at vertex 4
    monkeypatch.setattr(burning, "_LISTED_BURNINGS", 10)
    with pytest.raises(SizeGuardExceeded, match="10 burnings"):
        enumerate_burnings(g)
    # An extension builds one completion and lists nothing, so no listing
    # budget refuses it.
    b_h = validate_burning(path_graph(1), (0,))
    assert admits_extension(b_h, validate_graph_map((4,), path_graph(1), g), g)
    monkeypatch.setattr(burning, "_LISTED_BURNINGS", 164)
    assert len(enumerate_burnings(g)) == 164


def test_budgets_bound_every_search(monkeypatch):
    g = path_graph(9)
    b_h = validate_burning(path_graph(1), (0,))
    embed = validate_graph_map((4,), path_graph(1), g)
    monkeypatch.setattr(burning, "_LISTED_BURNINGS", 0)
    with pytest.raises(SizeGuardExceeded, match="0 burnings"):
        enumerate_burnings(g)
    # An extension builds one completion and lists nothing.
    assert admits_extension(b_h, embed, g).sources == (4, 0, 7)
    monkeypatch.setattr(morphisms, "_SUBGRAPH_CANDIDATES", 0)
    with pytest.raises(SizeGuardExceeded, match="0 candidates"):
        minimal_b_burned_subgraphs(validate_burning(g, (4, 1, 7)))


def test_extension_stops_at_the_first_completion(monkeypatch):
    """6xP2 has 46,080 burnings; extending one source builds one completion
    and neither lists nor searches them."""
    def must_not_search(*args, **kwargs):
        raise AssertionError("searched the burnings")

    g = iterated_sum(6, path_graph(2))
    b_h = validate_burning(path_graph(1), (0,))
    monkeypatch.setattr(burning, "_burnings", must_not_search)
    monkeypatch.setattr(burning, "_search", must_not_search)
    b_g = admits_extension(b_h, validate_graph_map((0,), path_graph(1), g), g)
    assert b_g.sources == (0, 2, 4, 6, 8, 10)


def test_burning_map_edge_collapse():
    b_a = validate_burning(HOUSE_A, (0, 4))
    b_b = validate_burning(HOUSE_B, (0, 4))
    assert b_a.times == b_b.times == (1, 2, 2, 3, 2)
    assert burning_map(b_a).is_homomorphism
    assert not burning_map(b_b).is_homomorphism  # the extra edge collapses
    assert b_a.is_homomorphism
    assert not b_b.is_homomorphism


def _flag_matches_map(g):
    for b in enumerate_burnings(g):
        assert b.is_homomorphism == burning_map(b).is_homomorphism, b.sources


@given(graphs(max_vertices=6))
@settings(max_examples=50, deadline=None)
def test_homomorphism_flag_matches_burning_map(g):
    """The flag read off the times is the certified graph map's, on bipartite
    and disconnected graphs too."""
    _flag_matches_map(g)


def test_homomorphism_flag_matches_burning_map_on_families():
    cases = ([path_graph(n) for n in range(1, 11)] + [cycle_graph(n) for n in range(3, 11)]
             + [iterated_sum(k, path_graph(2)) for k in range(1, 5)])
    for g in cases:
        _flag_matches_map(g)


@given(graphs(max_vertices=6))
@settings(max_examples=30, deadline=None)
def test_no_homomorphism_without_two_coloring(g):
    """An edge-preserving burning map two-colors the graph by time parity."""
    if classify(g).bipartite:
        return
    for b in enumerate_burnings(g):
        assert not burning_map(b).is_homomorphism


# ---------------------------------------------------------------------------
# Morphisms


def test_morphism_worked_example():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4)])
    h = path_graph(3)
    b_g = validate_burning(g, (0, 2))
    b_h = validate_burning(h, (0, 2))
    f = validate_graph_map((0, 1, 2, 2, 2), g, h)
    m = validate_morphism(f, b_g, b_h)
    assert m.tau == (1, 2, 2)
    assert not m.tau_is_inclusion
    assert m.map_time(3) == 2


def test_morphism_prefix_mismatch():
    two_sources = validate_burning(path_graph(3), (0, 2))
    one_source = validate_burning(path_graph(3), (1,))
    ident = validate_graph_map((0, 1, 2), path_graph(3), path_graph(3))
    with pytest.raises(PrefixMismatch):
        validate_morphism(ident, two_sources, one_source)


def test_morphism_refusals_name_the_offence():
    p3 = path_graph(3)
    ident = validate_graph_map((0, 1, 2), p3, p3)
    with pytest.raises(PrefixMismatch, match="source 1 maps to 0, expected 2"):
        validate_morphism(ident, validate_burning(p3, (0, 2)), validate_burning(p3, (2, 0)))
    # The chord burns vertex 2 a step early, so time 3 splits on P5 + (0, 2).
    p5, chord = path_graph(5), Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    ident = validate_graph_map(tuple(p5.vertices), p5, chord)
    with pytest.raises(TauIllDefined, match="time 3 maps to both 2 and 3"):
        validate_morphism(ident, validate_burning(p5, (0, 4)), validate_burning(chord, (0, 4)))


def test_morphism_category_laws():
    burnings = [validate_burning(path_graph(n), s)
                for n, s in ((2, (0,)), (3, (0, 2)), (4, (0, 2)), (5, (0, 2, 4)))]
    chain = []
    for small, big in zip(burnings, burnings[1:]):
        inc = validate_graph_map(tuple(small.graph.vertices),
                                 small.graph, big.graph)
        chain.append(validate_morphism(inc, small, big))
    m1, m2, m3 = chain
    assert (compose_morphisms(m3, compose_morphisms(m2, m1)).graph_map.vertex_fn
            == compose_morphisms(compose_morphisms(m3, m2), m1).graph_map.vertex_fn)
    for m in chain:
        assert compose_morphisms(m, identity_morphism(m.domain)).tau == m.tau
        assert compose_morphisms(identity_morphism(m.codomain), m).tau == m.tau


# ---------------------------------------------------------------------------
# Compatibly burned subgraphs


FAN = Graph.from_edges(
    7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)])


def test_is_b_burned():
    b = validate_burning(FAN, (0, 5))
    good = Subgraph(FAN, (0, 1, 2, 5), frozenset({(0, 1), (1, 2), (2, 5)}))
    assert is_b_burned(good, b) is not None
    missing_source = induced_subgraph(FAN, [0, 1, 2])
    assert is_b_burned(missing_source, b) is None
    assert is_b_burned(whole_graph(FAN), b) is not None


def test_minimal_subgraphs_worked_example():
    b = validate_burning(FAN, (0, 5))
    got = [(h.vertices, tuple(sorted(h.edges)))
           for h in minimal_b_burned_subgraphs(b)]
    assert got == [
        ((0, 1, 2, 5), ((0, 1), (1, 2), (2, 5))),
        ((0, 1, 3, 5), ((0, 1), (1, 3), (3, 5))),
        ((0, 1, 4, 5), ((0, 1), (1, 4), (4, 5))),
    ]


def test_minimal_subgraphs_three_sources():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 6), (4, 5), (5, 6)])
    b = validate_burning(g, (0, 4, 6))
    got = sorted(h.vertices for h in minimal_b_burned_subgraphs(b))
    assert got == [(0, 1, 2, 3, 4, 6), (0, 1, 2, 4, 5, 6), (0, 1, 3, 4, 5, 6)]
    for h in minimal_b_burned_subgraphs(b):
        local, _ = h.as_graph()
        assert classify(local).tree


def literal_is_b_burned(h, b):
    """The subgraph's own burning by b's sources, checked against b directly.

    It must restrict b's time function and its inclusion must certify as a
    morphism of burnings; no use of the local rule.
    """
    if h.ambient != b.graph:
        raise BurningError("subgraph does not live in the burned graph")
    if not classify(b.graph).connected:
        raise BurningError("ambient graph must be connected")
    local, labels = h.as_graph()
    if not classify(local).connected:
        raise BurningError("subgraph must be connected")
    position = {v: i for i, v in enumerate(labels)}
    if any(v not in position for v in b.sources):
        return None
    try:
        b_local = validate_burning(local, tuple(position[v] for v in b.sources))
    except BurningError:
        return None
    if any(b_local.time(position[v]) != b.time(v) for v in labels):
        return None
    inclusion = validate_graph_map(labels, local, b.graph)
    try:
        validate_morphism(inclusion, b_local, b)
    except MorphismError:
        return None
    return b_local


@st.composite
def burned_subgraphs(draw):
    """A connected graph, one of its burnings and a connected subgraph."""
    g = draw(connected_graphs(max_vertices=6))
    b = draw(st.sampled_from(enumerate_burnings(g)))
    inside = {draw(st.sampled_from(g.vertices))}
    tree = set()
    for _ in range(draw(st.integers(0, g.vertex_count - 1))):
        leaving = sorted(e for e in g.edges if (e[0] in inside) != (e[1] in inside))
        if not leaving:
            break
        e = draw(st.sampled_from(leaving))
        tree.add(e)
        inside.update(e)
    spare = sorted(e for e in g.edges if set(e) <= inside and e not in tree)
    chords = draw(st.sets(st.sampled_from(spare))) if spare else set()
    return Subgraph(g, tuple(sorted(inside)), frozenset(tree | chords)), b


@given(burned_subgraphs())
@settings(max_examples=300, deadline=None)
def test_is_b_burned_matches_literal_oracle(case):
    h, b = case
    assert is_b_burned(h, b) == literal_is_b_burned(h, b)


def test_is_b_burned_matches_literal_oracle_on_every_subgraph():
    """Every burning against every connected subgraph of four small graphs."""
    for g in (FAN, HOUSE_B, cycle_graph(6), complete_graph(4)):
        subgraphs = []
        for r in range(1, g.vertex_count + 1):
            for vs in combinations(g.vertices, r):
                pool = sorted(e for e in g.edges if set(e) <= set(vs))
                for k in range(r - 1, len(pool) + 1):
                    subgraphs += [Subgraph(g, vs, frozenset(chosen))
                                  for chosen in combinations(pool, k)]
        subgraphs = [h for h in subgraphs if classify(h.as_graph()[0]).connected]
        for b in enumerate_burnings(g):
            for h in subgraphs:
                assert is_b_burned(h, b) == literal_is_b_burned(h, b)


def test_is_b_burned_refuses_disconnected_graphs():
    g = iterated_sum(2, path_graph(2))
    b = validate_burning(g, (0, 2))
    with pytest.raises(BurningError, match="ambient graph must be connected"):
        is_b_burned(whole_graph(g), b)
    with pytest.raises(BurningError, match="ambient graph must be connected"):
        minimal_b_burned_subgraphs(b)
    b = validate_burning(path_graph(3), (1,))
    with pytest.raises(BurningError, match="subgraph must be connected"):
        is_b_burned(induced_subgraph(path_graph(3), [0, 2]), b)


def test_minimal_subgraphs_one_source_on_complete_graphs():
    """Only the source itself: every larger tree has a non-source leaf."""
    for n in range(7, 13):
        got = minimal_b_burned_subgraphs(validate_burning(complete_graph(n), (0,)))
        assert [(h.vertices, h.edges) for h in got] == [((0,), frozenset())]


def test_subgraph_budget_reach(monkeypatch):
    """The budget counts path steps: the 4x5 grid burned from (0, 2, 4, 13,
    19) takes exactly 61,424 and is answered; the 5x5 grid is refused."""
    def grid(rows):
        return Graph.from_edges(rows * 5, [(v, v + 1) for v in range(rows * 5) if v % 5 < 4]
                                + [(v, v + 5) for v in range(rows * 5 - 5)])

    b = validate_burning(grid(4), (0, 2, 4, 13, 19))
    got = minimal_b_burned_subgraphs(b)
    assert len(set(got)) == len(got) > 0
    for h in got:
        ends = [v for e in h.edges for v in e]
        leaves = {v for v in h.vertices if ends.count(v) <= 1}
        assert classify(h.as_graph()[0]).tree and is_b_burned(h, b)
        assert leaves <= set(b.sources)
    with pytest.raises(SizeGuardExceeded, match="100,000 candidates"):
        minimal_b_burned_subgraphs(validate_burning(grid(5), (0, 2, 4, 13, 19)))
    monkeypatch.setattr(morphisms, "_SUBGRAPH_CANDIDATES", 61_423)
    with pytest.raises(SizeGuardExceeded, match="61,423 candidates"):
        minimal_b_burned_subgraphs(b)
    monkeypatch.setattr(morphisms, "_SUBGRAPH_CANDIDATES", 61_424)
    assert minimal_b_burned_subgraphs(b) == got


def literal_minimal_subgraphs(b):
    """Every connected compatibly burned subgraph, then the minimal ones."""
    g = b.graph
    others = [v for v in g.vertices if v not in b.sources]
    found = []
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            vs = tuple(sorted(set(b.sources).union(extra)))
            pool = sorted(e for e in g.edges if set(e) <= set(vs))
            for k in range(len(vs) - 1, len(pool) + 1):
                for chosen in combinations(pool, k):
                    candidate = Subgraph(g, vs, frozenset(chosen))
                    local, _ = candidate.as_graph()
                    if (classify(local).connected
                            and literal_is_b_burned(candidate, b) is not None):
                        found.append(candidate)
    minimal = [h for h in found
               if not any(h.contains(other) and other != h for other in found)]
    return sorted(minimal, key=lambda h: (h.vertices, sorted(h.edges)))


@given(connected_graphs(max_vertices=6), st.data())
@settings(max_examples=20, deadline=None)
def test_minimal_subgraphs_match_literal_filter(g, data):
    b = data.draw(st.sampled_from(enumerate_burnings(g)))
    assert minimal_b_burned_subgraphs(b) == literal_minimal_subgraphs(b)


def test_minimal_subgraphs_match_literal_filter_on_eight_vertices():
    rng = random.Random(8)
    checked = 0
    while checked < 4:
        pairs = list(combinations(range(8), 2))
        g = Graph.from_edges(8, rng.sample(pairs, rng.randint(9, 12)))
        if not classify(g).connected:
            continue
        b = rng.choice(enumerate_burnings(g))
        assert minimal_b_burned_subgraphs(b) == literal_minimal_subgraphs(b)
        checked += 1


def test_minimal_subgraphs_match_literal_filter_on_dense_graphs():
    """Multi-source burnings of 7- and 8-vertex graphs with 13 or 14 edges."""
    rng = random.Random(13)
    checked = 0
    while checked < 8:
        n = 7 if checked < 4 else 8
        pairs = list(combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(13, 14)))
        multi = [b for b in enumerate_burnings(g) if len(b.sources) > 1]
        if not classify(g).connected or not multi:
            continue
        b = rng.choice(multi)
        assert minimal_b_burned_subgraphs(b) == literal_minimal_subgraphs(b)
        checked += 1


def test_minimal_subgraphs_past_the_old_size_caps():
    """P9 and a ten-vertex tree: more vertices than the search once allowed."""
    spider = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5),
                                   (5, 6), (0, 7), (7, 8), (8, 9)])
    for g in (path_graph(9), spider):
        for b in enumerate_burnings(g)[:5]:
            got = minimal_b_burned_subgraphs(b)
            assert got and got == literal_minimal_subgraphs(b)


# ---------------------------------------------------------------------------
# Extensions


def test_extension_triangle_fails():
    h = path_graph(3)
    g = complete_graph(3)
    embed = validate_graph_map((0, 1, 2), h, g)
    b_h = validate_burning(h, (0, 2))
    # No burning of the triangle starts with sources 0, 2: they are adjacent.
    assert admits_extension(b_h, embed, g) is None
    assert not is_burning_extension(embed)


def test_extension_path_into_longer_path():
    h, g = path_graph(3), path_graph(4)
    embed = validate_graph_map((0, 1, 2), h, g)
    b_h = validate_burning(h, (1,))
    b_g = admits_extension(b_h, embed, g)
    assert b_g is not None and b_g.sources[0] == 1
    assert is_burning_extension(embed)


@st.composite
def embeddings(draw):
    """An injective graph map from a random subgraph into a small graph."""
    g = draw(graphs(max_vertices=6))
    labels = draw(st.permutations(range(g.vertex_count)))
    labels = labels[:draw(st.integers(1, g.vertex_count))]
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
             if g.has_edge(labels[i], labels[j])]
    h = Graph.from_edges(len(labels), draw(st.sets(st.sampled_from(pairs)))
                         if pairs else ())
    return validate_graph_map(labels, h, g)


def first_extension_in_listing(b_h, embed, listing):
    """The first burning in the whole listing of G that extends b_h."""
    embedded = tuple(embed(v) for v in b_h.sources)
    for b_g in listing:
        if b_g.sources[:len(embedded)] != embedded:
            continue
        try:
            validate_morphism(embed, b_h, b_g)
        except MorphismError:
            continue
        return b_g
    return None


@given(embeddings())
@settings(max_examples=60, deadline=None)
def test_extension_matches_first_in_listing(embed):
    g = embed.codomain
    listing = enumerate_burnings(g)
    for b_h in enumerate_burnings(embed.domain):
        assert (admits_extension(b_h, embed, g)
                == first_extension_in_listing(b_h, embed, listing))


@given(embeddings())
@settings(max_examples=60, deadline=None)
def test_extension_matches_source_set_definition(embed):
    """Facets of conf(H) against every ordered burning of both graphs."""
    target = [b.source_set() for b in enumerate_burnings(embed.codomain)]
    expected = all(any({embed(v) for v in b.sources} <= s for s in target)
                   for b in enumerate_burnings(embed.domain))
    assert is_burning_extension(embed) == expected


def _graph_maps(rng, count):
    """Seeded graph maps H -> G into graphs with at most 7 vertices: half of
    them injective, the rest free to merge vertices along or across edges."""
    for _ in range(count):
        n = rng.randint(1, 7)
        pairs = list(combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        m = rng.randint(1, n)
        fn = rng.sample(range(n), m) if rng.random() < 0.5 else rng.choices(range(n), k=m)
        kept = [(i, j) for i, j in combinations(range(m), 2)
                if fn[i] == fn[j] or g.has_edge(fn[i], fn[j])]
        h = Graph.from_edges(m, rng.sample(kept, rng.randint(0, len(kept))))
        yield validate_graph_map(fn, h, g)


def _verdict(f, b_h, b_g):
    try:
        return validate_morphism(f, b_h, b_g).tau
    except MorphismError as exc:
        return str(exc)


def test_every_completion_gives_one_verdict():
    """README "Extensions": every completion of the image sources gives the
    images the same times, so one `validate_morphism` verdict and one tau;
    `admits_extension` returns the first completion if it extends, else None.
    Checked against the prefix DFS on 2,000 seeded graph maps."""
    rng = random.Random(25)
    seen = {"shared": 0, "merged": 0, "extended": 0, "refused": 0}
    for f in _graph_maps(rng, 2_000):
        burnings = enumerate_burnings(f.domain)
        for b_h in rng.sample(burnings, min(12, len(burnings))):
            completions = list(prefix_burnings(f.codomain, [f(v) for v in b_h.sources]))
            verdicts = {_verdict(f, b_h, b_g) for b_g in completions}
            assert len(verdicts) <= 1, (f, b_h.sources)
            injective = f.is_injective()
            seen["shared" if injective else "merged"] += len(completions) > 1
            if not injective:
                continue
            extends = any(isinstance(v, tuple) for v in verdicts)
            seen["extended" if extends else "refused"] += bool(verdicts)
            assert admits_extension(b_h, f, f.codomain) == (completions[0] if extends else None)
    # Every kind of case is met, non-injective maps with several completions too.
    assert seen == {"shared": 522, "merged": 182, "extended": 2_901, "refused": 67}


def test_extension_builds_one_completion(monkeypatch):
    """P5 with the chord (0, 2), beside nine isolated vertices: (0, 4) has 9!
    completions, past the listing budget, and none extends the burning of P5
    (the chord splits its time 3).  The answer comes with nothing listed."""
    def must_not_search(*args, **kwargs):
        raise AssertionError("searched the burnings")

    g = Graph.from_edges(14, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    p5 = path_graph(5)
    embed = validate_graph_map(tuple(p5.vertices), p5, g)
    monkeypatch.setattr(burning, "_burnings", must_not_search)
    monkeypatch.setattr(burning, "_search", must_not_search)
    assert admits_extension(validate_burning(p5, (0, 4)), embed, g) is None
    b_g = admits_extension(validate_burning(p5, (1, 4)), embed, g)
    assert b_g.sources == (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


# ---------------------------------------------------------------------------
# Extremal paths


def test_extremal_lengths():
    assert extremal_path_report("max-n-for-T", 3).n == 9
    assert extremal_path_report("max-n-for-T-hom", 3).n == 7
    assert extremal_path_report("max-n-for-k", 3).n == 15
    assert extremal_path_report("min-n-for-k", 3).n == 5
    assert extremal_path_report("min-n-for-k-hom", 3).n == 7


def test_extremal_witnesses_validate():
    for kind in ("max-n-for-T", "max-n-for-T-hom", "max-n-for-k",
                 "min-n-for-k", "min-n-for-k-hom"):
        for p in range(1, 13):
            report = extremal_path_report(kind, p)
            assert report.witness == tuple(
                v - 1 for v in _closed_form_witness(kind, p))
            b = validate_burning(path_graph(report.n), report.witness)
            if kind.startswith("max-n-for-T"):
                assert b.end_time == p
            else:
                assert len(b.sources) == p
            if kind.endswith("-hom"):
                assert burning_map(b).is_homomorphism


def test_extremal_closed_form_is_checked(monkeypatch):
    # Sources 1 and 4 burn P5, but with two sources where three are wanted.
    monkeypatch.setattr(morphisms, "_closed_form_witness", lambda kind, p: (1, 4))
    with pytest.raises(InvariantError, match="min-n-for-k at 3"):
        extremal_path_report("min-n-for-k", 3)


def test_extremal_bounds_are_tight():
    for t in (1, 2, 3):
        assert burning_number(path_graph(t * t + 1)) > t
    for k in (2, 3):
        assert all(len(s) < k for s in source_sets(path_graph(2 * k - 2)))


def test_extremal_witness_budget(monkeypatch):
    """A witness path past the budget is refused before it is built."""
    monkeypatch.setattr(burning, "_WITNESS_VERTICES", 9)
    monkeypatch.setattr(morphisms, "path_graph", lambda n: pytest.fail(f"built P{n}")
                        if n > 9 else path_graph(n))
    assert extremal_path_report("max-n-for-T", 3).n == 9
    with pytest.raises(SizeGuardExceeded, match="needs P16, past the witness budget of 9"):
        extremal_path_report("max-n-for-T", 4)


def test_bitmask_vertex_budget(monkeypatch):
    """Past the vertex budget the N[v] masks are refused before they are built."""
    g = path_graph(10)
    b = validate_burning(g, (5, 1, 8))
    _search.cache_clear()
    monkeypatch.setattr(burning, "_WITNESS_VERTICES", 9)
    monkeypatch.setattr(burning, "_adjacency", lambda g: pytest.fail("built the masks"))
    for call in (lambda: validate_burning(g, (5, 1, 8)), lambda: burning_number(g),
                 lambda: next(_burnings(g)), lambda: minimal_b_burned_subgraphs(b)):
        with pytest.raises(SizeGuardExceeded,
                           match="10 vertices is past the bitmask budget of 9 vertices"):
            call()
    monkeypatch.undo()
    monkeypatch.setattr(burning, "_WITNESS_VERTICES", 10)
    assert validate_burning(g, (5, 1, 8)) == b and burning_number(g) == 4


def test_extremal_bad_arguments():
    with pytest.raises(ValueError):
        extremal_path_report("max-n-for-T", 0)
    with pytest.raises(ValueError):
        extremal_path_report("nonsense", 2)
