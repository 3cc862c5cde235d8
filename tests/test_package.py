import ast
import gc
import importlib
import importlib.util
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import graphburning
from graphburning import (
    Burning,
    BurningError,
    ComplexError,
    Graph,
    GraphError,
    GraphMapError,
    HomologyGroup,
    InvariantError,
    MorphismError,
    SimplicialComplex,
    SimplicialMapError,
    SizeGuardExceeded,
    SmithForm,
    Subgraph,
    TauNotGraphMap,
    admits_extension,
    build_named,
    chain_complex,
    classify,
    complete_bipartite_graph,
    complete_graph,
    compose_graph_maps,
    compose_morphisms,
    compose_simplicial_maps,
    configuration_space,
    cycle_graph,
    edgeless_graph,
    enumerate_burnings,
    extremal_path_report,
    faces,
    homology,
    identity_map,
    identity_morphism,
    identity_simplicial_map,
    induced_subgraph,
    is_b_burned,
    is_burning_extension,
    iter_burnings,
    iterated_sum,
    matrix_rank_over,
    parse_graph_text,
    path_graph,
    skeleton,
    smith_normal_form,
    validate_burning,
    validate_graph_map,
    validate_morphism,
    validate_simplicial_map,
    whole_graph,
)
from graphburning import burning, verify
from graphburning.maps import chain_map_matrix
from graphburning.verify import CheckResult, VerificationReport


def test_exports_resolve_once():
    names = graphburning.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphburning, name)]
    assert not missing


def test_no_size_cap_parameters():
    """Exponential searches are bounded by work budgets, not size knobs."""
    capped = []
    for name in graphburning.__all__:
        try:
            signature = inspect.signature(getattr(graphburning, name))
        except (TypeError, ValueError):  # not callable, or a builtin exception
            continue
        capped += [(name, p) for p in signature.parameters if p.startswith("max_")]
    assert not capped


def test_every_cache_is_bounded():
    """A long-running process keeps only the last few results of any cache."""
    caches = {}
    for info in pkgutil.iter_modules(graphburning.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"graphburning.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if inspect.isclass(c) and c.__module__ == module.__name__]
        caches.update((f"{obj.__module__}.{obj.__qualname__}", obj.cache_parameters()["maxsize"])
                      for scope in scopes for obj in scope.values()
                      if hasattr(obj, "cache_parameters"))
    expected = {"graphburning.graphs._adjacency", "graphburning.graphs.path_graph",
                "graphburning.burning._search", "graphburning.homology._reduction"}
    assert expected <= caches.keys()
    assert [name for name, maxsize in caches.items() if maxsize is None] == []


def _garbage_after(action) -> int:
    """How many objects `action()` leaves that only the cycle collector frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _refused_search(g: Graph) -> None:
    try:
        burning._search.__wrapped__(g)
    except SizeGuardExceeded:
        return
    raise AssertionError("the search was not refused")


def test_memos_are_freed_on_return(monkeypatch):
    """The search, the listing and the pipeline leave no cyclic garbage, so a
    long-running process frees each memo as soon as its call is done."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    surveyed = Graph.from_edges(*workloads.survey_corpus(1)[0])
    actions = {
        "search P12": lambda: burning._search.__wrapped__(path_graph(12)),
        "search survey graph": lambda: burning._search.__wrapped__(surveyed),
        "listing": lambda: enumerate_burnings(cycle_graph(9)),
        "listing dropped after one next": lambda: next(iter_burnings(path_graph(10))),
        "pipeline": lambda: homology(configuration_space(cycle_graph(11))),
        "Kozlov's facets": lambda: verify._path_maximal_independent_sets(12),
    }
    assert {name: _garbage_after(action) for name, action in actions.items()} == dict.fromkeys(
        actions, 0)
    # A refused search frees its memo too: P12 meets 472 states.
    monkeypatch.setattr(burning, "_SEARCH_STATES", 471)
    assert _garbage_after(lambda: _refused_search(path_graph(12))) == 0


def test_no_nested_function_calls_itself_by_name():
    """A nested function that reaches itself through a closure cell is a cycle:
    it and all it holds outlive the call until the collector runs."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.FunctionDef):
                    continue
                params = {a.arg for a in ast.walk(inner.args) if isinstance(a, ast.arg)}
                if inner.name not in params and any(
                        isinstance(node, ast.Name) and node.id == inner.name
                        for node in ast.walk(inner)):
                    found.append(f"{path.name}: {outer.name}.{inner.name}")
    assert found == []


def test_package_imports_only_the_standard_library():
    """The package declares `dependencies = []`; relative imports stay inside it."""
    outside = []
    for path in sorted(Path(graphburning.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


PACKAGE = Path(graphburning.__file__).parent


def _modules_added_by(names: list[str]) -> list[str]:
    """The modules that importing these names loads into a fresh interpreter."""
    code = ("import sys\nbefore = set(sys.modules)\n"
            + "".join(f"import {name}\n" for name in names)
            + "print(*sorted(set(sys.modules) - before))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    return done.stdout.split()


def test_import_loads_no_dataclasses_inspect_or_fractions():
    """Every call pays the package import, so it leaves out these modules:
    records are named tuples, and only rational arithmetic imports fractions."""
    names = [f"graphburning.{info.name}" for info in pkgutil.iter_modules([str(PACKAGE)])
             if info.name != "__main__"]  # runs the CLI on import
    added = _modules_added_by(names)
    assert set(names) <= set(added)
    assert {"dataclasses", "inspect", "fractions"}.isdisjoint(added)


def test_pipeline_import_leaves_out_morphisms_maps_and_verify():
    """The layers that the CLI and the benchmark worker import load no code
    that only the category of burnings, induced maps or `verify` runs."""
    layers = ["graphburning"] + [f"graphburning.{name}" for name in
                                 ("cli", "graphs", "burning", "complexes", "homology",
                                  "exactlinalg")]
    added = _modules_added_by(layers)
    assert set(layers) <= set(added)
    assert {"graphburning.morphisms", "graphburning.maps", "graphburning.verify"}.isdisjoint(added)


def test_lazy_exports_are_their_home_modules_names():
    """Each name loaded on first use is its home module's object, under `__all__`."""
    assert sorted(set(graphburning._LAZY.values())) == ["maps", "morphisms"]
    assert set(graphburning._LAZY) <= set(graphburning.__all__) <= set(dir(graphburning))
    for name, home in graphburning._LAZY.items():
        assert getattr(graphburning, name) is getattr(
            importlib.import_module(f"graphburning.{home}"), name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        graphburning.no_such_name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from graphburning import *", namespace)
    assert set(graphburning.__all__) <= namespace.keys()


P2, P3 = path_graph(2), path_graph(3)
B2, B3 = validate_burning(P2, (0,)), validate_burning(P3, (1,))
POINT = SimplicialComplex(1, frozenset({0b1}))
HOLLOW_TRIANGLE = SimplicialComplex(3, frozenset({0b011, 0b101, 0b110}))
SKIPS_TIME_2 = Burning(P2, (0,), (1, 3), 3)  # hand-built: no vertex burns at time 2
TIME_PAST_END = Burning(P2, (0,), (1, 5), 3)  # hand-built: time 5 past the end time 3
TIME_ZERO = Burning(P2, (0,), (0, 1), 1)  # hand-built: vertex 0 burns at time 0

# Refusals that the other tests never reach, each with the error it raises.
REFUSALS = {
    # Only a hand-built burning lets tau jump; see `validate_morphism`.
    "tau-not-graph-map": (lambda: validate_morphism(identity_map(P2), B2, SKIPS_TIME_2),
                          TauNotGraphMap, "tau jumps from 1 to 3"),
    "morphisms-do-not-compose": (lambda: compose_morphisms(
        identity_morphism(B2), identity_morphism(B3)), MorphismError, "do not compose"),
    "subgraph-of-another-graph": (lambda: is_b_burned(whole_graph(P3), B2),
                                  BurningError, "does not live in the burned graph"),
    "extension-endpoints": (lambda: admits_extension(B2, identity_map(P2), P3),
                            BurningError, "endpoints do not match"),
    "extension-not-injective": (lambda: admits_extension(
        B2, validate_graph_map((0, 0), P2, P2), P2), BurningError, "must be injective"),
    "simplicial-image-out-of-range": (lambda: validate_simplicial_map(
        (0, 5, 1), HOLLOW_TRIANGLE, HOLLOW_TRIANGLE), SimplicialMapError,
        "image vertex 5 out of range"),
    "simplicial-maps-do-not-compose": (lambda: compose_simplicial_maps(
        identity_simplicial_map(POINT), identity_simplicial_map(HOLLOW_TRIANGLE)),
        SimplicialMapError, "do not compose"),
    "time-skipped": (lambda: validate_morphism(identity_map(P2), SKIPS_TIME_2, SKIPS_TIME_2),
                     MorphismError, "no vertex burns at time 2"),
    "time-past-end": (lambda: validate_morphism(identity_map(P2), TIME_PAST_END, TIME_PAST_END),
                      MorphismError, r"vertex 1 burns at time 5, outside 1\.\.3"),
    "time-zero": (lambda: validate_morphism(identity_map(P2), TIME_ZERO, TIME_ZERO),
                  MorphismError, r"vertex 0 burns at time 0, outside 1\.\.1"),
    # A hand-built flag is checked against the edges; four fields take it from them.
    "burning-flag-disagrees": (lambda: Burning(P2, (0,), (1, 2), 2, False).check_invariants(),
                               InvariantError, "is_homomorphism=False disagrees with the edges"),
    "burning-short-times": (lambda: Burning(P2, (0,), (1,), 1), InvariantError,
                            "1 times for 2 vertices"),
    "morphism-endpoints": (lambda: validate_morphism(identity_map(P3), B2, B2),
                           MorphismError, "graph map endpoints do not match"),
    "negative-free-rank": (lambda: HomologyGroup(-1), InvariantError, "bad homology group"),
    "torsion-one": (lambda: HomologyGroup(0, (1,)), InvariantError, "bad homology group"),
    "smith-rank-mismatch": (lambda: SmithForm((2,), 2), InvariantError,
                            "rank 2 != diagonal length 1"),
    "chain-map-negative-degree": (lambda: chain_map_matrix(identity_simplicial_map(POINT), -1),
                                  ComplexError, "dimension must be >= 0"),
    "rank-over-integers": (lambda: matrix_rank_over([[1]], "z"), ValueError,
                           "field coefficients only"),
    "complex-without-vertices": (lambda: SimplicialComplex(0, ()), ComplexError,
                                 "at least one vertex"),
    "extension-embedding-not-injective": (lambda: is_burning_extension(
        validate_graph_map((0, 0), P2, P2)), BurningError, "embedding must be injective"),
    "faces-negative-dimension": (lambda: faces(POINT, -1), ComplexError,
                                 "dimension must be >= 0"),
    "skeleton-negative-dimension": (lambda: skeleton(POINT, -1), ComplexError,
                                    "dimension must be >= 0"),
    "graph-without-vertices": (lambda: Graph(0), GraphError, "graph needs at least one vertex"),
    "subgraph-unsorted": (lambda: Subgraph(P3, (1, 0), ()), GraphError,
                          "must be sorted and duplicate-free"),
    "subgraph-without-vertices": (lambda: Subgraph(P3, (), ()), GraphError,
                                  "subgraph needs at least one vertex"),
    "subgraph-edge-outside-ambient": (lambda: Subgraph(P3, (0, 2), {(0, 2)}), GraphError,
                                      r"edge \(0, 2\) not in the ambient graph"),
    "subgraph-edge-leaves-vertices": (lambda: Subgraph(P3, (0,), {(0, 1)}), GraphError,
                                      r"edge \(0, 1\) leaves the subgraph vertex set"),
    "induced-vertex-out-of-range": (lambda: induced_subgraph(P3, (3,)), GraphError,
                                    "vertex 3 out of range"),
    "complete-graph-empty": (lambda: complete_graph(0), GraphError,
                             "complete graph needs n >= 1"),
    "edgeless-graph-empty": (lambda: edgeless_graph(0), GraphError,
                             "edgeless graph needs n >= 1"),
    "bipartite-side-empty": (lambda: complete_bipartite_graph(1, 0), GraphError,
                             "complete bipartite graph needs n, m >= 1"),
    "iterated-sum-empty": (lambda: iterated_sum(0, P2), GraphError, "iterated sum needs n >= 1"),
    "named-iterated-sum": (lambda: build_named("iterated_sum"), GraphError,
                           r"use iterated_sum\(k, g\) directly"),
    "graph-image-out-of-range": (lambda: validate_graph_map((0, 2), P2, P2), GraphMapError,
                                 "image vertex 2 out of range"),
    "graph-maps-do-not-compose": (lambda: compose_graph_maps(identity_map(P2), identity_map(P3)),
                                  GraphMapError, "graph maps do not compose"),
    "text-line-of-three": (lambda: parse_graph_text("0 1 2"), GraphError,
                           "line 1: expected 'u v'"),
    "text-negative-vertex": (lambda: parse_graph_text("0 -1"), GraphError,
                             "line 1: negative vertex index"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_raise(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


# One valid instance of each record class, built afresh by each call.
RECORDS = [
    lambda: Graph(2, {(0, 1)}),
    lambda: whole_graph(P3),
    lambda: classify(P3),
    lambda: identity_map(P2),
    lambda: validate_burning(P3, (1,)),
    lambda: identity_morphism(B2),
    lambda: extremal_path_report("min-n-for-k", 2),
    lambda: SimplicialComplex(3, frozenset({0b011, 0b101, 0b110})),
    lambda: identity_simplicial_map(HOLLOW_TRIANGLE),
    lambda: smith_normal_form([[2, 0], [0, 3]]),
    lambda: chain_complex(HOLLOW_TRIANGLE),
    lambda: HomologyGroup(1, (2,)),
    lambda: CheckResult("id", "statement", "pass", {"n": 1}),
    lambda: VerificationReport((CheckResult("id", "statement", "pass"),)),
]
# Those holding lists or dicts hash as a tuple of them does: not at all.
UNHASHABLE = {"ChainComplexZ", "CheckResult", "VerificationReport"}


@pytest.mark.parametrize("make", RECORDS, ids=lambda make: type(make()).__name__)
def test_records_are_immutable_named_tuples(make):
    record, twin = make(), make()
    assert record is not twin and record == twin == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], twin[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # SimplicialComplex has a dict, for its caches, yet refuses too
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_record_repr_and_defaults():
    assert repr(path_graph(2)) == "Graph(vertex_count=2, edges=frozenset({(0, 1)}))"
    assert Graph(3).edges == frozenset() and HomologyGroup(2).torsion == ()
    first, second = CheckResult("a", "b", "pass"), CheckResult("a", "b", "pass")
    assert first.details == {} and first.details is not second.details
    assert first.elapsed_s == 0.0
