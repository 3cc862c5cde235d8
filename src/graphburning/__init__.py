"""Graph burnings, their configuration complexes, and exact burning homology.

The pipeline (graph, burnings, configuration space, homology) is imported
with the package.  The category of burnings (`morphisms`) and simplicial maps
with their induced maps (`maps`) run in no pipeline command, so their names
here load their module on first use.
"""

from .graphs import (
    Graph,
    GraphError,
    GraphMap,
    GraphMapError,
    StructureReport,
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
    edgeless_graph,
    identity_map,
    induced_subgraph,
    iterated_sum,
    parse_graph_text,
    path_graph,
    validate_graph_map,
    whole_graph,
)
from .burning import (
    Burning,
    BurningError,
    IncompleteBurning,
    SizeGuardExceeded,
    SourceTooEarly,
    burning_count,
    burning_map,
    burning_number,
    enumerate_burnings,
    iter_burnings,
    source_sets,
    validate_burning,
)
from .complexes import (
    ComplexError,
    SimplicialComplex,
    configuration_space,
    faces,
    from_generators,
    graph_as_complex,
    join,
    one_skeleton_graph,
    skeleton,
)
from .homology import (
    ChainComplexZ,
    HomologyGroup,
    chain_complex,
    euler_characteristic,
    homology,
)
from .exactlinalg import InvariantError, SmithForm, smith_normal_form

# The home module of each name loaded on first use.
_LAZY = {
    **dict.fromkeys((
        "BurningMorphism", "ExtremalPathReport", "MorphismError", "PrefixMismatch",
        "TauIllDefined", "TauNotGraphMap", "admits_extension", "compose_morphisms",
        "extremal_path_report", "identity_morphism", "is_b_burned", "is_burning_extension",
        "minimal_b_burned_subgraphs", "validate_morphism"), "morphisms"),
    **dict.fromkeys((
        "SimplicialMap", "SimplicialMapError", "compose_simplicial_maps",
        "identity_simplicial_map", "validate_simplicial_map", "induced_map",
        "matrix_rank_over"), "maps"),
}


def __getattr__(name: str):
    """A name of `_LAZY`, read off its module, which is imported on the first call."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Graph", "GraphError", "GraphMap", "GraphMapError", "StructureReport",
    "Subgraph", "build_named", "classify", "complement",
    "complete_bipartite_graph", "complete_graph", "compose_graph_maps",
    "cube_graph", "cycle_graph", "disjoint_union", "edgeless_graph",
    "identity_map", "induced_subgraph", "iterated_sum", "parse_graph_text",
    "path_graph", "validate_graph_map", "whole_graph",
    "Burning", "BurningError", "BurningMorphism", "ExtremalPathReport",
    "IncompleteBurning", "MorphismError", "PrefixMismatch",
    "SizeGuardExceeded", "SourceTooEarly", "TauIllDefined",
    "TauNotGraphMap", "admits_extension", "burning_count", "burning_map",
    "burning_number", "compose_morphisms", "enumerate_burnings",
    "extremal_path_report", "identity_morphism", "is_b_burned",
    "is_burning_extension", "iter_burnings",
    "minimal_b_burned_subgraphs", "source_sets", "validate_burning",
    "validate_morphism",
    "ComplexError", "SimplicialComplex", "SimplicialMap",
    "SimplicialMapError", "compose_simplicial_maps",
    "configuration_space", "faces", "from_generators", "graph_as_complex",
    "identity_simplicial_map", "join", "one_skeleton_graph", "skeleton",
    "validate_simplicial_map",
    "ChainComplexZ", "HomologyGroup", "chain_complex",
    "euler_characteristic", "homology", "induced_map", "matrix_rank_over",
    "InvariantError", "SmithForm", "smith_normal_form",
]
__version__ = "0.1.0"
