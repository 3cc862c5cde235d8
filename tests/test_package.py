import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import graphburning


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
                "graphburning.burning._search", "graphburning.complexes.faces",
                "graphburning.homology._reduction"}
    assert expected <= caches.keys()
    assert [name for name, maxsize in caches.items() if maxsize is None] == []


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
