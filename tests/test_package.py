import inspect

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
