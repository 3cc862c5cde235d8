import graphburning


def test_exports_resolve_once():
    names = graphburning.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphburning, name)]
    assert not missing
