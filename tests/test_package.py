"""The package's public names."""

import pqkanto


def test_all_names_resolve_once():
    names = pqkanto.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pqkanto, name)] == []
