"""The public API: every exported name resolves."""

import watlab


def test_all_names_resolve():
    assert [name for name in watlab.__all__ if not hasattr(watlab, name)] == []


def test_star_import():
    namespace = {}
    exec("from watlab import *", namespace)
    assert set(watlab.__all__) <= set(namespace)
