"""``whichway.__all__`` and the package namespace name the same things."""

import types

import whichway


def test_every_name_in_all_is_bound():
    assert [name for name in whichway.__all__
            if not hasattr(whichway, name)] == []


def test_all_is_the_public_namespace():
    # The package binds an export on its first lookup, so the names are
    # those it lists (dir) and resolves (getattr), not those bound so far.
    # Submodules (whichway.cli, whichway.oracle, ...) are not exports.
    public = {name for name in dir(whichway)
              if not name.startswith("_")
              and not isinstance(getattr(whichway, name), types.ModuleType)}
    # sorted, not set: a name listed twice fails too
    assert sorted(whichway.__all__) == sorted(public | {"__version__"})
