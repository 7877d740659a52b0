"""``whichway.__all__`` and the package namespace name the same things."""

import types

import whichway


def test_every_name_in_all_is_bound():
    assert [name for name in whichway.__all__
            if not hasattr(whichway, name)] == []


def test_all_is_the_public_namespace():
    # Submodules (whichway.cli, whichway.oracle, ...) are not exports.
    public = {name for name, value in vars(whichway).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    # sorted, not set: a name listed twice fails too
    assert sorted(whichway.__all__) == sorted(public | {"__version__"})
