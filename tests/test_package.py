"""The names the ``charspan`` package exports."""

import types

import charspan


def test_all_lists_every_public_name_once_and_each_resolves():
    names = charspan.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(charspan, name)] == []
    public = {name for name, value in vars(charspan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(names)) == []
