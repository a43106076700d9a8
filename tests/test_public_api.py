"""The package namespace: ``rxd.__all__`` and the names ``rxd`` binds agree."""

import types

import rxd


def test_all_lists_every_public_name_once():
    assert len(rxd.__all__) == len(set(rxd.__all__))
    assert all(hasattr(rxd, name) for name in rxd.__all__)
    public = {name for name, value in vars(rxd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(rxd.__all__)
