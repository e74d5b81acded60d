import types

import morpheq


def test_public_names_resolve_once_and_match_the_bindings():
    # a name deleted from a module but left in __all__ breaks star imports
    names = morpheq.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(morpheq, name), name
    bound = {
        name for name, value in vars(morpheq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound | {"errors"}
