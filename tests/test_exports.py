import importlib
import inspect

import pytest

LIBRARY_MODULES = [
    "blockcore",
    "operators",
    "solvers",
    "weights",
    "unfolding",
    "training",
    "datagen",
    "verify",
]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"blockunfold.{name}")
    exported = set(module.__all__)
    assert len(exported) == len(module.__all__), "duplicate __all__ entry"
    missing = {attr for attr in exported if not hasattr(module, attr)}
    assert not missing, f"__all__ names undefined attributes: {sorted(missing)}"
    defined = {
        attr
        for attr, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }
    assert defined <= exported, f"public but not exported: {sorted(defined - exported)}"
