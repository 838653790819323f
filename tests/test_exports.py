import ast
import importlib
import inspect
from pathlib import Path

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


REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "blockunfold"

# Library names kept without a caller in the package or the acceptance
# suite, each for a reason of its own.
NO_CALLER_NEEDED = {
    # the tests' oracle for whether a matrix is a Kronecker lift
    "kron_factor",
    # the KKT oracle's whole weight matrix: criterion 01's reference, and
    # the route the README gives for ill-conditioned dictionaries
    "kkt_weights",
}


def _references(tree: ast.Module) -> set[str]:
    """Names read in ``tree`` as a name or an attribute; inside a top-level
    ``def`` or ``class``, its own name does not count."""
    found = set()
    for top in tree.body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        found |= names
    return found


def test_every_public_name_has_a_caller():
    # a public function or class that no stage calls and no acceptance
    # criterion tests reproduces nothing; comments and docstrings are not
    # parsed as names, and __all__ holds strings, so neither counts
    exported = {
        name: set(importlib.import_module(f"blockunfold.{name}").__all__)
        for name in LIBRARY_MODULES
    }
    every_export = set().union(*exported.values())
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]:
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = every_export - referenced - NO_CALLER_NEEDED
    assert not uncalled, f"public names without a caller: {sorted(uncalled)}"
    assert NO_CALLER_NEEDED <= every_export - referenced, "an exemption now has a caller"
