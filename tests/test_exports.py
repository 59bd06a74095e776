"""Public names: every ``__all__`` entry exists and is used, and the package re-exports exactly the listed names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import hdp_lab

MODULES = [
    importlib.import_module(f"hdp_lab.{info.name}")
    for info in pkgutil.iter_modules(hdp_lab.__path__)
]


def test_every_all_name_exists():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_package_exports_are_listed_in_their_modules():
    unlisted = []
    for name, obj in vars(hdp_lab).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        if name not in getattr(home, "__all__", ()):
            unlisted.append(f"{obj.__module__}.{name}")
    assert not unlisted


def test_package_exports_exactly_the_modules_all():
    exported = {
        name for name, obj in vars(hdp_lab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == {name for module in MODULES for name in getattr(module, "__all__", ())}


#: ``__all__`` names that nothing in the package uses, each kept for its reason
UNUSED_BUT_KEPT = {
    "ito_sum": "the Stratonovich = (forward + backward)/2 identity property tests",
    "backward_sum": "the bracket = backward - forward identity property tests",
    "reversed_pair_bridge": "goes with the benchmark self-check that still counts its spans",
}


def _uses_outside_definitions(tree: ast.Module) -> set:
    """Names a module reads, leaving out each top-level definition's reads of its own name."""
    used = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_all_name_is_used_in_the_package():
    """A public name must be read somewhere in the package outside its own definition.

    Imports and ``__all__`` lists are not uses, and neither is ``__init__``,
    which only re-exports; a name that only tests call is deleted, or listed
    in ``UNUSED_BUT_KEPT`` with its reason.
    """
    sources = [path for path in Path(hdp_lab.__file__).parent.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*(_uses_outside_definitions(ast.parse(path.read_text())) for path in sources))
    public = {name for module in MODULES for name in getattr(module, "__all__", ())}
    assert sorted(public - used) == sorted(UNUSED_BUT_KEPT)
