"""Public names: every ``__all__`` entry exists, and the package re-exports only listed names."""

import importlib
import inspect
import pkgutil

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
