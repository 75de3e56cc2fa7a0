"""The package namespace matches the library modules' public names."""

import importlib

import pytest

import reliakit

LIBRARY_MODULES = (
    "errors",
    "estimators",
    "kriging",
    "limitstate",
    "mcmc",
    "metais",
    "pce",
    "probmodel",
    "response_surface",
)


def declared(module: str) -> list[str]:
    """A module's ``__all__``, or the public names it defines when it has none."""
    mod = importlib.import_module(f"reliakit.{module}")
    if hasattr(mod, "__all__"):
        return list(mod.__all__)
    return [
        name
        for name, val in vars(mod).items()
        if not name.startswith("_") and getattr(val, "__module__", None) == mod.__name__
    ]


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_exports_resolve_on_the_package(module):
    mod = importlib.import_module(f"reliakit.{module}")
    for name in declared(module):
        assert getattr(reliakit, name, None) is getattr(mod, name), name


def test_package_exports_nothing_beyond_the_modules():
    names = set()
    for module in LIBRARY_MODULES:
        names.update(declared(module))
    public = {
        name
        for name, val in vars(reliakit).items()
        if not name.startswith("_") and not isinstance(val, type(reliakit))
    }
    assert public == names
