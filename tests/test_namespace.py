"""Each public name is declared once, in its submodule's ``__all__``, and
the package namespace is exactly the union of those lists."""

import importlib
import pkgutil
import types

import hararyspec


def _submodule_exports():
    """(submodule, name) for every name in every submodule's ``__all__``;
    a submodule without one (the CLI) exports nothing."""
    for info in pkgutil.iter_modules(hararyspec.__path__):
        module = importlib.import_module(f"hararyspec.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name


def test_each_public_name_declared_once():
    owners = {}
    for module, name in _submodule_exports():
        assert hasattr(hararyspec, name), f"hararyspec.{module}.{name} is not exported by the package"
        assert name not in owners, f"{name} is in the __all__ of both {owners[name]} and {module}"
        owners[name] = module
    public = {
        name for name, value in vars(hararyspec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - owners.keys() == set()
    assert owners
