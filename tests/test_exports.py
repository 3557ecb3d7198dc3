import importlib

import pytest

MODULES = ("core", "models", "dynamics", "materials", "experiments", "validation", "cli", "g17")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # tracing and star-imports index module.__dict__[name] for each __all__ entry
    module = importlib.import_module(f"chiralspin.{name}")
    missing = [n for n in module.__all__ if n not in vars(module)]
    assert not missing, f"chiralspin.{name}.__all__ names missing attributes {missing}"
