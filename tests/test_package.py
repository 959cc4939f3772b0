import importlib

import pytest

MODULES = ["admcalc", "admcalc.series", "admcalc.hurwitz", "admcalc.hodge",
           "admcalc.localization", "admcalc.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == []
