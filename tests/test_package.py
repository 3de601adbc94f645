import importlib

import pytest

MODULES = ("combsplit", "combsplit.combs", "combsplit.cps", "combsplit.eberlein",
           "combsplit.inflate", "combsplit.spectra", "combsplit.stochastic",
           "combsplit.suites", "combsplit.zroot5")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
