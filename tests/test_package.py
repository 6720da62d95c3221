import importlib

import pytest

import thermalbell


@pytest.mark.parametrize("module, names", sorted(thermalbell._EXPORTS.items()))
def test_exports_resolve(module, names):
    assert getattr(thermalbell, module) is importlib.import_module(f"thermalbell.{module}")
    for name in names:
        assert getattr(thermalbell, name) is getattr(getattr(thermalbell, module), name)
