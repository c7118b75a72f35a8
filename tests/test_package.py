import importlib

import pytest

import torusq

LIBRARY_MODULES = ("errors", "rep", "symbols", "quantize", "wigner", "moyal")


def test_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"torusq.{name}") for name in LIBRARY_MODULES]
    listed = [name for module in modules for name in module.__all__]
    assert len(torusq.__all__) == len(set(torusq.__all__))
    assert sorted(torusq.__all__) == sorted(["__version__", *listed])
    for module in modules:
        for name in module.__all__:
            assert getattr(torusq, name) is getattr(module, name)


def test_every_public_name_resolves():
    assert len(torusq.__all__) == 44
    namespace = {}
    exec("from torusq import *", namespace)
    assert set(torusq.__all__) <= set(namespace)


def test_dequantize_is_the_function():
    assert torusq.dequantize is torusq.quantize.dequantize
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("torusq.dequantize")
