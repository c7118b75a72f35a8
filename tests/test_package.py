import importlib
from pathlib import Path

import pytest

import torusq

LIBRARY_MODULES = ("errors", "rep", "symbols", "quantize", "wigner", "moyal")
# Test files that check the package across its modules rather than one module each.
CROSS_CUTTING_TESTS = ("acceptance", "entry_checks", "inplace", "memory", "package", "readme")
# Test files named for one public function of a module rather than for the module.
FUNCTION_TESTS = ("dequantize",)


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


def test_each_test_file_names_a_module_or_function_or_is_cross_cutting():
    tested = {path.stem.removeprefix("test_") for path in Path(__file__).parent.glob("test_*.py")}
    modules = {path.stem for path in Path(torusq.__file__).parent.glob("*.py")}
    assert sorted(tested - modules) == sorted(CROSS_CUTTING_TESTS + FUNCTION_TESTS)
    for name in FUNCTION_TESTS:
        assert name in torusq.__all__ and callable(getattr(torusq, name))
