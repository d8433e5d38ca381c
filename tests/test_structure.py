"""Structural rules of the package that no single behaviour test shows."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import convfourier

MODULES = sorted(info.name for info in pkgutil.iter_modules(convfourier.__path__))
SOURCES = sorted(
    p for p in pathlib.Path(convfourier.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("name", MODULES)
def test_no_public_alias(name):
    # two exported names for one object split every caller, patch and trace
    # between them
    module = importlib.import_module(f"convfourier.{name}")
    exported = getattr(module, "__all__", ())
    objects = {}
    for export in exported:
        first = objects.setdefault(id(getattr(module, export)), export)
        assert first == export, f"{name}.{export} is {name}.{first}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_convolution_is_called_through_its_module(path):
    # a by-name import binds the function at import time, so a patch at the
    # definition would not reach this caller
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            assert module not in (".convolution", "convfourier.convolution"), (
                f"{path.name}:{node.lineno} imports names from {module}"
            )
