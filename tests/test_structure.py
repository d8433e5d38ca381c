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


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


# The factor kernels: each takes every exponent or base of a job in one call.
_KERNELS = ("_riemann_sum", "_power_sum", "exp_factor_analog", "exp_factor_discrete")


def _calls_kernel(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) in _KERNELS or getattr(node.func, "id", None) in _KERNELS
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_riemann_sum_is_never_called_per_point(path):
    # no factor kernel, _riemann_sum or otherwise, runs in a loop: a loop
    # around one is a per-point Python loop over the output grid
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for loop in (n for n in ast.walk(tree) if isinstance(n, _LOOPS)):
        calls = [c.lineno for c in ast.walk(loop) if _calls_kernel(c)]
        assert not calls, f"{path.name}:{loop.lineno} calls a factor kernel in a loop at lines {calls}"
