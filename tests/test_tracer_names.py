"""Every library name the benchmark's layer tracer wraps still exists.

``perfbench/tracer.py`` patches functions and bundle methods by name from
outside the package, so renaming or inlining one of them breaks the traced
benchmark.  The name tables are read from that file's source, so the tracer
is neither imported nor installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import relbelief.models

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("FUNCTIONS", "METHODS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


FUNCTIONS, METHODS = _tables()


@pytest.mark.parametrize("module, attr, span", FUNCTIONS)
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"relbelief.{module}"), attr))


@pytest.mark.parametrize("cls, attr, span", METHODS)
def test_traced_method_is_defined_on_its_class(cls, attr, span):
    assert callable(vars(getattr(relbelief.models, cls))[attr])
