"""The benchmark's reference implementation stays independent of the package.

``perfbench/reference.py`` recomputes every functional the benchmark checks
with its own code, so a defect in the package cannot also hide in the
values it is checked against: the reference imports nothing from
``relbelief``, and no module of the package imports ``perfbench``.  Both are
read as source with ``ast``, so neither is imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.py"
PACKAGE = sorted((ROOT / "src" / "relbelief").glob("*.py"))


def _imported(source: str, package: str) -> set:
    """The top-level names of the modules ``source`` imports, by statement or
    by a literal ``import_module``/``__import__`` call; a relative import
    names ``package``, the package the source sits in."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(package if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if func in ("import_module", "__import__"):
                names.add(str(node.args[0].value).split(".")[0])
    return names


@pytest.mark.parametrize(
    "source, name",
    [("import relbelief.models", "relbelief"),
     ("from relbelief.bias import McConfig", "relbelief"),
     ("importlib.import_module('relbelief.bias')", "relbelief"),
     ("__import__('perfbench.reference')", "perfbench"),
     ("from .models import x", "relbelief")],
)
def test_every_form_of_import_is_seen(source, name):
    assert name in _imported(source, "relbelief")


def test_the_reference_imports_nothing_from_the_package():
    assert "relbelief" not in _imported(REFERENCE.read_text(encoding="utf-8"), "perfbench")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_of_the_package_imports_the_benchmark(path):
    assert "perfbench" not in _imported(path.read_text(encoding="utf-8"), "relbelief")
