"""Static checks on the package source, standing in for a linter."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neumaier"
# the __init__ modules import names only to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda p: str(p.relative_to(PACKAGE if p.is_relative_to(PACKAGE) else ROOT)),
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .a import B, C as D\n"
        "from .e import F\n"
        "def f(x: B) -> F:\n"
        "    from .g import H\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: D", "line 7: H"]


def module_constant(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of a module, read
    without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_benchmark_tracer_finds_its_names():
    # perfbench/tracing.py wraps these names by lookup; a rename would pass
    # every other test and crash the traced benchmark run
    tracing = ROOT / "perfbench" / "tracing.py"
    looked_up = [(module, name) for module, name, _ in module_constant(tracing, "SPANS")]
    looked_up += [
        ("neumaier._kernels", "cluster_count"),
        ("neumaier.intpoly", "gcd_int"),
        ("neumaier.spectra", "spectrum"),
        ("neumaier.cliques", "regular_cliques"),
        ("neumaier.cliques", "maximal_cliques"),
        ("neumaier.cliques", "cliques_of_order"),
        ("neumaier.cli", "json"),
    ]
    for module, name in looked_up:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    verifiers = importlib.import_module("neumaier.classify").VERIFIERS
    theorems = module_constant(ROOT / "perfbench" / "oracle.py", "THEOREMS")
    assert sorted(verifiers) == sorted(theorems)
