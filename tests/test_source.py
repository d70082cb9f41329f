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
#: every file that may read a package definition
READERS = sorted(PACKAGE.rglob("*.py")) + TESTS + sorted((ROOT / "perfbench").glob("*.py"))


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


def definitions(source: str) -> list[str]:
    """Module-level functions, classes and assigned names."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def reads(source: str) -> set[str]:
    """Names read, attribute names, and string constants; the benchmark
    tracer looks some names up by string."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_package_definition_is_read():
    # an import alone is no read: a name only re-exported is dead
    read = set().union(*(reads(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in MODULES
        for name in definitions(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []


def test_dead_definition_check_sees_every_form():
    source = (
        "from .a import f\n"
        "X = 1\n"
        "Y: int = 2\n"
        "def g(): return X\n"
        "class C: pass\n"
        "async def h(): pass\n"
        "TABLE = {'k': m.attr, 'h': 'C'}\n"
    )
    assert definitions(source) == ["X", "Y", "g", "C", "h", "TABLE"]
    assert {"f", "Y", "g", "TABLE"}.isdisjoint(reads(source))
    assert {"X", "attr", "m", "C"} <= reads(source)


def pool_sites(source: str) -> list[str]:
    """The innermost function around each mention of ``ProcessPoolExecutor``
    (as a name, an attribute or an import), or ``<module>``."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif "ProcessPoolExecutor" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        ):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_one_function_makes_process_pools():
    # a second hand-written pool would decide on its own when to start one
    sites = {
        f"{path.relative_to(PACKAGE)}:{where}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for where in pool_sites(path.read_text(encoding="utf-8"))
    }
    assert sites == {"classify.py:ordered_map"}


def test_pool_check_sees_every_form():
    source = (
        "import concurrent.futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f():\n"
        "    def g(): return ProcessPoolExecutor\n"
        "    return concurrent.futures.ProcessPoolExecutor\n"
        "def h(): return 'ProcessPoolExecutor'\n"
    )
    assert pool_sites(source) == ["<module>", "g", "f"]


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
