"""Import rules read from the source, none of it run: the package imports only
the standard library, as ``dependencies = []`` in pyproject.toml promises; no
package module reaches for another's private name; and every package name
perfbench imports exists, which tier-1 would otherwise not notice."""
import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ontovsm"


def import_nodes(path: Path):
    """Every import statement of the file, wherever it stands."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def imported_modules(path: Path):
    """Every absolute module name the file imports."""
    for node in import_nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"ontovsm"}
    outside = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name.partition(".")[0] not in allowed
    ]
    assert outside == []


def test_no_module_imports_another_modules_private_name():
    private = [
        f"{path.relative_to(PACKAGE)}: {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in import_nodes(path)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_perfbench_package_imports_resolve():
    sources = sorted((ROOT / "perfbench").glob("*.py"))
    assert sources
    missing = []
    for path in sources:
        for node in import_nodes(path):
            if not isinstance(node, ast.ImportFrom) or node.level != 0:
                continue
            if node.module.partition(".")[0] != "ontovsm":
                continue
            module = importlib.import_module(node.module)
            missing += [
                f"{path.name}: from {node.module} import {alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
    assert missing == []
