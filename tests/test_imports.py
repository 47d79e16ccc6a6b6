"""The package imports only the standard library, as ``dependencies = []`` in
pyproject.toml promises."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ontovsm"


def imported_modules(path: Path):
    """Every absolute module name the file imports, wherever the import stands."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
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
