"""Static checks over the package source."""

import ast
from pathlib import Path

import diarsep

PACKAGE = Path(diarsep.__file__).resolve().parent


def scipy_imports(path: Path) -> list[int]:
    """Line numbers of every scipy import in a module, at any depth (lazy imports too)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_package_source_imports_no_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = {str(path.relative_to(PACKAGE)): scipy_imports(path) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
