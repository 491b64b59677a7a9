"""The library has no runtime dependencies: every absolute import in
src/crdyn names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crdyn"


def absolute_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_library_sources_are_found():
    assert (SRC / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    for name in absolute_imports(path):
        assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
