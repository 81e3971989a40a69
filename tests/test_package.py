"""Package-wide checks: the public name list, the README's examples and the
modules' imports."""

import ast
import re
from pathlib import Path

import pytest

import frostree

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "frostree").glob("*.py"))


def test_every_public_name_resolves():
    # a name dropped from the imports but left in __all__ breaks only
    # ``from frostree import *``
    assert [name for name in frostree.__all__ if not hasattr(frostree, name)] == []


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def unused_imports(path: Path) -> list[str]:
    """Names the module imports but never reads; a name listed in the
    module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
