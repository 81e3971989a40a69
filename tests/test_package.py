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


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level ``_name`` functions, classes and assignments, each with
    the statement that defines it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private = [name for name in names if name.startswith("_") and not name.endswith("__")]
        found += [(name, node) for name in private]
    return found


def test_every_private_name_is_read_in_src():
    # a private helper that only the tests call belongs in the tests
    reads: list[tuple[Path, int, str]] = []  # (module, line, name)
    definitions = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        definitions += [(path, name, node) for name, node in private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
    unread = [
        f"{path.name}:{name}"
        for path, name, node in definitions
        if not any(
            read == name and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, read in reads
        )
    ]
    assert unread == []
