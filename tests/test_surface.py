"""Every public top-level name in src/weilcert is used by the package.

A public function, class or constant that nothing in the package refers
to is reached only from tests, if at all; it belongs in tests/oracles.py
or nowhere. The scan is by name: a reference is any use of the name (as a
variable or as an attribute) in any module other than inside its own
definition, and a use in the same module counts. `__init__.py` holds no
names to scan.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import weilcert

SRC = Path(weilcert.__file__).resolve().parent

# The console-script entry point and the package version are used from
# outside the package.
EXEMPT = {("cli", "main"), ("__init__", "__version__")}


def public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def used_names(tree: ast.AST, skip: ast.AST | None = None):
    """Names read as variables or attributes anywhere in tree except under skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name for each public definition no module refers to, given
    the source text of each module by name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            if (module, name) in EXEMPT:
                continue
            elsewhere = (name in used_names(t) for m, t in trees.items() if m != module)
            if name not in used_names(tree, skip=node) and not any(elsewhere):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    sources = {
        path.stem: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert unreferenced(sources) == []


def test_scan_flags_unused_names():
    a = (
        "LIMIT = 3\n"
        "def used(x):\n    return used(x - 1) if x else LIMIT\n"
        "def lonely(x):\n    return lonely(x - 1)\n"
        "class Unused:\n    pass\n"
    )
    b = "from a import used\nused(1)\n"
    # LIMIT is read in its own module; a recursive call is not a use
    assert unreferenced({"a": a, "b": b}) == ["a.lonely", "a.Unused"]


def test_cli_imports_only_stdlib_numpy_and_weilcert():
    # interpreter start-up and imports are most of a short command's wall
    # time, so every command pays for a heavy import
    probe = (
        "import sys; before = set(sys.modules); import weilcert.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    allowed = set(sys.stdlib_module_names) | {"numpy", "weilcert"}
    assert "weilcert.cli" in out
    assert [m for m in out if m.split(".")[0] not in allowed] == []
