"""The package's surface is what the package uses.

Every public top-level name in src/weilcert is used by the package: a
public function, class or constant that nothing in the package refers to
is reached only from tests, if at all; it belongs in tests/oracles.py or
nowhere. The scan is by name: a reference is any use of the name (as a
variable or as an attribute) in any module other than inside its own
definition, and a use in the same module counts. `__init__.py` holds no
names to scan.

Every defaulted parameter of a public function is passed by some call in
the package: a default that no call overrides is a constant with extra
steps, and belongs in the function body or a module constant.

No module calls a function that returns a float root, logarithm or
exponential, or float() itself: the package computes exactly, and an
integer root goes through math.isqrt.

Every flag of a command is read by that command: a flag that is parsed
and never read is an option that does nothing.

No module imports random: every result is decided with certainty, so
nothing draws a random number.

No module calls sys.set_int_max_str_digits: the digit cap is the
interpreter's, and a number that may pass it is built as a Decimal, whose
str it does not bind.

gc.freeze is called in cli.main alone, and no module calls gc.disable or
os._exit: the process entry skips the final collection over a frozen heap
and nothing more, so no start-up or exit change trades collection in a
run, or the flushing of streams and atexit handlers, for time.

Only report, density and weil read report.CHUNK_ROWS: the modules that cut
a stream into chunks. A reader of a stream that cuts it again decides the
chunk size a second time, and makes short chunks at every edge of the
first cut.
"""

import argparse
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import weilcert
from weilcert import cli

SRC = Path(weilcert.__file__).resolve().parent

# The console-script entry point and the package version are used from
# outside the package; the console script calls main() with no argv.
EXEMPT = {("cli", "main"), ("__init__", "__version__")}


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


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


def defaulted_parameters(node: ast.FunctionDef):
    """(position or None for keyword-only, name) of each defaulted parameter."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, a.arg


def passes(call: ast.Call, position: int | None, param: str) -> bool:
    """Whether the call may pass the parameter; *args and **kwargs may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (None, param) for k in call.keywords)


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """module.function(param) for each defaulted parameter of a public
    top-level function that no call in any module passes. Calls are matched
    by the called name, as a variable or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (module, name) in EXEMPT:
                continue
            for position, param in defaulted_parameters(node):
                if not any(passes(c, position, param) for c in calls.get(name, [])):
                    unpassed.append(f"{module}.{name}({param})")
    return unpassed


# Called by name or as an attribute (np.sqrt, math.log10), each yields a float.
FLOAT_CALLS = {"sqrt", "cbrt", "float", "log", "log2", "log10", "exp"}
CAP_CALLS = {"set_int_max_str_digits"}
EXIT_CALLS = {"freeze", "disable", "_exit"}  # gc.freeze, gc.disable, os._exit


def calls_to(names: set[str], sources: dict[str, str]) -> list[str]:
    """module:line name for each call of a function in names, called by
    name or as an attribute, given the source text of each module by name."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in names:
                    found.append(f"{module}:{node.lineno} {name}")
    return sorted(found)


def test_every_public_name_is_used_by_the_package():
    assert unreferenced(package_sources()) == []


def test_every_default_is_overridden_by_the_package():
    assert unpassed_defaults(package_sources()) == []


def test_scan_flags_unpassed_defaults():
    a = (
        "def f(x, k=1, *, m=2):\n    return x + k + m\n"
        "def h(y=0, z=None):\n    return y\n"
        "def _private(w=1):\n    return w\n"
    )
    b = "import a\nfrom a import h\na.f(1, 2)\nh(z=1)\n"
    assert unpassed_defaults({"a": a, "b": b}) == ["a.f(m)", "a.h(y)"]


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


def test_no_float_calls_in_the_package():
    assert calls_to(FLOAT_CALLS, package_sources()) == []


def test_scan_flags_float_calls():
    a = (
        "import math\nimport numpy as np\nfrom math import log2\n"
        "def root(x):\n    return math.isqrt(x), np.sqrt(x)\n"
        "def digits(b):\n    return float(b) * log2(10)  # sqrt in a comment\n"
    )
    b = "import a\nsqrt = 'sqrt'\nprint(a.math.exp(1), sqrt)\n"
    assert calls_to(FLOAT_CALLS, {"a": a, "b": b}) == [
        "a:5 sqrt", "a:7 float", "a:7 log2", "b:3 exp",
    ]


def test_no_int_str_cap_calls_in_the_package():
    assert calls_to(CAP_CALLS, package_sources()) == []


def test_scan_flags_int_str_cap_calls():
    a = (
        "import sys\n"
        "def render(v):\n    sys.set_int_max_str_digits(0)\n    return str(v)\n"
        "old = sys.get_int_max_str_digits()  # set_int_max_str_digits(old)\n"
    )
    b = (
        "import a\nfrom sys import set_int_max_str_digits\n"
        "set_int_max_str_digits(a.old)\n"
    )
    assert calls_to(CAP_CALLS, {"a": a, "b": b}) == [
        "a:3 set_int_max_str_digits", "b:3 set_int_max_str_digits",
    ]


def imports_of(names: set[str], sources: dict[str, str]) -> list[str]:
    """module:line name for each import of a top-level module in names,
    given the source text of each module by name."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            hits = [m for m in imported if m.split(".")[0] in names]
            found += [f"{module}:{node.lineno} {m}" for m in hits]
    return sorted(found)


def test_no_module_imports_random():
    assert imports_of({"random"}, package_sources()) == []


def test_scan_flags_random_imports():
    a = "import math, random as rng\ndef f():\n    from random import randrange\n"
    b = "from . import random\nfrom .random import draw\nimport randomness\n"
    assert imports_of({"random"}, {"a": a, "b": b}) == [
        "a:1 random", "a:3 random",
    ]


def test_heap_frozen_only_on_the_exit_path():
    lines, first = inspect.getsourcelines(cli.main)
    (line,) = [first + i for i, text in enumerate(lines) if "gc.freeze()" in text]
    assert calls_to(EXIT_CALLS, package_sources()) == [f"cli:{line} freeze"]


def modules_reading(name: str, sources: dict[str, str]) -> list[str]:
    """The modules that read name, as a variable or as an attribute, given
    the source text of each module by name."""
    return sorted(m for m, text in sources.items() if name in used_names(ast.parse(text)))


def test_only_the_stream_makers_read_chunk_rows():
    readers = modules_reading("CHUNK_ROWS", package_sources())
    assert set(readers) <= {"report", "density", "weil"}, readers


def test_scan_flags_chunk_rows_readers():
    a = "CHUNK_ROWS = 4\n"
    b = "from a import CHUNK_ROWS\ndef cut(xs):\n    return xs[:CHUNK_ROWS]\n"
    c = "import a\nrows = a.CHUNK_ROWS\n"
    d = "from a import CHUNK_ROWS as unused  # CHUNK_ROWS\nname = 'CHUNK_ROWS'\n"
    sources = {"a": a, "b": b, "c": c, "d": d}
    assert modules_reading("CHUNK_ROWS", sources) == ["b", "c"]


def modules_loaded_by(module: str) -> list[str]:
    """The modules a fresh interpreter loads to import the given one."""
    probe = (
        f"import sys; before = set(sys.modules); import {module}; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_cli_imports_only_stdlib_numpy_and_weilcert():
    # interpreter start-up and imports are most of a short command's wall
    # time, so every command pays for a heavy import
    out = modules_loaded_by("weilcert.cli")
    allowed = set(sys.stdlib_module_names) | {"numpy", "weilcert"}
    assert "weilcert.cli" in out
    assert [m for m in out if m.split(".")[0] not in allowed] == []


def test_arith_imports_no_numpy():
    # the single-integer arithmetic needs no arrays; the sieve is in kernels
    out = modules_loaded_by("weilcert.arith")
    assert "weilcert.arith" in out
    assert [m for m in out if m.split(".")[0] == "numpy"] == []


def modules_run_by(*argv: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running the CLI
    command argv, its output discarded."""
    probe = (
        "import contextlib, io, sys\n"
        "import weilcert.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert weilcert.cli.main({list(argv)!r}) == 0\n"
        "print(*sorted(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_each_command_loads_only_the_modules_it_runs():
    # every command compiles what it imports from source when no bytecode
    # is cached, so cli loads the modules of a command when it runs
    out = modules_loaded_by("weilcert.cli")
    assert [m for m in out if m.startswith("weilcert.")] == [
        "weilcert.cli", "weilcert.errors", "weilcert.report",
    ]
    assert "numpy" not in out
    for argv in (["density", "--g", "5"], ["plot", "--g", "11", "--x-max", "1000"]):
        assert "weilcert.weil" not in modules_run_by(*argv), argv
    for argv in (["scan", "--g", "11", "--p-max", "1000"], ["table2", "--g-max", "50"]):
        assert "weilcert.density" not in modules_run_by(*argv), argv
    # the certificate chain, the smallest p of find and table2, and the Table 2
    # scalars are exact integer work that builds no array
    for argv in (
        ["certify", "--g", "11", "--p", "59"],
        ["find", "--g", "5"],
        ["table2", "--g-max", "50"],
        ["find", "--g", "5", "--p", "47", "--m", "1"],
        ["limit", "--g", "11"],
        ["classnum", "--disc", "-92"],
    ):
        assert not {"numpy", "weilcert.kernels"} & modules_run_by(*argv), argv


def args_read(func) -> set[str]:
    """The attributes read off `args` in the source of func."""
    tree = ast.parse(inspect.getsource(func))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_flag_is_read_by_its_command():
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    read_by_main = args_read(cli._run)  # p_max, checked for every command that has it
    for name, parser in commands.choices.items():
        func = parser.get_default("func")
        dests = {a.dest for a in parser._actions} - {"help", "func"}
        assert dests - args_read(func) - read_by_main == set(), name
