"""Source hygiene over ``src/pmlc``, checked with the standard ``ast``.

No module holds an ``assert`` statement: invariants must survive
``python -O``, so they are explicit raises.  No module imports a name it
never uses.  No function in ``pmlc.compiler``, ``pmlc.graphs``,
``pmlc.logic`` or ``pmlc.oracle`` calls itself: every formula walk,
parsing included, goes through the iterative ``postorder`` or an explicit
stack, so no input ends in unbounded recursion.  Only ``pmlc.net`` runs
generated code (its kernels): no other module calls ``exec``, ``eval`` or
``compile``.
No module reads ``sys.version_info``: one code path serves every
supported interpreter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pmlc"
MODULES = sorted(SRC.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    return names


def test_the_walk_sees_the_package():
    assert SRC / "compiler" / "build.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(imported) - used - _exported(tree))
    assert not unused, f"{path.name}: unused imports {unused}"


def _self_calls(tree: ast.Module) -> list:
    """``Class.method`` or ``function`` for every function whose body calls
    it by name, or a method that calls ``self.<its name>``."""
    owner = {
        item: node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            f = getattr(call, "func", None)
            direct = isinstance(f, ast.Name) and f.id == fn.name and fn not in owner
            method = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
                and fn in owner
            )
            if direct or method:
                found.append(f"{owner[fn]}.{fn.name}" if fn in owner else fn.name)
                break
    return found


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "compiler").glob("*.py"))
    + [SRC / "graphs.py", SRC / "logic.py", SRC / "oracle.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_recursive_formula_walks(path):
    calls = _self_calls(_tree(path))
    assert not calls, f"{path.name}: recursive {calls}"


def _code_runners(tree: ast.Module) -> list:
    """Lines that call the builtins ``exec``, ``eval`` or ``compile``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_kernels_run_generated_code(path):
    lines = _code_runners(_tree(path))
    if path == SRC / "net.py":
        assert lines, "the kernel builder no longer compiles code"
    else:
        assert not lines, f"{path.name}: exec, eval or compile at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_interpreter_version_forks(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "version_info"
        or isinstance(node, ast.alias) and node.name == "version_info"
    ]
    assert not lines, f"{path.name}: reads version_info at lines {lines}"
