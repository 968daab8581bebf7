import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ovklearn

# importing __main__ would run the CLI
SUBMODULES = sorted(
    f"ovklearn.{info.name}"
    for info in pkgutil.iter_modules(ovklearn.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["ovklearn", *SUBMODULES])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    # cli and exceptions declare no __all__
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


ROLE = re.compile(r":(?:class|meth|func|attr|mod|data):`([^`]+)`")


def docstring_targets(path):
    """``(target, enclosing class name or None)`` for every cross-reference in a file's docstrings."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, cls):
        found.extend((target, cls) for target in ROLE.findall(ast.get_docstring(node) or ""))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def resolve(target, module, cls):
    """The object a Sphinx-style target names, from its module and enclosing class; None if none."""
    names = target.lstrip("~!").split(".")
    if names[0] == "ovklearn":
        # the longest importable module prefix, then attributes
        for k in range(len(names), 0, -1):
            try:
                obj = importlib.import_module(".".join(names[:k]))
            except ModuleNotFoundError:
                continue
            return functools.reduce(lambda o, n: getattr(o, n, None), names[k:], obj)
        return None
    scopes = [getattr(module, cls)] if cls else []
    for obj in scopes + [module]:
        for name in names:
            obj = getattr(obj, name, None)
        if obj is not None:
            return obj
    return None


def test_every_docstring_cross_reference_resolves():
    # a renamed or removed name must not stay behind in the prose
    package = Path(ovklearn.__file__).parent
    dangling, count = [], 0
    for path in sorted(package.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("ovklearn" if path.stem == "__init__" else f"ovklearn.{path.stem}")
        for target, cls in docstring_targets(path):
            count += 1
            if resolve(target, module, cls) is None:
                dangling.append(f"{path.name}: {target}" + (f" (in {cls})" if cls else ""))
    assert count > 0
    assert dangling == []
