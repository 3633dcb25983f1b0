import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import geomseries

MODULES = ["geomseries"] + [
    f"geomseries.{info.name}" for info in pkgutil.iter_modules(geomseries.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
# numpy is the one declared dependency; scipy, sympy and hypothesis may be
# installed, but nothing may import them
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "geomseries", "conftest"}


def imported_modules(path):
    """Top-level names of the absolute imports in the Python file ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("tree, extra", [("src", set()), ("tests", {"pytest"})])
def test_only_declared_dependencies_are_imported(tree, extra):
    stray = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / tree).rglob("*.py"))
        for name in imported_modules(path)
        if name not in ALLOWED | extra
    ]
    assert stray == []


def test_readme_quickstart_runs_and_states_its_values():
    # the block's imports and calls are the public API as README shows it
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    rep, report = names["rep"], names["report"]
    assert rep.muls == 14
    assert report.matrix_muls == 4
    assert names["eval_poly_oracle"](rep.program) == (1,) * 677
