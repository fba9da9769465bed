"""Module boundaries, read from the source with ``ast``.

``coopguide/__init__.py`` imports every module, so which modules a module
needs shows only in its own import statements, not in ``sys.modules``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coopguide"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def package_imports(name: str) -> set[str]:
    """The coopguide modules that ``name`` imports (relative or absolute)."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("coopguide"):
                continue
            module = (node.module or "").removeprefix("coopguide").lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:   # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("coopguide."))
    return out


def method_calls(name: str, method: str) -> int:
    """How many ``<expr>.method(...)`` calls module ``name`` makes."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == method for node in ast.walk(_tree(name)))


@pytest.mark.parametrize("name", ["evaluation", "eventlog"])
def test_log_readers_do_not_import_the_scenario_loop(name):
    assert "simulator" not in package_imports(name)


def test_the_desired_path_imports_only_geometry():
    assert package_imports("paths") == {"geometry"}


def test_only_paths_builds_a_trajectory_without_its_checks():
    # ``Trajectory.streamed`` builds its batch with ``__new__``, skipping the
    # checks its source trajectory already passed; nothing else may
    callers = {path.stem for path in SRC.glob("*.py") if method_calls(path.stem, "__new__")}
    assert callers == {"paths"}


def test_package_imports_reads_every_import_form():
    assert package_imports("simulator") >= {"config", "eventlog", "guider", "paths"}
    assert "simulator" in package_imports("__init__")
    assert method_calls("paths", "__new__") == 1
