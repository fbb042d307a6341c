"""The package namespace, resolved on first use, unused imports, and the CLI's BLAS threads."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import roughvar as rv

SUBMODULES = ("errors", "grid", "schauder", "pathgen", "variation", "roughness", "isometry")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(code, **env_vars):
    """Run ``code`` in a fresh interpreter with none of the BLAS variables but ``env_vars``."""
    src = str(pathlib.Path(rv.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.split()


def test_every_public_name_is_the_object_its_module_defines():
    for name in rv.__all__:
        obj = getattr(rv, name)
        if name != "__version__":
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_name_is_the_submodule(name):
    assert getattr(rv, name) is importlib.import_module(f"roughvar.{name}")


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from roughvar import *", namespace)
    assert set(rv.__all__) <= namespace.keys()
    assert set(rv.__all__) | set(SUBMODULES) <= set(dir(rv))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rv.no_such_name  # noqa: B018


def _unused_imports(source: str) -> list:
    """Names a module imports at top level and never reads (``__all__`` counts)."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


PACKAGE = pathlib.Path(rv.__file__).resolve().parent


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_the_unused_import_check_sees_aliases_and_all():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .grid import Path, grid_times as gt\n__all__ = ['Path']\n"
              "def f(u: np.ndarray) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == ["line 4: gt"]


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    out = _python("import os, sys\nbefore = dict(os.environ)\nimport roughvar\n"
                  "print('numpy' in sys.modules, dict(os.environ) == before)\n"
                  "roughvar.fbm_path\nprint('numpy' in sys.modules)")
    assert out == ["False", "True", "True"]


needs_two_cpus = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts /proc/self/task threads; BLAS starts workers only with 2+ CPUs")
THREADS = "import os, roughvar.cli\nprint(len(os.listdir('/proc/self/task')))"


@needs_two_cpus
def test_the_cli_runs_one_thread():
    assert _python(THREADS) == ["1"]


@needs_two_cpus
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_blas_thread_count_the_user_set_stands(var):
    out = _python(THREADS + "\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))", **{var: "2"})
    assert int(out[0]) >= 2
    assert out[1] == ("2" if var == "OPENBLAS_NUM_THREADS" else "None")


def test_the_cli_leaves_the_environment_alone_once_numpy_is_loaded():
    out = _python("import os, numpy, roughvar.cli\nprint('OPENBLAS_NUM_THREADS' in os.environ)")
    assert out == ["False"]
