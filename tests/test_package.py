"""The package's public surface: ``__all__`` and what ``import secantplane`` loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import secantplane

SUBMODULES = ("errors", "expr", "geometry", "probe", "sequences")


def test_all_is_sorted_and_names_objects_of_the_submodules():
    assert secantplane.__all__ == sorted(secantplane.__all__)
    modules = [importlib.import_module(f"secantplane.{name}") for name in SUBMODULES]
    for name in secantplane.__all__:
        value = getattr(secantplane, name)
        assert any(getattr(module, name, None) is value for module in modules), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from secantplane import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == secantplane.__all__


def test_import_loads_expr():
    src = str(Path(secantplane.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import secantplane; secantplane.expr.parse",
         src],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
