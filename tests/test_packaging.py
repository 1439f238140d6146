"""The package builds from ``pyproject.toml`` alone, and the benchmark's
tracing targets exist in it."""

import importlib
import importlib.util
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_build_from_pyproject(tmp_path):
    # build in a copy: an in-tree build writes src/biquandles.egg-info
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(ROOT / "pyproject.toml", tree)
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    out = tmp_path / "build"
    subprocess.run([sys.executable, "-c", "from setuptools import setup; "
                    "setup()", "build", "--build-base", str(out)],
                   cwd=tree, capture_output=True, text=True, check=True)
    lib = out / "lib" / "biquandles"
    # the pure kernels and nothing compiled beside them
    assert (lib / "kernels.py").is_file()
    assert not [p for p in lib.rglob("*")
                if p.suffix in (".c", ".pyx", ".so")]
    for name in ("kishino.gauss", "z2xz2_switch.bq"):
        assert (lib / "data" / name).is_file(), name


def test_benchmark_tracing_targets_resolve():
    # the benchmark tracer rebinds these functions by name, so a refactor
    # that moves one would silently drop its layer from traced runs
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, mod_name, attr in tracer.TRACED:
        func = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(func), name
        # a generator is traced one span per item it yields
        assert inspect.isgeneratorfunction(func) == \
            (name in tracer.GENERATORS), name
    assert "modules.module_isomorphisms" in tracer.GENERATORS
