"""The package builds from ``pyproject.toml`` alone."""

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
    assert sorted(p.name for p in (lib / "kernels").iterdir()) == \
        ["__init__.py", "pure.py"]
    for name in ("kishino.gauss", "z2xz2_switch.bq"):
        assert (lib / "data" / name).is_file(), name
