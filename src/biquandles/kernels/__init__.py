"""Kernel backend selection.

The compiled extension ``_ckern`` is preferred when importable, else the
pure-Python kernels run.  ``setup.py`` builds it only when Cython is
installed and skips it otherwise, although the generated ``_ckern.c`` is
committed.  ``BIQUANDLES_KERNELS=pure`` or ``=c`` forces a backend (``c``
raises if the extension is missing).  ``axiom_scan``, ``yang_baxter`` and
``search_maps`` must agree on both; ``tests/test_backends.py`` checks that
and skips when the extension is absent.  ``diagram_count`` is the pure
frontier contraction whichever backend is active.
"""

import os

from . import pure
from .pure import ALL_OPS, CLAUSE_IDS, OP_DOWN, OP_DOWNBAR, OP_UP, OP_UPBAR

_forced = os.environ.get("BIQUANDLES_KERNELS", "").strip().lower()

if _forced == "pure":
    _impl = pure
elif _forced in ("c", "compiled"):
    from . import _ckern as _impl
else:
    try:
        from . import _ckern as _impl
    except ImportError:
        _impl = pure

BACKEND = _impl.BACKEND

axiom_scan = _impl.axiom_scan
yang_baxter = _impl.yang_baxter
search_maps = _impl.search_maps
diagram_count = pure.diagram_count


def available_backends():
    """Names of importable kernel backends."""
    names = ["pure"]
    try:
        from . import _ckern  # noqa: F401
        names.append("c")
    except ImportError:
        pass
    return names


def get_backend(name):
    """Return the kernel module for ``name`` ("pure" or "c")."""
    if name == "pure":
        return pure
    if name == "c":
        from . import _ckern
        return _ckern
    raise ValueError(f"unknown kernel backend {name!r}")


__all__ = [
    "ALL_OPS", "BACKEND", "CLAUSE_IDS", "OP_DOWN", "OP_DOWNBAR", "OP_UP",
    "OP_UPBAR", "available_backends", "axiom_scan", "diagram_count",
    "get_backend", "search_maps", "yang_baxter",
]
