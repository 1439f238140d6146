"""Hot-loop kernels over 0-based flat operation tables.

The axiom scan, the Yang-Baxter check, the map search (lazy ``iter_maps``
and its collector ``search_maps``) and the labeling counter are pure
Python and live in ``pure``; the library calls them through this
package's attributes.  ``BACKEND`` names the kernel set.
"""

from .pure import (ALL_OPS, CLAUSE_IDS, OP_DOWN, OP_DOWNBAR, OP_UP, OP_UPBAR,
                   axiom_scan, diagram_count, iter_maps, search_maps,
                   yang_baxter)

BACKEND = "pure"

__all__ = [
    "ALL_OPS", "BACKEND", "CLAUSE_IDS", "OP_DOWN", "OP_DOWNBAR", "OP_UP",
    "OP_UPBAR", "axiom_scan", "diagram_count", "iter_maps", "search_maps",
    "yang_baxter",
]
