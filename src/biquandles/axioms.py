"""Biquandle axiom verification and the Yang-Baxter check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .tables import BiquandleTable

#: Clause identifiers in canonical report order.
CLAUSE_IDS = kernels.CLAUSE_IDS


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a full axiom scan; ``passed`` iff no violations."""

    passed: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.passed != (not self.violations):
            raise ValueError("passed flag inconsistent with violations")

    def clause_ids(self) -> tuple[str, ...]:
        return tuple(sorted({cid for cid, _ in self.violations}))


def _scan(table: BiquandleTable) -> list:
    """``kernels.axiom_scan`` of ``table``.  A table with an
    ``affine_basis`` is scanned first on its generator points only, and in
    full only if that scan fails."""
    flats, basis = table.flats(), table.affine_basis
    if basis is not None and not kernels.axiom_scan(table.n, *flats,
                                                    basis=basis):
        return []
    return kernels.axiom_scan(table.n, *flats)


@lru_cache(maxsize=8)
def verify_biquandle(table: BiquandleTable) -> AxiomReport:
    """Check every axiom clause exhaustively and report all violations.

    Axioms 1 and 3 are equation checks over all pairs/triples.  Axioms 2
    and 4 demand that exactly one element jointly satisfies each clause
    group; a failing group is blamed on the member clauses that
    individually lack a unique solution (or on the group's first clause
    when the members disagree).  Witnesses are 1-based element tuples.

    A table built by ``alexander._affine_table`` carries an
    ``affine_basis`` (0, e_1, ..., e_k), and ``kernels.axiom_scan`` given
    it as ``basis`` decides every axiom on its generator points: axioms
    1-3 on the 1 + 2k pairs (0, 0), (e_i, 0) and (0, e_i), axiom 3 over
    every c, and axiom 4 on the 1 + k basis elements, instead of all n^2
    pairs and n elements.  That builder succeeds only when
    S(a, b) = (b_a, a^b) is a bijection; S is an affine map of Z_m^2k, so
    its inverse is affine too, and so are both barred operations, which
    are read off that inverse.

    - Axioms 1 and 3.  Each side of each clause is a composite of affine
      maps, hence an affine map of (a, b) or (a, b, c), and two affine
      maps agree everywhere iff they agree at zero and at each unit vector
      in each argument, since the unit vectors generate Z_m^k as a group.
    - Axiom 2.  Write the operations as x^y = Cx + Dy + c,
      x_y = Ay + Bx + c, x^ybar = Qx + Py + c' and x_ybar = Rx + Ty + c''.
      For a fixed (a, b), the joint solutions of a clause group solve
      L x = M(a, b) + const, where M is linear and L does not depend on
      (a, b).  The x-group, for instance, stacks I - DT, Q and BT, from
      x = a^(b_xbar), a = x^bbar and b = (b_xbar)_a.  So the solutions
      form a coset of ker L, or none.  One solution at
      (0, 0) gives ker L = 0 and const in im L.  One at each (e_i, 0) and
      (0, e_i) then puts M of every generator in im L, and im L is a
      subgroup, so M(a, b) + const lies in it for every pair: exactly one
      solution everywhere.
    - Axiom 4.  The same argument, per element a, on 0 and the e_i.

    A table that fails there is scanned again in full, so its report is
    the same as without the marker.  Only that builder marks a table, so
    the marker is right and an equal unmarked table has the same report:
    the cache, whose key ignores the marker, may share one entry between
    them.  The cache holds the last 8 tables: each caller reuses at most
    three, and every entry keeps its table alive.
    """
    violations = tuple(sorted(
        (CLAUSE_IDS[code], tuple(x + 1 for x in wit))
        for code, wit in _scan(table)
    ))
    return AxiomReport(passed=not violations, violations=violations)


def satisfies_axioms(table: BiquandleTable) -> bool:
    """``verify_biquandle(table).passed``.  A table with an
    ``affine_basis`` is decided by the scan on that basis alone, so a
    failing switch builds no report; any other reads the cached report,
    so a failing one pays for one full scan."""
    if table.affine_basis is not None:
        return not kernels.axiom_scan(table.n, *table.flats(),
                                      basis=table.affine_basis)
    return verify_biquandle(table).passed


def yang_baxter_check(table: BiquandleTable) -> bool:
    """True iff S(a,b) = (b_a, a^b) is a bijective Yang-Baxter solution.

    Only the unbarred operations enter: S is checked for bijectivity on
    ordered pairs, and (SxI)(IxS)(SxI) = (IxS)(SxI)(IxS) is decided by the
    row lists of the unbarred axiom-3 clauses, one pair (a, b) at a time.
    """
    return kernels.yang_baxter(table.n, *table.flats()[:2])
