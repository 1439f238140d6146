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


def _scan(table: BiquandleTable, first_only: bool = False) -> list:
    """``kernels.axiom_scan`` of ``table``.  A table with an
    ``affine_basis`` is scanned first with axiom 3 limited to 1 + 2k pairs
    (see ``verify_biquandle``), and in full only if that scan fails."""
    flats = table.flats()
    basis = table.affine_basis
    if basis is not None:
        zero, units = basis[0], basis[1:]
        pairs = [(zero, zero)] + [(e, zero) for e in units] + \
            [(zero, e) for e in units]
        raw = kernels.axiom_scan(table.n, *flats, first_only=first_only,
                                 axiom3_pairs=pairs)
        if not raw or first_only:
            return raw
    return kernels.axiom_scan(table.n, *flats, first_only=first_only)


@lru_cache(maxsize=512)
def verify_biquandle(table: BiquandleTable) -> AxiomReport:
    """Check every axiom clause exhaustively and report all violations.

    Axioms 1 and 3 are equation checks over all pairs/triples.  Axioms 2
    and 4 demand that exactly one element jointly satisfies each clause
    group; a failing group is blamed on the member clauses that
    individually lack a unique solution (or on the group's first clause
    when the members disagree).  Witnesses are 1-based element tuples.

    A table built by ``alexander._affine_table`` carries an
    ``affine_basis`` and has axiom 3 decided on 1 + 2k pairs (a, b) rather
    than n^2.  That builder succeeds only when S(a, b) = (b_a, a^b) is a
    bijection; S is an affine map of Z_m^2k, so its inverse is affine too,
    and so are both barred operations, which are read off that inverse.
    Each side of each axiom-3 clause is then a composite of affine maps,
    hence an affine map of (a, b, c), and two affine maps agree everywhere
    iff they agree at zero and at each unit vector in each argument, since
    the unit vectors generate Z_m^k as a group.  The pairs (0, 0),
    (e_i, 0) and (0, e_i), each over every c, contain all those points.  A
    table that fails there is scanned again in full, so its report is the
    same as without the marker.
    """
    violations = tuple(sorted(
        (CLAUSE_IDS[code], tuple(x + 1 for x in wit))
        for code, wit in _scan(table)
    ))
    return AxiomReport(passed=not violations, violations=violations)


def satisfies_axioms(table: BiquandleTable) -> bool:
    """Fast pass/fail scan (stops at the first violation)."""
    return not _scan(table, first_only=True)


@lru_cache(maxsize=512)
def yang_baxter_check(table: BiquandleTable) -> bool:
    """True iff S(a,b) = (b_a, a^b) is a bijective Yang-Baxter solution.

    Only the unbarred operations enter: S is checked for bijectivity on
    ordered pairs, and (SxI)(IxS)(SxI) = (IxS)(SxI)(IxS) is decided by the
    row lists of the unbarred axiom-3 clauses, one pair (a, b) at a time.
    """
    return kernels.yang_baxter(table.n, *table.flats()[:2])
