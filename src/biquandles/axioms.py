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


@lru_cache(maxsize=512)
def verify_biquandle(table: BiquandleTable) -> AxiomReport:
    """Check every axiom clause exhaustively and report all violations.

    Axioms 1 and 3 are equation checks over all pairs/triples.  Axioms 2
    and 4 demand that exactly one element jointly satisfies each clause
    group; a failing group is blamed on the member clauses that
    individually lack a unique solution (or on the group's first clause
    when the members disagree).  Witnesses are 1-based element tuples.
    """
    raw = kernels.axiom_scan(table.n, *table.flats())
    violations = tuple(sorted(
        (CLAUSE_IDS[code], tuple(x + 1 for x in wit)) for code, wit in raw
    ))
    return AxiomReport(passed=not violations, violations=violations)


def satisfies_axioms(table: BiquandleTable) -> bool:
    """Fast pass/fail scan (stops at the first violation)."""
    return not kernels.axiom_scan(table.n, *table.flats(), first_only=True)


@lru_cache(maxsize=512)
def yang_baxter_check(table: BiquandleTable) -> bool:
    """True iff S(a,b) = (b_a, a^b) is a bijective Yang-Baxter solution.

    Only the unbarred operations enter: S is checked for bijectivity on
    ordered pairs and for (SxI)(IxS)(SxI) = (IxS)(SxI)(IxS) on all triples.
    """
    return kernels.yang_baxter(table.n, *table.flats()[:2])
