"""Biquandle axiom verification and the Yang-Baxter check."""

from __future__ import annotations

from functools import lru_cache

from . import kernels
from .record import Record
from .tables import BiquandleTable

#: Clause identifiers in canonical report order.
CLAUSE_IDS = kernels.CLAUSE_IDS


class AxiomReport(Record):
    """Outcome of a full axiom scan: its violations, in canonical order."""

    def __init__(self, violations: tuple[tuple[str, tuple[int, ...]], ...]):
        self.__dict__["violations"] = violations

    @property
    def passed(self) -> bool:
        return not self.violations

    def clause_ids(self) -> tuple[str, ...]:
        return tuple(sorted({cid for cid, _ in self.violations}))

    def require(self, which: str) -> None:
        """Raise ``ValueError`` naming the ``which`` table's first violation."""
        if self.violations:
            cid, wit = self.violations[0]
            raise ValueError(f"{which} table is not a biquandle (first "
                             f"violation: axiom {cid} at {wit})")


def _scan(table: BiquandleTable) -> list:
    """``kernels.axiom_scan`` of ``table``.  A table with an
    ``affine_basis`` that ``kernels.affine_verdict`` passes has no
    violations and is not scanned."""
    flats, basis = table.flats(), table.affine_basis
    if basis is not None and kernels.affine_verdict(table.n, *flats, basis):
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
    ``affine_basis`` (0, e_1, ..., e_k), and ``kernels.affine_verdict``
    decides it exactly in O(nk) steps, with no scan.  That builder
    succeeds only when S(a, b) = (b_a, a^b) is a bijection; S is an affine
    map of Z_m^2k, so its inverse is affine too, and so are both barred
    operations, which are read off that inverse.  Write the unbarred ones
    x^y = Cx + Dy + c and x_y = Ay + Bx + c'.  Two affine maps of
    (Z_m^k)^r agree everywhere iff they agree at zero and at each unit
    vector in each argument, since the unit vectors generate Z_m^k as a
    group.

    - Axiom 1.  Each side of each clause is an affine map of (a, b), so
      the clauses hold everywhere iff they hold at the 1 + 2k pairs
      (0, 0), (e_i, 0) and (0, e_i).
    - Axiom 2.  Once axiom 1 holds on a side, the x-group at (a, b)
      (x = a^(b_xbar), a = x^bbar, b = (b_xbar)_a) is solved exactly by
      x = a^y for the y with y_a = b: put y = b_xbar one way, and read
      axiom 1 at (a, y) the other.  S is injective, so distinct y give
      distinct x, and the group has exactly one solution at every pair iff
      every column y -> y_a of down is a permutation.  The y-group is the
      same on the mirrored side, with downbar.  On an affine table column
      a, y -> By + Aa + c', is a translate of column 0, so column 0 decides.
    - Axiom 3.  Clauses 3.i-3.iii are the components of the braid
      relation (S x 1)(1 x S)(S x 1) = (1 x S)(S x 1)(1 x S) at (a, b, c),
      and 3.iv-3.vi those of the barred pair map, which axiom 1 makes
      tau S^-1 tau (tau swaps a pair), so they hold iff 3.i-3.iii do.
      Each side of each clause is an affine map of (a, b, c), and with
      axioms 1, 2 and 4 holding, 3.ii at (e_i, 0, 0) and 3.i at
      (0, e_i, 0) decide all six; the check reads 3.i and 3.ii at the
      1 + 2k triples (a, b, 0) of axiom 1's pairs.  Write S(x, y) =
      N(x, y) + (c', c) with N(x, y) = (Ax + By, Cx + Dy), and P = I - A.
      By axiom 4, S fixes exactly one (x, a) for each a, so N fixes
      exactly the (phi a, a) of a homomorphism phi, and S fixes some
      (x0, 0): B = P phi, D = I - C phi, c' = P x0 and c = -C x0.
      Axiom 2 makes B, the linear part of a column of down, invertible,
      and so P and phi.  N = T [[Q, 0], [C, I]] T^-1 with
      T = [[I, phi], [0, I]] and Q = A - phi C, so the linear part of a
      column of downbar, the lower left block -C Q^-1 of N^-1, makes C
      invertible.  Put U = A - phi A C and W = A - phi C + C phi P.
      Expanded, the clauses' coefficients of a, b and c and their
      constants are, up to sign: in 3.i 0, C W, C W phi and C W x0; in
      3.ii P U, P U phi, 0 and P U x0; in 3.iii C U, P W - C U phi,
      P W phi and (P W + C U) x0.  So 3.ii at (e_i, 0, 0) gives U = 0,
      3.i at (0, e_i, 0) gives W = 0, and every clause holds.
    - Axiom 4.  For fixed a the x-group (x = a_x, a = x^a) reads
      (I - A)x = Ba + c' and Cx = (I - D)a - c: L x = M a + const, with
      L and M linear and L independent of a.  Exactly one solution at
      a = 0 gives ker L = 0 and const in im L; one at each e_i then puts
      each M e_i in the subgroup im L, and with them M a + const for
      every a.  The
      y-group is the same with upbar and downbar.  So the 1 + k basis
      elements decide.

    A table that fails there is scanned in full, so its report is the same
    as without the marker.  Only that builder marks a table, so the marker
    is right and an equal unmarked table has the same report: the cache,
    whose key ignores the marker, may share one entry between them.  The
    cache holds the last 8 tables: each caller reuses at most three, and
    every entry keeps its table alive.
    """
    return AxiomReport(tuple(sorted(
        (CLAUSE_IDS[code], tuple(x + 1 for x in wit))
        for code, wit in _scan(table)
    )))


def satisfies_axioms(table: BiquandleTable) -> bool:
    """``verify_biquandle(table).passed``.  A table with an
    ``affine_basis`` is decided by ``kernels.affine_verdict`` alone, so a
    failing switch builds no report and is never scanned; any other reads
    the cached report, so a failing one pays for one full scan."""
    if table.affine_basis is not None:
        return kernels.affine_verdict(table.n, *table.flats(),
                                      table.affine_basis)
    return verify_biquandle(table).passed


def yang_baxter_check(table: BiquandleTable) -> bool:
    """True iff S(a,b) = (b_a, a^b) is a bijective Yang-Baxter solution.

    Only the unbarred operations enter: S is checked for bijectivity on
    ordered pairs, and (SxI)(IxS)(SxI) = (IxS)(SxI)(IxS) is decided by the
    row lists of the unbarred axiom-3 clauses, one pair (a, b) at a time.
    """
    return kernels.yang_baxter(table.n, *table.flats()[:2])
