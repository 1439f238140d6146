"""Gauss codes of virtual knots and the homomorphism-counting invariant.

A signed OU Gauss code lists the classical crossing passages met along one
traversal of the knot: tokens like ``O1+`` or ``U3-``.  Virtual crossings
never appear; semi-arcs run between consecutive classical passages and pass
through virtual crossings uncut.  The invariant counts labelings of the
semi-arcs by elements of a target biquandle that are consistent at every
crossing: at a positive crossing the outgoing understrand is
(under-in)^(over-in) and the outgoing overstrand is (over-in)_(under-in);
negative crossings use the barred operations, which invert the switch
S(a, b) = (b_a, a^b), so the counter reads them through S^-1 on up and down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import kernels
from .axioms import verify_biquandle
from .errors import GaussCodeError
from .tables import BiquandleTable, _content_lines

_TOKEN = re.compile(r"^([OU])([0-9]+)([+-])$")


@dataclass(frozen=True)
class GaussCode:
    """Validated token sequence: (passage "O"/"U", label, sign +1/-1)."""

    tokens: tuple[tuple[str, int, int], ...]

    @property
    def crossing_count(self) -> int:
        return len(self.tokens) // 2

    def rotated(self, k: int) -> "GaussCode":
        """The same knot read from a different starting point."""
        t = self.tokens
        k %= len(t) or 1
        return GaussCode(t[k:] + t[:k])

    def __str__(self) -> str:
        return ",".join(
            f"{p}{lab}{'+' if sg > 0 else '-'}" for p, lab, sg in self.tokens)


def parse_gauss_code(text: str) -> GaussCode:
    """Parse comma-separated tokens; the empty string is the unknot.

    Every label must occur exactly twice, once over and once under, with
    equal signs.
    """
    stripped = text.strip()
    if not stripped:
        return GaussCode(())
    tokens = []
    for pos, tok in enumerate(stripped.split(","), start=1):
        tok = tok.strip()
        match = _TOKEN.match(tok)
        if not match:
            raise GaussCodeError(f"token {pos}: malformed {tok!r}")
        passage, label, sign = match.groups()
        if int(label) < 1:
            raise GaussCodeError(f"token {pos}: label must be positive")
        tokens.append((passage, int(label), 1 if sign == "+" else -1))

    by_label: dict[int, list[tuple[str, int]]] = {}
    for passage, label, sign in tokens:
        by_label.setdefault(label, []).append((passage, sign))
    for label, seen in sorted(by_label.items()):
        if len(seen) != 2:
            raise GaussCodeError(
                f"label {label} appears {len(seen)} time(s), expected 2")
        (p1, s1), (p2, s2) = seen
        if p1 == p2:
            raise GaussCodeError(
                f"label {label} has two {p1} passages")
        if s1 != s2:
            raise GaussCodeError(f"label {label} has mismatched signs")
    return GaussCode(tuple(tokens))


@dataclass(frozen=True)
class Diagram:
    """Semi-arc incidence structure of a closed one-component diagram.

    Semi-arc i (0-based) is the segment leaving passage i and entering
    passage i+1 (cyclically); a zero-crossing diagram has the single
    semi-arc 0.  Crossings carry (sign, under_in, over_in, under_out,
    over_out) semi-arc ids.
    """

    semi_arcs: int
    crossings: tuple[tuple[int, int, int, int, int], ...]


def build_diagram(code: GaussCode) -> Diagram:
    tokens = code.tokens
    if not tokens:
        return Diagram(1, ())
    total = len(tokens)
    slots: dict[int, dict[str, int]] = {}
    for pos, (passage, label, _) in enumerate(tokens):
        slots.setdefault(label, {})[passage] = pos
    crossings = []
    for _, label, sign in tokens:
        if label in slots:
            both = slots.pop(label)
            over, under = both["O"], both["U"]
            crossings.append((
                sign,
                (under - 1) % total,  # under-in
                (over - 1) % total,   # over-in
                under,                # under-out
                over,                 # over-out
            ))
    return Diagram(total, tuple(crossings))


@dataclass(frozen=True)
class HomCountReport:
    """Number of consistent labelings; assignments retained on request."""

    count: int
    target_order: int
    assignments: Optional[tuple[tuple[int, ...], ...]] = None


def count_homs(diagram: Diagram, target: BiquandleTable,
               keep_assignments: bool = False) -> HomCountReport:
    """Count biquandle labelings of the diagram's semi-arcs.

    The target must pass the axiom check.  Labelings are counted by a
    frontier contraction (``kernels.diagram_count``): crossings are joined
    one at a time into a map from the labels of still-open semi-arcs to
    counts, so the cost follows the widest frontier rather than the number
    of crossings.  Each crossing's relation {labels of shared arcs: labels
    of new arcs} is built once per crossing pattern from the target's n^2
    pairs and joined through tuple projections; only up and down are read
    (a negative crossing goes through S^-1).  A frontier past
    ``kernels.MAX_STATES`` states raises ``ValueError``.  Kept assignments
    are 1-based, in the kernel's sorted order.
    """
    report = verify_biquandle(target)
    if not report.passed:
        raise ValueError("target table is not a biquandle")
    count, sols = kernels.diagram_count(
        diagram.semi_arcs, diagram.crossings, target.n, *target.flats()[:2],
        keep=keep_assignments)
    assignments = None
    if keep_assignments:
        assignments = tuple(tuple(v + 1 for v in s) for s in sols)
    return HomCountReport(count, target.n, assignments)


def count_gauss(text: str, target: BiquandleTable) -> int:
    """Convenience: parse a code and count its labelings."""
    return count_homs(build_diagram(parse_gauss_code(text)), target).count


# Curated diagrams.  The pairs below are related by single Reidemeister
# moves (plus virtual detours, which leave the code unchanged), so every
# biquandle counting invariant must take equal values on each pair.
UNKNOT = ""
KINK_POSITIVE = "O1+,U1+"
KINK_NEGATIVE = "O1-,U1-"
R2_POKE = "U1+,U2-,O2-,O1+"
TREFOIL = "O1+,U2+,O3+,U1+,O2+,U3+"
# closures of the 3-braids s1 s2 s1 s2 and s1 s1 s2 s1: one braid relation
# (an R3 move) apart, both presenting the trefoil; the mirror pair uses the
# inverse generators, putting the barred operations in triple position
TREFOIL_BRAID = "O1+,O2+,U4+,U1+,O3+,O4+,U2+,U3+"
TREFOIL_BRAID_R3 = "O1+,U2+,O4+,U1+,O2+,O3+,U3+,U4+"
MIRROR_BRAID = "U1-,U2-,O4-,O1-,U3-,U4-,O2-,O3-"
MIRROR_BRAID_R3 = "U1-,O2-,U4-,O1-,U2-,U3-,O3-,O4-"

REIDEMEISTER_PAIRS = (
    ("R1 positive kink", UNKNOT, KINK_POSITIVE),
    ("R1 negative kink", UNKNOT, KINK_NEGATIVE),
    ("R2 poke", UNKNOT, R2_POKE),
    ("R3 braid relation", TREFOIL_BRAID, TREFOIL_BRAID_R3),
    ("R3 braid relation, mirror", MIRROR_BRAID, MIRROR_BRAID_R3),
    ("R1+R2 trefoil stabilization", TREFOIL, TREFOIL_BRAID),
    ("virtual detour (identical code)", TREFOIL, TREFOIL),
)


@dataclass(frozen=True)
class ReidemeisterReport:
    """Counting-invariant values on the curated move-related pairs."""

    entries: tuple[tuple[str, int, int], ...]  # (name, count_a, count_b)
    passed: bool


def reidemeister_suite(target: BiquandleTable) -> ReidemeisterReport:
    """Evaluate the counting invariant on all curated move-related pairs."""
    entries = []
    ok = True
    for name, code_a, code_b in REIDEMEISTER_PAIRS:
        ca = count_gauss(code_a, target)
        cb = count_gauss(code_b, target)
        entries.append((name, ca, cb))
        ok = ok and ca == cb
    return ReidemeisterReport(tuple(entries), ok)


def load_fixture_codes(name: str) -> tuple[GaussCode, ...]:
    """Codes from a packaged fixture file (one code per line, '#' comments)."""
    text = resources.files("biquandles.data").joinpath(name).read_text()
    return tuple(parse_gauss_code(line) for _, line in _content_lines(text))


def kishino_codes() -> tuple[GaussCode, ...]:
    """The three Kishino knots from the packaged fixture file."""
    return load_fixture_codes("kishino.gauss")
