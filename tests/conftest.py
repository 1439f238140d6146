import itertools
import math

import pytest

from biquandles import (make_alexander, make_module, make_scalar_module,
                        make_switch_biquandle, parse_matrix,
                        trivial_biquandle)
from biquandles.modules import carrier, counting_element_order

# The published 8x8 matrix of the order-4 switch biquandle on Z_2 x Z_2
# (element order (1,0), (0,1), (1,1), (0,0)); reused across the suite as an
# independent fixture for parser, axiom, and counting tests.
Z2Z2_MATRIX = """4
3 1 2 4 4 1 3 2
2 4 3 1 2 3 1 4
1 3 4 2 3 2 4 1
4 2 1 3 1 4 2 3
4 1 3 2 3 1 2 4
2 3 1 4 2 4 3 1
3 2 4 1 1 3 4 2
1 4 2 3 4 2 1 3
"""

SWITCH_A = ((0, 1), (1, 1))
SWITCH_B = ((1, 1), (0, 1))


def units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def scalar_modules(n):
    return [make_scalar_module(n, s, t) for s in units(n) for t in units(n)]


def zero_fixing_perms(n):
    """Every permutation of 1..n that fixes 1, as a 1-based image tuple."""
    return ((1,) + p for p in itertools.permutations(range(2, n + 1)))


# Z_3^2 with s the coordinate swap and t = -s, so st = -1: (1-st) is onto
# and the transversal is zero alone.  Sixteen zero-fixing bijections
# commute with s and t, and only the four additive ones, aI + bs with
# a != +-b, are biquandle isomorphisms.
SWAP_MODULE = make_module(3, 2, ((0, 1), (1, 0)), ((0, 2), (2, 0)))


def intertwiners(mod):
    """The zero-fixing bijections of ``mod`` that commute with s and t, by
    a scan of every permutation fixing zero."""
    s_of, t_of = mod.s_of, mod.t_of
    return [f for f in zero_fixing_perms(mod.size)
            if all(f[s_of[x]] - 1 == s_of[f[x] - 1] and
                   f[t_of[x]] - 1 == t_of[f[x] - 1] for x in range(mod.size))]


@pytest.fixture
def fresh_carriers():
    """An empty cache of group carriers, so that a test counting addition
    tables or matrix applications counts the same in any test order."""
    carrier.cache_clear()


@pytest.fixture(scope="session")
def z2z2_table():
    return parse_matrix(Z2Z2_MATRIX)


@pytest.fixture(scope="session")
def z2z2_constructed():
    return make_switch_biquandle(
        2, 2, SWITCH_A, SWITCH_B, (1, 1), counting_element_order(2, 2)).table


@pytest.fixture(scope="session")
def small_biquandles(z2z2_table):
    """A spread of verified biquandles for property tests."""
    return [
        trivial_biquandle(1),
        trivial_biquandle(3),
        z2z2_table,
        make_alexander(make_scalar_module(3, 2, 1)),
        make_alexander(make_scalar_module(5, 2, 3)),
        make_alexander(make_scalar_module(8, 3, 5)),
    ]


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion

_acceptance_log = []


@pytest.fixture
def acceptance():
    def record(number, description, passed, detail=""):
        _acceptance_log.append((number, description, passed, detail))
        assert passed, f"acceptance criterion {number}: {description} {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_log:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(
            _acceptance_log, key=lambda entry: str(entry[0])):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {number} {status}: {description}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
