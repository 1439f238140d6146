import math

import pytest

from biquandles import (make_alexander, make_scalar_module,
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
