import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import (AxiomReport, BiquandleTable, build_diagram,
                        count_homs, enumerate_biquandles, kernels,
                        make_alexander, make_module, make_scalar_module,
                        make_switch_biquandle, parse_gauss_code, parse_matrix,
                        serialize_matrix, trivial_biquandle,
                        verify_biquandle, yang_baxter_check)
from biquandles.axioms import CLAUSE_IDS, satisfies_axioms
from biquandles.errors import SwitchError
from biquandles.modules import counting_element_order
from biquandles.tables import from_pair_map

from conftest import scalar_modules, units
from oracles import _mul, is_bijective, recheck_axioms, recheck_yang_baxter
from test_tables import tables_strategy


def corrupted_trivial():
    t = trivial_biquandle(2)
    return BiquandleTable(2, ((2, 1), (2, 2)), t.down, t.upbar, t.downbar)


def _blocks(table):
    return [[list(row) for row in block]
            for block in (table.up, table.down, table.upbar, table.downbar)]


def corrupted(table, cells, rng):
    """Copy of ``table`` with ``cells`` random entries changed."""
    blocks = _blocks(table)
    for _ in range(cells):
        row = rng.choice(rng.choice(blocks))
        j = rng.randrange(table.n)
        row[j] = rng.choice([v for v in range(1, table.n + 1) if v != row[j]])
    return BiquandleTable(table.n, *blocks)


def row_swapped(table, rng):
    """Copy with two unequal entries of one up or upbar row swapped."""
    blocks = _blocks(table)
    row = rng.choice([row for block in (blocks[0], blocks[2])
                      for row in block if len(set(row)) > 1])
    i = rng.randrange(table.n)
    j = rng.choice([j for j in range(table.n) if row[j] != row[i]])
    row[i], row[j] = row[j], row[i]
    return BiquandleTable(table.n, *blocks)


def affine_table(m, c, d, a, b):
    """x^y = cx + dy, x_y = ay + bx on Z_m; the barred pair inverts S."""
    up = [(c * x + d * y) % m for x in range(m) for y in range(m)]
    down = [(a * y + b * x) % m for x in range(m) for y in range(m)]
    return from_pair_map(m, up, down)


# affine tables on Z_7 that keep axioms 1 and 2 and fail 3.i, 3.ii and
# 3.iii first, so that a full scan's first violation lies inside axiom 3
AXIOM_3_FIRST = [((1, 1, 0, 1), 10), ((1, 0, 1, 1), 11), ((1, 2, 1, 6), 12)]


@pytest.fixture(scope="module")
def larger_tables():
    """(table, oracle verdict) for valid tables of order 7 to 27, for
    copies with 1-3 corrupted cells or two entries of a row swapped, and
    for the ``AXIOM_3_FIRST`` tables."""
    rng = random.Random(20061107)
    bases = [
        make_alexander(make_scalar_module(7, 2, 3)),
        make_switch_biquandle(3, 2, ((0, 1), (1, 2)), ((2, 1), (0, 1)),
                              (1, 1)).table,
        make_alexander(make_scalar_module(12, 5, 7)),
        make_alexander(make_module(3, 3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                                   ((1, 1, 0), (0, 1, 1), (0, 0, 1)))),
    ]
    tables = []
    for base in bases:
        tables += [base, corrupted(base, 1, rng), corrupted(base, 2, rng),
                   corrupted(base, 3, rng), row_swapped(base, rng)]
    tables += [affine_table(7, *params) for params, _ in AXIOM_3_FIRST]
    return [(table, recheck_axioms(table)) for table in tables]


class TestVerify:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_trivial_passes(self, n):
        report = verify_biquandle(trivial_biquandle(n))
        assert report.passed and not report.violations

    def test_published_order_four_passes(self, z2z2_table):
        assert verify_biquandle(z2z2_table).passed

    def test_corrupted_trivial_fails_axiom_4_ii(self):
        # up[1][1] = 2 leaves a=1 with no x satisfying x^1 = 1
        report = verify_biquandle(corrupted_trivial())
        assert not report.passed
        assert "4.ii" in report.clause_ids()

    def test_report_lists_all_violations(self):
        report = verify_biquandle(corrupted_trivial())
        assert len(report.violations) > 1
        assert report.violations == tuple(sorted(report.violations))

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            AxiomReport(passed=True, violations=(("1.i", (1, 1)),))

    def test_cache_keeps_few_dropped_tables_alive(self):
        tables = [trivial_biquandle(n) for n in range(1, 21)]
        refs = [weakref.ref(table) for table in tables]
        for table in tables:
            assert verify_biquandle(table).passed
        del table, tables
        gc.collect()
        assert sum(ref() is not None for ref in refs) <= 8


class TestColumnBijectivity:
    def test_verified_tables_have_permutation_columns(self, small_biquandles):
        for table in small_biquandles:
            n = table.n
            for kind in ("up", "down", "upbar", "downbar"):
                block = getattr(table, kind)
                for j in range(n):
                    assert sorted(block[i][j] for i in range(n)) == \
                        list(range(1, n + 1)), (kind, j)


# Each barred clause is an unbarred one read on mirrored tables.  A mirror
# permutes (up, down, upbar, downbar) and sends the clause codes of a table
# to those of its mirror, witness for witness; each mirror is an involution.
MIRRORS = {
    # (upbar, downbar, up, down): axioms 1-3, unbarred to barred
    (2, 3, 0, 1): dict(zip((0, 1, 4, 5, 6, 10, 11, 12),
                           (2, 3, 7, 8, 9, 13, 14, 15))),
    # (downbar, upbar, down, up): axiom 4, x-group to y-group
    (3, 2, 1, 0): {16: 18, 17: 19},
}


def mirror_sweep_tables():
    """(n, flats) of seeded random tables and corrupted biquandles of
    order 2 to 4."""
    rng = random.Random(20061019)
    tables = []
    for _ in range(300):
        n = rng.randint(2, 4)
        tables.append((n, [[rng.randrange(n) for _ in range(n * n)]
                           for _ in range(4)]))
    bases = list(enumerate_biquandles(2).tables +
                 enumerate_biquandles(3).tables)
    bases += [make_alexander(mod) for mod in scalar_modules(4)]
    bases.append(trivial_biquandle(4))
    for _ in range(300):
        table = corrupted(rng.choice(bases), rng.randint(1, 3), rng)
        tables.append((table.n, list(table.flats())))
    return tables


class TestMirror:
    def test_barred_clauses_are_unbarred_ones_on_mirrored_tables(self):
        seen = set()
        for n, flats in mirror_sweep_tables():
            raw = kernels.axiom_scan(n, *flats)
            seen.update(code for code, _ in raw)
            for perm, codes in MIRRORS.items():
                mirror = kernels.axiom_scan(n, *map(flats.__getitem__, perm))
                for there in codes, {v: k for k, v in codes.items()}:
                    assert [(there[c], w) for c, w in raw if c in there] == \
                        [(c, w) for c, w in mirror
                         if c in there.values()], (n, flats, perm)
        assert seen == set(range(len(CLAUSE_IDS)))

    def test_raw_lists_frozen(self):
        # the exact violation lists (codes, witnesses and order) over the
        # corpus; the mirror check above compares scans with each other only
        digest = hashlib.sha256()
        for n, flats in mirror_sweep_tables():
            digest.update(repr(kernels.axiom_scan(n, *flats)).encode())
        assert digest.hexdigest() == \
            "c030258c837433980ce6edbe3eab64f423a3074f6cec9dd6dc3611cd5a2e0457"


class TestYangBaxter:
    def test_trivial_is_solution(self):
        assert yang_baxter_check(trivial_biquandle(3))

    def test_published_table_is_solution(self, z2z2_table):
        assert yang_baxter_check(z2z2_table)

    def test_corrupted_trivial_fails(self):
        # frozen from the exhaustive 2^3-triple oracle scan
        table = corrupted_trivial()
        assert recheck_yang_baxter(table) is False
        assert yang_baxter_check(table) is False

    def test_every_biquandle_is_switch(self, small_biquandles):
        for table in small_biquandles:
            assert yang_baxter_check(table), table.n

    def test_all_order_three_biquandles_are_switches(self):
        for table in enumerate_biquandles(3).tables:
            assert yang_baxter_check(table)


class TestDoubleEntry:
    """The library scan must agree with the independently coded re-check."""

    @settings(max_examples=80, deadline=None)
    @given(tables_strategy(max_n=4))
    def test_random_tables_agree(self, table):
        report = verify_biquandle(table)
        passed, violations = recheck_axioms(table)
        assert report.passed == passed
        assert report.violations == violations
        assert yang_baxter_check(table) == recheck_yang_baxter(table)

    def test_known_tables_agree(self, small_biquandles):
        for table in small_biquandles:
            if table.n > 5:
                continue
            report = verify_biquandle(table)
            passed, violations = recheck_axioms(table)
            assert (report.passed, report.violations) == (passed, violations)

    def test_larger_tables_agree(self, larger_tables):
        verdicts = [passed for _, (passed, _) in larger_tables]
        # each valid base passes and each of its four altered copies fails
        assert verdicts == [True, False, False, False, False] * 4 + \
            [False] * len(AXIOM_3_FIRST)
        for table, expected in larger_tables:
            report = verify_biquandle(table)
            assert (report.passed, report.violations) == expected, table.n

    def test_axiom_3_first_tables_fail_axiom_3_first(self, larger_tables):
        firsts = [kernels.axiom_scan(7, *table.flats())[0]
                  for table, _ in larger_tables[-len(AXIOM_3_FIRST):]]
        assert [code for code, _ in firsts] == \
            [code for _, code in AXIOM_3_FIRST]

    def test_scan_order_is_element_wise(self, larger_tables):
        # axioms 1-2 by (a, b), then axiom 3 by (a, b, c), then axiom 4 by
        # a; clause codes ascend within one witness
        def key(violation):
            code, witness = violation
            return (code >= 10) + (code >= 16), witness, code
        for table, _ in larger_tables:
            full = kernels.axiom_scan(table.n, *table.flats())
            assert full == sorted(full, key=key)

    def test_alexander_sweep_passes(self):
        import math
        for m in range(2, 9):
            units = [u for u in range(1, m) if math.gcd(u, m) == 1]
            for s in units:
                for t in units:
                    table = make_alexander(make_scalar_module(m, s, t))
                    assert verify_biquandle(table).passed, (m, s, t)


def full_scan_report(table, raw=None):
    """(passed, violations) of the unrestricted kernel scan, 1-based;
    ``raw`` is that scan when the caller has it already."""
    if raw is None:
        raw = kernels.axiom_scan(table.n, *table.flats())
    violations = tuple(sorted((CLAUSE_IDS[code], tuple(x + 1 for x in wit))
                              for code, wit in raw))
    return not violations, violations


def random_unit_matrix(rng, m, k):
    """A random k x k matrix invertible mod m."""
    while True:
        mat = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
        if is_bijective(mat, m):
            return mat


def affine_sweep_tables():
    """Marked tables: every scalar Z_2..Z_12 Alexander table in both
    element orders, rank-2 and rank-3 modules, and seeded random switches
    (some fail the axioms, some only axiom 3)."""
    tables = []
    for m in range(2, 13):
        for mod in scalar_modules(m):
            tables += [make_alexander(mod),
                       make_alexander(mod, counting_element_order(m, 1))]
    rng = random.Random(20061118)
    for m, k, count in ((2, 2, 3), (3, 2, 3), (4, 2, 3), (5, 2, 2),
                        (2, 3, 2), (3, 3, 2)):
        for _ in range(count):
            t = random_unit_matrix(rng, m, k)
            # s a power of t times a unit scalar commutes with t
            scale = rng.choice(units(m))
            s = [[scale * e % m for e in row] for row in _mul(t, t, m)]
            mod = make_module(m, k, s, t)
            tables += [make_alexander(mod),
                       make_alexander(mod, counting_element_order(m, k))]
    for _ in range(150):
        m, k = rng.choice([(2, 2), (3, 2), (4, 2), (7, 1)])
        a, b = (random_unit_matrix(rng, m, k) for _ in range(2))
        shift = [rng.randrange(m) for _ in range(k)]
        try:
            tables.append(make_switch_biquandle(m, k, a, b, shift).table)
        except SwitchError:
            pass
    return tables


def marked(table, basis):
    """``table`` with ``affine_basis`` set, as only the affine builder sets
    it; the caller vouches that the four operations are affine maps of
    Z_m^k with zero and unit vectors at ``basis``."""
    return BiquandleTable._built(table.n, table.flats(), basis)


def failing_switches(count, seed):
    """Seeded marked switch tables that fail the axioms."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        m, k = rng.choice([(2, 2), (3, 2), (4, 2), (7, 1)])
        a, b = (random_unit_matrix(rng, m, k) for _ in range(2))
        shift = [rng.randrange(m) for _ in range(k)]
        try:
            table = make_switch_biquandle(m, k, a, b, shift).table
        except SwitchError:
            continue
        if not recheck_axioms(table)[0]:
            tables.append(table)
    return tables


def affine_op(m, k, u, v, w):
    """Flat table of x * y = Ux + Vy + w over Z_m^k in canonical order."""
    elems = list(itertools.product(range(m), repeat=k))
    index = {e: i for i, e in enumerate(elems)}
    ux, vy = ([tuple(sum(r * c for r, c in zip(row, x)) % m for row in mat)
               for x in elems] for mat in (u, v))
    return [index[tuple((p + q + z) % m for p, q, z in zip(x, y, w))]
            for x in ux for y in vy]


def random_affine_tables(count, seed):
    """Marked tables x^y = Cx + Dy + c, x_y = Ay + Bx + c over small
    Z_m^k, with any C, D, A, B and the barred operations inverting S.  In
    every third one a barred operation is replaced by a random affine map,
    so that axiom 1 fails too; axioms 2, 3 and 4 fail in many
    combinations."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        m, k = rng.choice([(m, 1) for m in range(2, 10)] +
                          [(2, 2), (3, 2), (2, 3)])

        def mat():
            return [[rng.randrange(m) for _ in range(k)] for _ in range(k)]

        def vec():
            return [rng.randrange(m) for _ in range(k)]

        c = vec()
        up, down = (affine_op(m, k, mat(), mat(), c) for _ in range(2))
        basis = (0,) + tuple(m ** (k - 1 - i) for i in range(k))
        try:
            table = from_pair_map(m ** k, up, down)
        except SwitchError:
            continue
        if len(tables) % 3 == 2:
            flats = list(table.flats())
            flats[rng.choice((2, 3))] = affine_op(m, k, mat(), mat(), vec())
            table = BiquandleTable.from_flats(table.n, *flats)
        tables.append(marked(table, basis))
    return tables


def failing_units(raw):
    """Each failing equation clause, and each failing solution group as the
    code of its first clause (blame within a group may depend on where)."""
    groups = {5: 4, 6: 4, 8: 7, 9: 7, 17: 16, 19: 18}
    return {groups.get(code, code) for code, _ in raw}


class TestAffineBasis:
    """Every axiom of a marked affine table is decided on its generator
    points: 1 + 2k pairs (a, b) and 1 + k elements a."""

    def test_verdict_agrees_with_full_scan(self):
        tables = affine_sweep_tables()
        only_axiom_3 = fails_axiom_4 = 0
        for table in tables:
            assert table.affine_basis is not None
            expected = full_scan_report(table)
            # bypass the cache: an equal unmarked table may sit in it
            report = verify_biquandle.__wrapped__(table)
            assert (report.passed, report.violations) == expected
            assert satisfies_axioms(table) == expected[0]
            clauses = {cid for cid, _ in expected[1]}
            only_axiom_3 += bool(clauses) and all(
                cid.startswith("3.") for cid in clauses)
            fails_axiom_4 += any(cid.startswith("4.") for cid in clauses)
        assert only_axiom_3 >= 1 and fails_axiom_4 >= 1

    def test_each_clause_fails_on_generator_points_iff_anywhere(self):
        seen, without_3 = set(), set()
        for table in random_affine_tables(200, seed=11):
            full = kernels.axiom_scan(table.n, *table.flats())
            limited = kernels.axiom_scan(table.n, *table.flats(),
                                         basis=table.affine_basis)
            assert failing_units(limited) == failing_units(full)
            report = verify_biquandle.__wrapped__(table)
            assert (report.passed, report.violations) == \
                full_scan_report(table, full)
            axioms = {CLAUSE_IDS[code][0] for code in failing_units(full)}
            seen |= failing_units(full)
            if "3" not in axioms:
                without_3 |= axioms
        # every clause and group fails somewhere, and axioms 2 and 4 fail
        # on tables whose axiom 3 holds, so no other failure masks them
        assert seen == failing_units(
            (code, None) for code in range(len(CLAUSE_IDS)))
        assert without_3 == {"2", "4"}

    def test_marked_table_scans_few_axiom_3_pairs(self, monkeypatch):
        # every axiom of a marked table is scanned on its basis of 1 + k
        # elements, so on 1 + 2k pairs (test_basis_scan_reports_only_
        # generator_points); an unmarked copy is scanned in full
        table = make_alexander(make_module(
            3, 3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
            ((1, 1, 0), (0, 1, 1), (0, 0, 1))))
        scan, seen = kernels.axiom_scan, []

        def spy(*args, basis=None, **kwargs):
            seen.append(basis)
            return scan(*args, basis=basis, **kwargs)

        monkeypatch.setattr(kernels, "axiom_scan", spy)
        assert verify_biquandle.__wrapped__(table).passed
        assert satisfies_axioms(table)
        assert seen == [(0, 9, 3, 1)] * 2 == [table.affine_basis] * 2
        seen.clear()
        unmarked = BiquandleTable.from_flats(table.n, *table.flats())
        assert verify_biquandle.__wrapped__(unmarked).passed
        assert seen == [None]

    def test_basis_scan_reports_only_generator_points(self):
        # a random table fails at every pair and element; scanned on a
        # basis (z, e_1, ..., e_k) it reports exactly the full scan's
        # violations at the 1 + 2k pairs (z, z), (e_i, z), (z, e_i) and at
        # the 1 + k basis elements
        rng = random.Random(27)
        n, basis = 6, (2, 0, 5)
        z, units = basis[0], basis[1:]
        flats = [tuple(rng.randrange(n) for _ in range(n * n))
                 for _ in range(4)]
        full = kernels.axiom_scan(n, *flats)
        limited = kernels.axiom_scan(n, *flats, basis=basis)
        pairs = {(z, z)} | {(e, z) for e in units} | {(z, e) for e in units}
        assert len(pairs) == 1 + 2 * len(units)

        def at_generators(wit):
            return wit[:2] in pairs if len(wit) > 1 else wit[0] in basis

        assert {wit[:2] for _, wit in full if len(wit) > 1} == \
            set(itertools.product(range(n), repeat=2))
        assert {wit for _, wit in full if len(wit) == 1} == \
            {(a,) for a in range(n)}
        assert sorted(limited) == sorted(
            (code, wit) for code, wit in full if at_generators(wit))

    def test_marked_and_unmarked_tables_are_one_key(self):
        built = make_alexander(make_scalar_module(9, 2, 4))
        unmarked = BiquandleTable.from_flats(9, *built.flats())
        copy = marked(unmarked, (0, 1))
        assert built.affine_basis == copy.affine_basis == (0, 1)
        assert unmarked.affine_basis is None
        for table in built, copy:
            assert table == unmarked and hash(table) == hash(unmarked)
            assert repr(table) == repr(unmarked)
        assert verify_biquandle(copy) is verify_biquandle(unmarked)

    def test_failing_switch_is_decided_on_generator_points(self,
                                                           monkeypatch):
        # satisfies_axioms scans a marked table once, on its generator
        # points, and never builds the full report
        scan, seen = kernels.axiom_scan, []

        def spy(*args, basis=None):
            seen.append(None if basis is None else len(basis))
            return scan(*args, basis=basis)

        monkeypatch.setattr(kernels, "axiom_scan", spy)
        for table in failing_switches(6, seed=20061021):
            k = len(table.affine_basis) - 1
            seen.clear()
            assert not satisfies_axioms(table)
            assert seen == [1 + k]


class TestMarker:
    def test_only_the_builder_marks_a_table(self):
        table = make_alexander(make_module(3, 2, ((2, 0), (0, 2)),
                                           ((1, 1), (0, 1))))
        flats = [list(flat) for flat in table.flats()]
        assert flats[0][77] == 6
        flats[0][77] = 5
        with pytest.raises(TypeError):
            BiquandleTable.from_flats(9, *flats,
                                      affine_basis=table.affine_basis)
        with pytest.raises(TypeError):
            from_pair_map(9, *table.flats()[:2],
                          affine_basis=table.affine_basis)
        copy = BiquandleTable.from_flats(9, *flats)
        assert copy.affine_basis is None
        report = verify_biquandle(copy)
        assert not report.passed and len(report.violations) == 63
        assert report.clause_ids() == ("1.i", "1.iii", "2.iii", "2.v",
                                       "2.vi", "3.i", "3.iii")
        assert (report.passed, report.violations) == recheck_axioms(copy)
        assert not satisfies_axioms(copy)
        with pytest.raises(ValueError, match="not a biquandle"):
            count_homs(build_diagram(parse_gauss_code("")), copy)
        reparsed = parse_matrix(serialize_matrix(copy))
        assert verify_biquandle.__wrapped__(reparsed) == report


def verdict_sweep_tables():
    """Tables of every kind ``satisfies_axioms`` sees: the mirror sweep's
    600, every enumerated table of orders 1-4, and marked affine tables
    and switches that pass or fail."""
    tables = [BiquandleTable.from_flats(n, *flats)
              for n, flats in mirror_sweep_tables()]
    for n in range(1, 5):
        tables += enumerate_biquandles(n).tables
    tables += random_affine_tables(200, seed=11)
    tables += failing_switches(20, seed=20061020)
    return tables


class TestVerdict:
    def test_satisfies_axioms_is_the_report_verdict(self, larger_tables):
        tables = verdict_sweep_tables() + [t for t, _ in larger_tables]
        verdicts = [satisfies_axioms(t) for t in tables]
        assert verdicts == [verify_biquandle(t).passed for t in tables]
        assert True in verdicts and False in verdicts
