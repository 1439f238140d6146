import itertools
import math
import random
import sys

import pytest

from biquandles import alexander, cli, modules, tables
from biquandles import (FiniteModule, SwitchError, WitnessError,
                        extract_witness, is_homomorphism, kernel_one_minus_s,
                        make_alexander, make_module, make_scalar_module,
                        make_switch_biquandle, normalize_iso,
                        serialize_matrix, structural_iso, translation_map,
                        trivial_biquandle, verify_biquandle)
from biquandles.modules import counting_element_order

from conftest import (SWAP_MODULE, SWITCH_A, SWITCH_B, Z2Z2_MATRIX,
                      intertwiners, scalar_modules, units)
from oracles import (_ident, _mul, alexander_blocks, column_inverse,
                     is_bijective, matrix_inverse, switch_blocks)


def blocks(table):
    return (table.up, table.down, table.upbar, table.downbar)


def zero_and_units(k):
    return [(0,) * k] + [tuple(int(i == j) for j in range(k))
                         for i in range(k)]


@pytest.fixture
def column_reads(monkeypatch, fresh_carriers):
    """The matrix columns read by every call of ``Carrier.images``, in call
    order: k per call."""
    reads = []
    images = modules.Carrier.images

    def spy(group, mat):
        reads.extend(zip(*mat))
        return images(group, mat)

    monkeypatch.setattr(modules.Carrier, "images", spy)
    return reads


def orders(m, k):
    return (tuple(itertools.product(range(m), repeat=k)),
            counting_element_order(m, k))


class TestMakeAlexander:
    def test_z3_printed_blocks(self):
        # element order 1, 2, 0: the up block of Z_3 with s=2, t=1
        table = make_alexander(make_scalar_module(3, 2, 1),
                               counting_element_order(3, 1))
        assert table.up == ((3, 2, 1), (1, 3, 2), (2, 1, 3))
        assert table.down == ((2, 2, 2), (1, 1, 1), (3, 3, 3))
        assert table.downbar == ((2, 2, 2), (1, 1, 1), (3, 3, 3))

    @pytest.mark.parametrize("order", [
        ((1,), (2,)), ((1,), (2,), (0,), (1,)), ((1,), (2,), (2,)),
        ((1,), (2,), (0,), (3,))])
    def test_order_must_list_every_element_once(self, order):
        # (3,) is 0 mod 3: a repeat, not a fourth element
        with pytest.raises(ValueError, match="every element once"):
            make_alexander(make_scalar_module(3, 2, 1), order)

    def test_order_coordinates_reduced_mod_m(self):
        mod = make_scalar_module(3, 2, 1)
        assert make_alexander(mod, ((4,), (-1,), (3,))) == \
            make_alexander(mod, counting_element_order(3, 1))

    def test_z3_down_block_from_formula(self):
        # oracle: x_y = s x recomputed by direct modular arithmetic
        order = [1, 2, 0]
        index = {v: i + 1 for i, v in enumerate(order)}
        expected = tuple(
            tuple(index[(2 * x) % 3] for _ in order) for x in order)
        table = make_alexander(make_scalar_module(3, 2, 1),
                               counting_element_order(3, 1))
        assert table.down == expected == ((2, 2, 2), (1, 1, 1), (3, 3, 3))

    def test_up_block_from_formula_canonical_order(self):
        mod = make_scalar_module(5, 2, 3)
        table = make_alexander(mod)
        for x in range(5):
            for y in range(5):
                want = (3 * x + (1 - 6) * y) % 5
                assert table.up[x][y] == want + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_s_t_one_gives_trivial(self, n):
        assert make_alexander(make_scalar_module(n, 1, 1)) == \
            trivial_biquandle(n)

    @pytest.mark.parametrize("m,s,t", [
        (6, ((2,),), ((1,),)),
        (6, ((5,),), ((3,),)),
        (3, ((1, 1), (1, 1)), ((1, 0), (0, 1))),
        (4, ((1, 0), (0, 1)), ((2, 1), (0, 2))),
    ])
    def test_singular_action_refused(self, m, s, t):
        # built directly, the module skips make_module's checks; a singular
        # s or t leaves S(a, b) = (sb, ta + (1-st)b) without an inverse
        mod = FiniteModule(m, len(s), s, t)
        for order in orders(m, len(s)):
            with pytest.raises(SwitchError,
                               match="^switch pair map is not invertible$"):
                make_alexander(mod, order)

    def test_custom_order_must_be_complete(self):
        with pytest.raises(ValueError):
            make_alexander(make_scalar_module(3, 2, 1), ((0,), (1,), (1,)))

    def test_always_biquandle_scalar_sweep(self):
        for m in range(2, 9):
            for mod in scalar_modules(m):
                assert verify_biquandle(make_alexander(mod)).passed

    def test_always_biquandle_rank_two(self):
        # all commuting pairs of invertible 2x2 matrices over Z_2, plus a
        # couple of modulus-3 samples
        gl2 = [m for m in itertools.product(range(2), repeat=4)
               if (m[0] * m[3] - m[1] * m[2]) % 2 == 1]
        mats = [((a, b), (c, d)) for a, b, c, d in gl2]

        def mul(x, y):
            return tuple(
                tuple(sum(x[i][l] * y[l][j] for l in range(2)) % 2
                      for j in range(2)) for i in range(2))

        pairs = [(s, t) for s in mats for t in mats if mul(s, t) == mul(t, s)]
        for s, t in pairs:
            table = make_alexander(make_module(2, 2, s, t))
            assert verify_biquandle(table).passed, (s, t)
        for s, t in [((( 1, 1), (0, 1)), ((2, 0), (0, 2))),
                     (((2, 1), (0, 2)), ((2, 1), (0, 2)))]:
            table = make_alexander(make_module(3, 2, s, t))
            assert verify_biquandle(table).passed, (s, t)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_always_biquandle_rank_two_larger_moduli(self, m):
        # structured commuting families: (S, S), (S, S^{-1}), (S, c I)
        shear = ((1, 1), (0, 1))
        rot = ((0, 1), (m - 1, 0))
        unit = max(u for u in range(1, m) if math.gcd(u, m) == 1)
        scalar = ((unit, 0), (0, unit))
        samples = [(shear, shear), (rot, rot), (shear, scalar),
                   (scalar, rot)]
        samples.append((shear, matrix_inverse(shear, m)))
        for s, t in samples:
            table = make_alexander(make_module(m, 2, s, t))
            assert verify_biquandle(table).passed, (m, s, t)


class TestMakeSwitch:
    def test_published_matrix_verbatim(self, z2z2_constructed):
        assert serialize_matrix(z2z2_constructed) == Z2Z2_MATRIX

    def test_report_flags(self):
        report = make_switch_biquandle(2, 2, SWITCH_A, SWITCH_B, (1, 1),
                                       counting_element_order(2, 2))
        assert report.switch_condition_holds
        assert report.axioms.passed

    def test_zero_shift_variant(self):
        # regression fixture: same A, B without the constant shift also
        # satisfies the commutator condition and the axioms
        report = make_switch_biquandle(2, 2, SWITCH_A, SWITCH_B)
        assert report.switch_condition_holds
        assert report.axioms.passed

    def test_switch_condition_matches_matrix_commutator(self):
        # [B, (A-I)(A,B)] = 0 with (A,B) = A^-1 B^-1 A B, multiplied out
        # by rows and columns on seeded unit matrices
        def minus(x, y, m):
            return tuple(tuple((p - q) % m for p, q in zip(rx, ry))
                         for rx, ry in zip(x, y))

        rng = random.Random(20061119)
        verdicts = []
        for m in range(2, 8):
            for k in (1, 2, 3):
                for _ in range(10):
                    a, b = (tuple(tuple(rng.randrange(m) for _ in range(k))
                                  for _ in range(k)) for _ in range(2))
                    a_minus_i = minus(a, _ident(k), m)
                    if not (is_bijective(a, m) and is_bijective(b, m)
                            and is_bijective(a_minus_i, m)):
                        continue
                    ai, bi = column_inverse(a, m), column_inverse(b, m)
                    group_comm = _mul(_mul(_mul(ai, bi, m), a, m), b, m)
                    term = _mul(a_minus_i, group_comm, m)
                    holds = _mul(b, term, m) == _mul(term, b, m)
                    shift = [rng.randrange(m) for _ in range(k)]
                    report = make_switch_biquandle(m, k, a, b, shift)
                    assert report.switch_condition_holds == holds, (m, a, b)
                    verdicts.append(holds)
        assert verdicts.count(True) > 10 and verdicts.count(False) > 10

    def test_identity_switch_degenerates(self):
        # A = B = I gives C = D = 0, so the pair map (a, b) -> (a + b, 0)
        # cannot be inverted; recorded as the error verdict
        ident = ((1, 0), (0, 1))
        assert switch_blocks(2, ident, ident, (0, 0), orders(2, 2)[0]) \
            is None
        with pytest.raises(SwitchError,
                           match="switch pair map is not invertible"):
            make_switch_biquandle(2, 2, ident, ident)

    def test_non_invertible_inputs_rejected(self):
        with pytest.raises(SwitchError):
            make_switch_biquandle(2, 2, ((1, 1), (1, 1)), SWITCH_B)
        with pytest.raises(SwitchError):
            make_switch_biquandle(4, 1, ((2,),), ((1,),))

    def test_matrix_shape_checked(self):
        with pytest.raises(SwitchError, match="^A must be a 2x2 integer"):
            make_switch_biquandle(5, 2, ((1, 0),), SWITCH_B)
        with pytest.raises(SwitchError, match="^B must be a 2x2 integer"):
            make_switch_biquandle(5, 2, ((1, 0), (0, 1)), ((1, 0), (0,)))

    def test_shift_length_checked(self):
        with pytest.raises(SwitchError, match="^shift needs 2 coordinates$"):
            make_switch_biquandle(5, 2, ((1, 0), (0, 1)), ((2, 0), (0, 2)),
                                  (1,))

    def test_axiom_report_is_built_on_first_access(self, monkeypatch):
        calls = []

        def verify(table):
            calls.append(table)
            return verify_biquandle(table)

        monkeypatch.setattr(alexander, "verify_biquandle", verify)
        report = make_switch_biquandle(2, 2, SWITCH_A, SWITCH_B)
        assert calls == []
        assert report.axioms is report.axioms
        assert report.axioms.passed and calls == [report.table]

    def test_scalar_switch(self):
        # over Z_5 with A=2, B=3: C = 2^{-1}3^{-1}2(1-2), D = 1-2^{-1}3^{-1}23
        report = make_switch_biquandle(5, 1, ((2,),), ((3,),))
        assert report.table.n == 5


class TestFormulaOracle:
    """Both builders against the per-pair formulas of ``oracles``."""

    def test_scalar_alexander(self):
        for m in range(2, 10):
            for s in units(m):
                for t in units(m):
                    mod = make_scalar_module(m, s, t)
                    for order in orders(m, 1):
                        assert blocks(make_alexander(mod, order)) == \
                            alexander_blocks(m, ((s,),), ((t,),), order)

    @pytest.mark.parametrize("m,s,t", [
        (2, ((1, 1), (0, 1)), ((1, 1), (0, 1))),
        (3, ((1, 1), (0, 1)), ((2, 0), (0, 2))),
        (3, ((2, 1), (0, 2)), ((2, 1), (0, 2))),
        (4, ((0, 1), (3, 0)), ((0, 1), (3, 0))),
        (5, ((1, 1), (0, 1)), ((4, 0), (0, 4))),
    ])
    def test_rank_two_alexander(self, m, s, t):
        mod = make_module(m, 2, s, t)
        for order in orders(m, 2):
            assert blocks(make_alexander(mod, order)) == \
                alexander_blocks(m, s, t, order)

    @pytest.mark.parametrize("m,k,s,t", [
        (7, 1, ((3,),), ((5,),)),
        (3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2))),
        (5, 2, ((1, 1), (0, 1)), ((4, 0), (0, 4))),
        (2, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
         ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
    ])
    def test_alexander_shuffled_orders(self, m, k, s, t):
        # zero is not first and the unit vectors sit anywhere in the order
        mod = make_module(m, k, s, t)
        rng = random.Random(f"shuffled:{m}^{k}")
        for _ in range(4):
            order = rng.sample(mod.elements, len(mod.elements))
            table = make_alexander(mod, order)
            assert blocks(table) == alexander_blocks(m, s, t, order)
            assert [order[i] for i in table.affine_basis] == \
                zero_and_units(k)

    @pytest.mark.parametrize("m,k,a,b,c", [
        (2, 2, SWITCH_A, SWITCH_B, (1, 1)),
        (3, 2, SWITCH_A, SWITCH_B, (1, 2)),
        (5, 1, ((2,),), ((3,),), (4,)),
    ])
    def test_switch_shuffled_orders(self, m, k, a, b, c):
        rng = random.Random(f"shuffled-switch:{m}^{k}")
        elements = list(itertools.product(range(m), repeat=k))
        for _ in range(4):
            order = rng.sample(elements, len(elements))
            table = make_switch_biquandle(m, k, a, b, c, order).table
            assert blocks(table) == switch_blocks(m, a, b, c, order)
            assert [order[i] for i in table.affine_basis] == \
                zero_and_units(k)

    def test_matrices_applied_to_unit_vectors_only(self, column_reads):
        # a Z_3^3 table reads the k columns (the images of the unit vectors)
        # of each of the module's matrices, not the images of all 27
        # elements
        k = 3
        mod = make_module(3, k, ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                          ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        table = make_alexander(mod)
        assert 0 < len(column_reads) <= 4 * k + 4
        assert blocks(table) == alexander_blocks(
            3, mod.s_matrix, mod.t_matrix, mod.elements)

    def test_decider_and_orbits_apply_no_matrix(self, column_reads,
                                                tmp_path, capsys):
        # structural_iso and extract_witness read the images make_alexander
        # cached, and the orbits listing builds one module's images only
        k = 3
        a = make_module(3, k, ((0, 2, 1), (2, 0, 1), (0, 0, 2)),
                        ((0, 2, 0), (2, 0, 0), (0, 0, 2)))
        b = make_module(3, k, ((2, 0, 2), (2, 1, 2), (0, 0, 2)),
                        ((2, 0, 0), (2, 1, 1), (0, 0, 2)))
        make_alexander(a), make_alexander(b)
        built = len(column_reads)
        assert 0 < built <= 2 * (4 * k + 4)
        witness, _ = structural_iso(a, b)
        assert extract_witness(a, b, witness.perm) == witness
        assert len(column_reads) == built
        path = tmp_path / "a.mod"
        path.write_text("3 3\n0 2 1\n2 0 1\n0 0 2\n0 2 0\n2 0 0\n0 0 2\n")
        assert cli.main(["orbits", "--mod", str(path), "--json"]) == 0
        assert "s_orbit_of_transversal" in capsys.readouterr().out
        assert built < len(column_reads) <= built + 4 * k + 4

    def test_witness_path_builds_no_table(self, monkeypatch):
        # normalize_iso and extract_witness certify a map on the module:
        # neither builds a table nor checks one, yet extract_witness still
        # rejects the twelve intertwiners of the swap module that are not
        # isomorphisms and a translation by an element outside Ker(1-s)
        calls = []

        def spy(name, func):
            def counted(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return counted

        for name, func in (("make_alexander", alexander.make_alexander),
                           ("is_homomorphism", tables.is_homomorphism)):
            for mod in [m for key, m in sys.modules.items()
                        if key.split(".")[0] == "biquandles"]:
                if getattr(mod, name, None) is func:
                    monkeypatch.setattr(mod, name, spy(name, func))
        mod, plus = SWAP_MODULE, SWAP_MODULE.plus
        maps = intertwiners(mod)
        additive = [f for f in maps
                    if all(f[plus[x][y]] - 1 == plus[f[x] - 1][f[y] - 1]
                           for x in range(9) for y in range(9))]
        assert len(maps) == 16 and len(additive) == 4
        for f in maps:
            if f in additive:
                assert normalize_iso(mod, mod, f) == f
                assert extract_witness(mod, mod, f).perm == f
            else:
                with pytest.raises(WitnessError):
                    extract_witness(mod, mod, f)
        z8 = make_scalar_module(8, 3, 5)
        shift = translation_map(z8, (1,))  # 1 is outside Ker(1-s)
        with pytest.raises(WitnessError):
            extract_witness(z8, z8, shift)
        witness = extract_witness(z8, z8, translation_map(z8, (4,)))
        assert witness.perm == tuple(range(1, 9))
        assert calls == []

    def test_random_switches(self):
        rng = random.Random(31)
        singular = 0
        for m in range(2, 6):
            for k in (1, 2):
                for _ in range(10):
                    a = b = None
                    while a is None or matrix_inverse(a, m) is None or \
                            matrix_inverse(b, m) is None:
                        a, b = (tuple(tuple(rng.randrange(m)
                                            for _ in range(k))
                                      for _ in range(k)) for _ in "ab")
                    c = tuple(rng.randrange(m) for _ in range(k))
                    a_minus_i = tuple(
                        tuple((x - (i == j)) % m for j, x in enumerate(row))
                        for i, row in enumerate(a))
                    for order in orders(m, k):
                        want = switch_blocks(m, a, b, c, order)
                        # S is a bijection iff A - I is invertible mod m
                        assert (want is None) == \
                            (matrix_inverse(a_minus_i, m) is None)
                        if want is None:
                            singular += 1
                            with pytest.raises(
                                    SwitchError, match="not invertible"):
                                make_switch_biquandle(m, k, a, b, c, order)
                            continue
                        report = make_switch_biquandle(m, k, a, b, c, order)
                        assert blocks(report.table) == want, (m, a, b, c)
        # this seed draws 30 switches with an invertible pair map, 50 without
        assert singular == 2 * 50


class TestTranslations:
    def test_kernel_translations_are_automorphisms(self):
        mod = make_scalar_module(8, 3, 5)
        table = make_alexander(mod)
        kernel = set(kernel_one_minus_s(mod).elements)
        for z in mod.elements:
            perm = translation_map(mod, z)
            is_auto = sorted(perm) == list(range(1, 9)) and \
                is_homomorphism(table, table, perm)
            assert is_auto == (z in kernel), z

    def test_failing_pair_exhibited_for_non_kernel_shift(self):
        mod = make_scalar_module(8, 3, 5)
        table = make_alexander(mod)
        perm = translation_map(mod, (1,))
        bad = [(a, b) for a in range(1, 9) for b in range(1, 9)
               if perm[table.op("down", a, b) - 1] !=
               table.op("down", perm[a - 1], perm[b - 1])]
        assert bad  # z = 1 is outside Ker(1-s); the down equation breaks


class TestNormalizeIso:
    def test_zero_fixing_map_unchanged(self):
        mod = make_scalar_module(3, 2, 1)
        assert normalize_iso(mod, mod, (1, 2, 3)) == (1, 2, 3)

    def test_translation_normalizes_to_identity(self):
        mod = make_scalar_module(8, 3, 5)
        g4 = translation_map(mod, (4,))
        assert normalize_iso(mod, mod, g4) == tuple(range(1, 9))

    def test_normalized_map_is_iso_and_fixes_zero(self):
        mod_a = make_scalar_module(5, 2, 3)
        mod_b = make_scalar_module(5, 2, 3)
        ta, tb = make_alexander(mod_a), make_alexander(mod_b)
        from biquandles import all_isomorphisms
        for f in all_isomorphisms(ta, tb):
            norm = normalize_iso(mod_a, mod_b, f)
            assert norm[0] == 1  # zero is canonically first
            assert is_homomorphism(ta, tb, norm)

    def test_non_isomorphism_rejected(self):
        mod = make_scalar_module(3, 2, 1)
        with pytest.raises(WitnessError):
            normalize_iso(mod, mod, (2, 1, 3))

    def test_mapping_read_as_images(self):
        # {1: 2, 2: 1, 3: 3} is the map (2, 1, 3), not the identity
        mod = make_scalar_module(3, 2, 1)
        with pytest.raises(WitnessError):
            normalize_iso(mod, mod, {1: 2, 2: 1, 3: 3})
        assert normalize_iso(mod, mod, {1: 1, 2: 3, 3: 2}) == (1, 3, 2)

    @pytest.mark.parametrize("f", [("a", 2, 3), (1, 2), (1, 2, 4),
                                   {1: 1, 2: 2}])
    def test_malformed_map_is_a_value_error(self, f):
        mod = make_scalar_module(3, 2, 1)
        with pytest.raises(ValueError):
            normalize_iso(mod, mod, f)
