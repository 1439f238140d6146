import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import biquandles
from biquandles import (FiniteModule, ModuleError, Submodule,
                        kernel_one_minus_s, make_alexander, make_module,
                        make_scalar_module, make_switch_biquandle,
                        module_isomorphisms,
                        one_minus_st_submodule, s_orbit, structural_iso,
                        translation_map, transversal, verify_biquandle)
from biquandles import kernels, modules
from biquandles.errors import SwitchError
from biquandles.kernels import MAX_STATES
from biquandles.modules import (_addition_table, carrier,
                                counting_element_order)

from conftest import scalar_modules
from oracles import (_ident, _mul, _neg, _sum, _vec, column_inverse,
                     is_bijective, scan_module_isomorphisms)

Z8_35 = make_scalar_module(8, 3, 5)
Z8_53 = make_scalar_module(8, 5, 3)


def elems(xs):
    return tuple((x,) for x in xs)


class TestMakeModule:
    def test_known_scalar_examples(self):
        assert make_scalar_module(3, 2, 1).scalar_params() == (2, 1)
        assert make_scalar_module(8, 3, 5).scalar_params() == (3, 5)

    def test_non_unit_rejected(self):
        with pytest.raises(ModuleError):
            make_scalar_module(4, 2, 1)

    def test_non_commuting_rejected(self):
        with pytest.raises(ModuleError, match="do not commute mod 5$"):
            make_module(5, 2, ((1, 1), (0, 1)), ((1, 0), (1, 1)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ModuleError):
            make_module(5, 2, ((1, 0),), ((1, 0), (0, 1)))

    def test_small_modulus_rejected(self):
        with pytest.raises(ModuleError):
            make_scalar_module(1, 1, 1)

    def test_matrix_module_accepted(self):
        mod = make_module(3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2)))
        assert mod.size == 9


def test_images_reduce_unreduced_and_negative_entries():
    mat = ((7, -3, 12), (-14, 0, 5), (1, -1, -20))
    m = 6
    group = carrier(m, 3)
    img = group.images(mat)
    assert img == group.images(tuple(tuple(e % m for e in row)
                                      for row in mat))
    # oracle: the coordinates of mat.x mod m for every x in Z_6^3
    elements = list(itertools.product(range(m), repeat=3))
    assert [elements[i] for i in img] == [_vec(mat, x, m) for x in elements]
    # (4, -2, 9) is (4, 4, 3) mod 6
    assert elements[img[elements.index((4, 4, 3))]] == (4, 1, 0)


class TestMatInv:
    def test_random_matrices_match_bijectivity(self):
        # both builders refuse a matrix exactly when x -> Ax does not
        # permute Z_m^k (checked by brute force), and a switch's pair map
        # exactly when x -> (A - I)x does not
        rng = random.Random(20061107)
        for m in range(2, 13):
            for k in (1, 2, 3):
                ident = _ident(k)
                for _ in range(12):
                    mat = tuple(tuple(rng.randrange(m) for _ in range(k))
                                for _ in range(k))
                    if m ** k > 1024:  # refused by size, see TestCarrier
                        continue
                    if not is_bijective(mat, m):
                        for args, name in (((mat, ident), "s action"),
                                           ((ident, mat), "t action")):
                            with pytest.raises(
                                    ModuleError,
                                    match=f"^{name} is not invertible mod {m}$"):
                                make_module(m, k, *args)
                        for args, name in (((mat, ident), "A"),
                                           ((ident, mat), "B")):
                            with pytest.raises(
                                    SwitchError,
                                    match=f"^{name} is not invertible mod {m}$"):
                                make_switch_biquandle(m, k, *args)
                        continue
                    assert make_module(m, k, mat, ident).s_matrix == mat
                    assert make_module(m, k, ident, mat).t_matrix == mat
                    a_minus_i = tuple(tuple((e - (i == j)) % m
                                            for j, e in enumerate(row))
                                      for i, row in enumerate(mat))
                    if is_bijective(a_minus_i, m):
                        make_switch_biquandle(m, k, mat, ident)
                    else:
                        with pytest.raises(SwitchError, match="^switch pair"
                                           " map is not invertible$"):
                            make_switch_biquandle(m, k, mat, ident)

    def test_zero_divisor_determinants_rejected(self):
        with pytest.raises(ModuleError, match="s action is not invertible"):
            make_module(4, 1, ((2,),), ((1,),))
        with pytest.raises(ModuleError, match="not invertible mod 6"):
            make_module(6, 2, ((1, 0), (0, 1)), ((2, 0), (0, 3)))
        with pytest.raises(SwitchError, match="A is not invertible mod 6"):
            make_switch_biquandle(6, 2, ((2, 0), (0, 3)), ((1, 0), (0, 1)))

    def test_rank_ten_module_builds_quickly(self):
        # validation reads the images of the actions, not a determinant
        ident = tuple(tuple(int(i == j) for j in range(10))
                      for i in range(10))
        start = time.perf_counter()
        mod = make_module(2, 10, ident, ident)
        assert time.perf_counter() - start < 2
        assert mod.s_of == mod.t_of == list(range(1024))

    def test_import_leaves_sympy_unloaded(self):
        src = str(Path(biquandles.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, biquandles; print('sympy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


@pytest.fixture
def tables_built(monkeypatch, fresh_carriers):
    """The size of every addition table built, in build order."""
    built = []
    fill = modules._addition_table

    def spy(m, k):
        built.append(m ** k)
        return fill(m, k)

    monkeypatch.setattr(modules, "_addition_table", spy)
    return built


class TestCarrier:
    S1, T1 = ((1, 1), (0, 1)), ((2, 0), (0, 2))
    S2, T2 = ((2, 0), (0, 2)), ((1, 0), (1, 1))

    def test_modules_on_one_group_share_its_arithmetic(self, tables_built):
        a = make_module(3, 2, self.S1, self.T1)
        b = make_module(3, 2, self.S2, self.T2)
        assert a != b and a.carrier is b.carrier is carrier(3, 2)
        for name in ("elements", "index", "plus", "neg_of"):
            assert getattr(a, name) is getattr(b, name), name
        assert a.s_of != b.s_of
        assert tables_built == [9]

    def test_switch_builds_on_the_shared_carrier(self, tables_built,
                                                 monkeypatch):
        made, init = [], FiniteModule.__init__
        monkeypatch.setattr(FiniteModule, "__init__",
                            lambda mod, *args: made.append(args) or
                            init(mod, *args))
        plus = carrier(3, 2).plus
        report = make_switch_biquandle(3, 2, ((2, 1), (1, 1)),
                                       ((1, 0), (0, 1)), (1, 2))
        assert report.table.n == 9 and carrier(3, 2).plus is plus
        assert tables_built == [9] and made == []

    def test_shared_arithmetic_is_read_only(self):
        mod = make_scalar_module(5, 2, 3)
        assert type(mod.plus) is tuple and type(mod.neg_of) is tuple
        assert all(type(row) is tuple for row in mod.plus)
        with pytest.raises(TypeError):
            mod.plus[1][1] = 0
        with pytest.raises(TypeError):
            mod.index[(1,)] = 0

    def test_eviction_keeps_a_live_module_arithmetic(self, tables_built):
        mod = make_module(3, 2, self.S1, self.T1)
        table = make_alexander(mod)
        carrier.cache_clear()
        assert make_alexander(mod) == table
        assert structural_iso(mod, mod)[0] is not None
        assert tables_built == [9]
        fresh = make_module(3, 2, self.S1, self.T1)
        assert fresh == mod and fresh.carrier is not mod.carrier

    def test_cache_is_bounded(self):
        assert carrier.cache_info().maxsize == 16

    def test_oversized_group_refused_before_building(self, tables_built):
        # n = 1024 is the largest group whose n x n table fits MAX_STATES
        assert len(carrier(2, 10).elements) == 1024 == MAX_STATES ** 0.5
        for m, k in ((1025, 1), (2, 11), (100000, 1)):
            ident = _ident(k)
            with pytest.raises(ModuleError, match=rf"^Z_{m}\^{k} has"):
                make_module(m, k, ident, ident)
            # plus checks the size itself: it never reads the elements
            group = carrier(m, k)
            with pytest.raises(ModuleError, match=rf"^Z_{m}\^{k} has"):
                group.plus
            assert "elements" not in vars(group)
        assert tables_built == []

    def test_builds_read_no_element_tuples(self, fresh_carriers):
        # modules, switches and their tables run on digit arithmetic alone
        mod = make_module(3, 3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                          ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
        assert verify_biquandle(make_alexander(mod)).passed
        report = make_switch_biquandle(3, 3, ((2, 1, 0), (1, 1, 0), (0, 0, 2)),
                                       ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert report.table.n == 27
        assert "elements" not in vars(mod.carrier)
        assert "index" not in vars(mod.carrier)


class TestAdditionTable:
    @staticmethod
    def naive(m, k):
        """Z_m^k's table from coordinate vectors: in canonical order, the
        sums x + y over all y are the product of each coordinate of x
        shifted through Z_m, looked up in an element -> index dict."""
        keys = list(itertools.product(range(m), repeat=k))
        index = {e: i for i, e in enumerate(keys)}
        return tuple(tuple(map(index.__getitem__, itertools.product(
            *[[(c + v) % m for v in range(m)] for c in x]))) for x in keys)

    def test_matches_naive_fill(self):
        # whole groups in canonical order, up to the 1024-element bound
        for m, k in ((2, 1), (12, 1), (2, 3), (3, 2), (4, 2), (6, 2),
                     (5, 3), (3, 5), (2, 10), (4, 5), (32, 2)):
            assert _addition_table(m, k) == self.naive(m, k), (m, k)


class TestOneMinusSt:
    def test_z8_image_of_one_minus_st(self):
        assert one_minus_st_submodule(Z8_35).elements == elems((0, 2, 4, 6))

    def test_unit_multiplier_gives_whole_module(self):
        sub = one_minus_st_submodule(make_scalar_module(3, 2, 1))
        assert sub.elements == elems((0, 1, 2))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_s_equals_t_equals_one_gives_zero(self, n):
        assert one_minus_st_submodule(
            make_scalar_module(n, 1, 1)).elements == elems((0,))

    def test_closure(self):
        for mod in (Z8_35, make_scalar_module(6, 5, 5),
                    make_module(2, 2, ((0, 1), (1, 1)), ((1, 1), (1, 0)))):
            assert one_minus_st_submodule(mod).is_closed()
            assert kernel_one_minus_s(mod).is_closed()

    @pytest.mark.parametrize("broken,spec,subset", [
        # the empty set is closed under everything but holds no zero
        ("zero", (8, 1, ((3,),), ((5,),)), ()),
        # {0, 1, 3, 5, 7} in Z_8 (3, 5): -x, 3x and 5x stay, 1 + 1 leaves
        ("+", (8, 1, ((3,),), ((5,),)), elems((0, 1, 3, 5, 7))),
        # a finite subset closed under + is a subgroup, so a subset that
        # loses -x loses a sum too: {0, 1, 2} in Z_4, with s = t = 1
        ("negation", (4, 1, ((1,),), ((1,),)), elems((0, 1, 2))),
        # the subgroup generated by (0, 1) in Z_3^2 is t-stable but not
        # s-stable under the shear, and the other way round
        ("s", (3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2))),
         ((0, 0), (0, 1), (0, 2))),
        ("t", (3, 2, ((2, 0), (0, 2)), ((1, 1), (0, 1))),
         ((0, 0), (0, 1), (0, 2))),
    ])
    def test_open_subsets(self, broken, spec, subset):
        assert not Submodule(make_module(*spec), subset).is_closed()


class TestKernel:
    def test_z8_by_scan(self):
        # scan oracle: (1-3)x = 6x = 0 mod 8 at x in {0, 4}
        expected = tuple((x,) for x in range(8) if (6 * x) % 8 == 0)
        assert kernel_one_minus_s(Z8_35).elements == expected == elems((0, 4))

    def test_s_one_gives_whole_module(self):
        ker = kernel_one_minus_s(make_scalar_module(5, 1, 2))
        assert len(ker) == 5

    def test_z3_trivial_kernel(self):
        assert kernel_one_minus_s(
            make_scalar_module(3, 2, 1)).elements == elems((0,))


class TestTransversal:
    def test_z8_reps_and_orbit(self):
        trans = transversal(Z8_35)
        assert trans.reps == elems((0, 1))
        assert trans.orbit == elems((0, 1, 3))

    def test_whole_module_gives_zero_rep(self):
        mod = make_scalar_module(3, 2, 1)
        trans = transversal(mod)
        assert trans.reps == elems((0,))

    def test_rep_of_covers_module(self):
        trans = transversal(Z8_35)
        for x in Z8_35.elements:
            rep = trans.rep_of(x)
            assert rep in trans.reps
            assert _sum(8, x, _neg(rep, 8)) in one_minus_st_submodule(Z8_35)


class TestElementArguments:
    # coordinates are reduced mod m; a wrong length is a ValueError
    def test_s_orbit(self):
        assert s_orbit(Z8_35, [(9,)]) == s_orbit(Z8_35, [(1,)]) == \
            elems((1, 3))
        assert s_orbit(Z8_35, [(-6,), (10,)]) == elems((2, 6))
        for bad in ((1, 2), ()):
            with pytest.raises(ValueError, match="1 coordinates"):
                s_orbit(Z8_35, [bad])

    def test_translation_map(self):
        assert translation_map(Z8_35, (9,)) == translation_map(Z8_35, (1,))
        for bad in ((1, 2), ()):
            with pytest.raises(ValueError, match="1 coordinates"):
                translation_map(Z8_35, bad)

    def test_rep_of(self):
        trans = transversal(Z8_35)
        assert trans.rep_of((9,)) == trans.rep_of((1,)) == (1,)
        assert trans.rep_of((-2,)) == (0,)
        for bad in ((1, 2), ()):
            with pytest.raises(ValueError, match="1 coordinates"):
                trans.rep_of(bad)


class TestOrbit:
    def test_zero_is_fixed(self):
        assert s_orbit(Z8_35, [(0,)]) == elems((0,))

    def test_orbit_of_two(self):
        # 3*2 = 6 and 3*6 = 2 mod 8
        assert s_orbit(Z8_35, [(2,)]) == elems((2, 6))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            s_orbit(Z8_35, [])


class TestModuleIsomorphisms:
    def test_z8_cross_pair_has_no_intertwiner(self):
        # negation on {0,2,4,6} does not intertwine the (3,5) and (5,3)
        # actions: h(3*2) = 2 while 5*h(2) = 6 mod 8; no additive bijection
        # does, as the search and the scan oracle confirm
        n, np_ = (one_minus_st_submodule(m) for m in (Z8_35, Z8_53))
        assert list(module_isomorphisms(n, np_)) == []
        assert scan_module_isomorphisms(n, np_) == []

    def test_negation_fails_intertwining_pointwise(self):
        neg = {x: _neg(x, 8) for x in one_minus_st_submodule(Z8_35).elements}
        failures = [x for x in neg if neg[_vec(Z8_35.s_matrix, x, 8)] !=
                    _vec(Z8_53.s_matrix, neg[x], 8)]
        assert failures == [(2,), (6,)]

    @pytest.mark.parametrize("elements", [(), ((1,),)])
    def test_set_without_zero_refused(self, elements):
        bad, sub = Submodule(Z8_35, elements), one_minus_st_submodule(Z8_35)
        for src, dst, side in ((bad, bad, "source"), (sub, bad, "target")):
            with pytest.raises(ValueError, match=f"^{side} set holds no zero"):
                next(module_isomorphisms(src, dst))

    def test_zero_submodule_has_exactly_the_empty_map(self):
        mod = make_scalar_module(5, 1, 1)
        sub = one_minus_st_submodule(mod)
        isos = list(module_isomorphisms(sub, sub))
        assert len(isos) == 1
        assert isos[0].pairs == (((0,), (0,)),)

    def test_identity_in_self_stream(self):
        sub = one_minus_st_submodule(Z8_35)
        isos = list(module_isomorphisms(sub, sub))
        assert any(all(x == y for x, y in iso.pairs) for iso in isos)
        assert len(isos) == 2  # identity and negation

    def test_search_agrees_with_scan(self):
        mods = [Z8_35, Z8_53, make_scalar_module(6, 5, 5),
                make_scalar_module(5, 2, 3), make_scalar_module(4, 3, 3)]
        for a, b in itertools.product(mods, repeat=2):
            na, nb = one_minus_st_submodule(a), one_minus_st_submodule(b)
            gen = {iso.pairs for iso in module_isomorphisms(na, nb)}
            scan = set(scan_module_isomorphisms(na, nb))
            assert gen == scan, (a.describe(), b.describe())

    @staticmethod
    def _rank_two_submodules():
        """(1-st) submodules of at most 6 elements of seeded Z_m^2 modules,
        m = 2..6, each module followed by a conjugate copy."""
        rng = random.Random(6)
        subs = []
        for m in range(2, 7):
            while sum(sub.module.m == m for sub in subs) < 12:
                s, p = (tuple(tuple(rng.randrange(m) for _ in range(2))
                              for _ in range(2)) for _ in range(2))
                a, b = rng.randrange(m), rng.randrange(m)
                t = tuple(tuple((a * (i == j) + b * s[i][j]) % m
                                for j in range(2)) for i in range(2))
                p_inv = column_inverse(p, m)
                if p_inv is None:
                    continue
                try:
                    mods = [make_module(m, 2, s, t)]
                except ModuleError:
                    continue
                mods.append(make_module(
                    m, 2, *(_mul(_mul(p, x, m), p_inv, m) for x in (s, t))))
                for mod in mods:
                    sub = one_minus_st_submodule(mod)
                    if len(sub) <= 6:
                        subs.append(sub)
        return subs

    def test_matches_scan_oracle_in_order(self):
        # every scalar pair Z_2..Z_7 with unit s and t, and rank-2 pairs
        # with submodules of at most 6 elements
        subs = [one_minus_st_submodule(mod)
                for m in range(2, 8) for mod in scalar_modules(m)]
        subs += self._rank_two_submodules()
        sizes = {len(sub) for sub in subs}
        assert sizes == {1, 2, 3, 4, 5, 6, 7}
        found = 0
        for a, b in itertools.product(subs, repeat=2):
            got = [iso.pairs for iso in module_isomorphisms(a, b)]
            assert got == scan_module_isomorphisms(a, b), (a, b)
            assert got == sorted(got)
            found += bool(got) and a.module != b.module
        assert found > 100

    def test_star_table_matches_the_two_table_search(self):
        # the search reads x * y = s.x + t.y alone; the same maps come out,
        # in the same order, as from the search on it and x + y, both
        # tables built here from the oracles' coordinate arithmetic, and
        # for |N| <= 8 as from the permutation scan
        def tables(sub):
            mod, xs = sub.module, sub.elements
            pos = {x: i for i, x in enumerate(xs)}
            plus = tuple(pos[_sum(mod.m, x, y)] for x in xs for y in xs)
            star = tuple(pos[_sum(mod.m, _vec(mod.s_matrix, x, mod.m),
                                  _vec(mod.t_matrix, y, mod.m))]
                         for x in xs for y in xs)
            return (plus, star), pos[mod.zero]

        def two_table_search(a, b):
            (ta, za), (tb, zb) = built[a], built[b]
            return [tuple(sorted((x, b.elements[j])
                                 for x, j in zip(a.elements, f)))
                    for f in kernels.iter_maps(len(a), ta, len(b), tb, {},
                                               fixed=((za, zb),),
                                               use_profiles=False)]

        subs = [one_minus_st_submodule(mod)
                for m in range(2, 9) for mod in scalar_modules(m)]
        subs += self._rank_two_submodules()
        # rank 3: a proper N, then N = M on Z_2^3 (s of order 7), Z_3^3
        # and Z_5^3 (s = 2I, t = I + J, J the superdiagonal)
        shift = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        subs += [one_minus_st_submodule(make_module(*spec)) for spec in (
            (3, 3, ((0, 2, 1), (2, 0, 1), (0, 0, 2)),
             ((0, 2, 0), (2, 0, 0), (0, 0, 2))),
            (2, 3, ((0, 0, 1), (1, 0, 1), (0, 1, 0)),
             ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            (3, 3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), shift),
            (5, 3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), shift))]
        built = {sub: tables(sub) for sub in subs}
        sizes = set()
        for a, b in itertools.product(subs, repeat=2):
            if len(a) != len(b):
                continue
            got = [iso.pairs for iso in module_isomorphisms(a, b)]
            assert got == two_table_search(a, b), (a, b)
            if len(a) <= 8:
                assert got == scan_module_isomorphisms(a, b), (a, b)
            sizes.add(len(a))
        assert sizes == {1, 2, 3, 4, 5, 6, 7, 8, 27, 125}

    def test_outputs_recheck(self):
        sub = one_minus_st_submodule(Z8_35)
        for iso in module_isomorphisms(sub, sub):
            phi = iso.mapping
            for x in sub.elements:
                for mat in (Z8_35.s_matrix, Z8_35.t_matrix):
                    assert phi[_vec(mat, x, 8)] == _vec(mat, phi[x], 8)
                for y in sub.elements:
                    assert phi[_sum(8, x, y)] == _sum(8, phi[x], phi[y])

    def test_size_mismatch_is_empty(self):
        small = one_minus_st_submodule(make_scalar_module(4, 3, 3))
        big = one_minus_st_submodule(Z8_35)
        assert list(module_isomorphisms(small, big)) == []


# (m, k, s, t): rank 1 to 3, with (1-st) submodules proper and whole
ARITHMETIC_MODULES = {
    "z8_35": (8, 1, ((3,),), ((5,),)),
    "z9_25": (9, 1, ((2,),), ((5,),)),
    "z3sq_shear": (3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2))),
    "z4sq_eight_cosets": (4, 2, ((0, 1), (1, 2)), ((0, 3), (3, 2))),
    "z3cube_proper": (3, 3, ((0, 2, 1), (2, 0, 1), (0, 0, 2)),
                      ((0, 2, 0), (2, 0, 0), (0, 0, 2))),
    "z2cube_cycle": (2, 3, ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
                     ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
}

# name: (kernel size, orbit size, sha256 prefix of the records), taken
# from the coordinate-tuple implementation of these helpers
FROZEN_ARITHMETIC = {
    "z2cube_cycle": (2, 4, "152db65cc1c60ebe"),
    "z3cube_proper": (3, 23, "cf38fde5e9a602b8"),
    "z3sq_shear": (3, 1, "73c577ae27f0d4c3"),
    "z4sq_eight_cosets": (2, 15, "8746e1d01282fa01"),
    "z8_35": (2, 3, "6314462aaed4a0fb"),
    "z9_25": (1, 9, "b7febe9b099c236a"),
}


def arithmetic_records(mod):
    """Ker(1-s), the transversal of (1-st)M and its s-orbit, the s-orbit of
    every element and of a few seeded triples, and every element's
    translation map and coset representative."""
    trans = transversal(mod)
    rng = random.Random(f"orbits:{mod.m}^{mod.k}")
    seeds = [[x] for x in mod.elements]
    seeds += [rng.sample(mod.elements, 3) for _ in range(5)]
    ker = kernel_one_minus_s(mod).elements
    return len(ker), len(trans.orbit), (
        [repr(ker), repr(trans.reps), repr(trans.orbit)]
        + [repr(s_orbit(mod, xs)) for xs in seeds]
        + [repr((translation_map(mod, x), trans.rep_of(x)))
           for x in mod.elements])


class TestFrozenArithmetic:
    @pytest.mark.parametrize("name", sorted(ARITHMETIC_MODULES))
    def test_kernel_orbits_translations_unchanged(self, name):
        ker, orbit, records = arithmetic_records(
            make_module(*ARITHMETIC_MODULES[name]))
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert (ker, orbit, digest[:16]) == FROZEN_ARITHMETIC[name]


class TestTranslationAndOrders:
    def test_zero_translation_is_identity(self):
        assert translation_map(Z8_35, (0,)) == tuple(range(1, 9))

    def test_translation_is_permutation(self):
        for z in Z8_35.elements:
            assert sorted(translation_map(Z8_35, z)) == list(range(1, 9))

    def test_counting_order_scalar(self):
        assert counting_element_order(3, 1) == ((1,), (2,), (0,))

    def test_counting_order_rank_two(self):
        assert counting_element_order(2, 2) == \
            ((1, 0), (0, 1), (1, 1), (0, 0))

    def test_counting_order_refuses_oversized_group(self):
        # the printed order of the largest allowed group is still built;
        # past it the carrier's error comes before a single tuple
        assert len(counting_element_order(2, 10)) == 1024
        for m, k, size in ((1025, 1, "1025"), (2, 11, "2048"),
                           (10 ** 6, 1, "1000000"),
                           (10, 10 ** 9, "10\\^1000000000")):
            with pytest.raises(ModuleError,
                               match=rf"^Z_{m}\^{k} has {size} elements"):
                counting_element_order(m, k)

    @pytest.mark.parametrize("m,k", [(3, 0), (1, 3), (0, 2), (3, -1),
                                     (1, 0)])
    def test_counting_order_refuses_invalid_group(self, m, k):
        # no modulus below 2 or rank below 1, in the order or the carrier
        for build in (counting_element_order,
                      lambda m, k: modules.Carrier(m, k).elements):
            with pytest.raises(ModuleError,
                               match=r"^need modulus >= 2 and rank >= 1$"):
                build(m, k)
