import hashlib
import itertools
import math
import random
import re

import pytest

from biquandles import (BiquandleTable, WitnessError, all_isomorphisms,
                        assemble_witness_map, brute_force_iso,
                        enumerate_biquandles, enumerate_homomorphisms,
                        extract_witness, fixed_point_profile,
                        is_homomorphism, kernel_one_minus_s, kernels,
                        make_alexander, make_module, make_scalar_module,
                        ModuleIso, module_isomorphisms, normalize_iso,
                        one_minus_st_submodule, profiles_compatible,
                        structural_iso, translation_map, transversal,
                        trivial_biquandle, verify_biquandle)
from biquandles.isomorphism import (_assemble, format_witness,
                                    witness_to_dict)

from conftest import (SWAP_MODULE, intertwiners, scalar_modules, units,
                      zero_fixing_perms)
from oracles import (_neg, _sum, _vec, matrix_inverse, recheck_axioms,
                     recheck_yang_baxter)

Z8_35 = make_scalar_module(8, 3, 5)
Z8_53 = make_scalar_module(8, 5, 3)


def one_minus_st(mod, x):
    """(1 - st)x in the oracles' coordinate arithmetic."""
    m = mod.m
    return _sum(m, x, _neg(_vec(mod.s_matrix, _vec(mod.t_matrix, x, m), m),
                           m))


def inverse_perm(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm, start=1):
        inv[v - 1] = i
    return tuple(inv)


class TestBruteForce:
    def test_trivial_self_identity_and_count(self):
        for n in (1, 2, 3, 4):
            t = trivial_biquandle(n)
            witness, _ = brute_force_iso(t, t)
            assert witness == tuple(range(1, n + 1))
            assert len(all_isomorphisms(t, t)) == math.factorial(n)

    def test_z8_swapped_parameters_not_isomorphic(self):
        witness, stats = brute_force_iso(make_alexander(Z8_35),
                                         make_alexander(Z8_53))
        assert witness is None
        assert stats.candidates <= math.factorial(8)

    def test_self_pair_identity(self):
        table = make_alexander(Z8_35)
        witness, _ = brute_force_iso(table, table)
        assert witness == tuple(range(1, 9))

    def test_invalid_input_refused(self):
        t = trivial_biquandle(2)
        bad = BiquandleTable(2, ((2, 1), (2, 2)), t.down, t.upbar, t.downbar)
        with pytest.raises(ValueError):
            brute_force_iso(bad, t)

    def test_all_isomorphisms_canonical_order(self):
        t = trivial_biquandle(3)
        isos = all_isomorphisms(t, t)
        assert isos == sorted(isos)

    def test_z3_self_isomorphisms_frozen(self):
        # frozen by the 3!-scan: identity and x -> 2x
        table = make_alexander(make_scalar_module(3, 2, 1))
        assert all_isomorphisms(table, table) == [(1, 2, 3), (1, 3, 2)]

    def test_search_order_matches_permutation_scan(self):
        # oracle: itertools.permutations yields candidates in lexicographic
        # order, so the witness is the first one that passes and the full
        # list is every one that does, in generation order.  On the Z_8
        # pair a most-constrained-first search finds another isomorphism
        # before the least one.
        pairs = [(ta, tb) for n in (2, 3, 4, 5) for ta, tb in
                 itertools.product(map(make_alexander, scalar_modules(n)),
                                   repeat=2)]
        pairs.append((make_alexander(make_scalar_module(8, 3, 5)),
                      make_alexander(make_scalar_module(8, 7, 5))))
        for ta, tb in pairs:
            n = ta.n
            isos = [f for f in itertools.permutations(range(1, n + 1))
                    if is_homomorphism(ta, tb, f)]
            witness, _ = brute_force_iso(ta, tb)
            assert witness == (isos[0] if isos else None)
            assert all_isomorphisms(ta, tb) == isos

    def test_witness_and_inverse_are_homomorphisms(self):
        for mod_b in (make_scalar_module(5, 3, 2),
                      make_scalar_module(5, 3, 3)):
            mod_a = make_scalar_module(5, 3, 2)
            ta, tb = make_alexander(mod_a), make_alexander(mod_b)
            witness, _ = brute_force_iso(ta, tb)
            if witness is None:
                continue
            assert is_homomorphism(ta, tb, witness)
            assert is_homomorphism(tb, ta, inverse_perm(witness))


class TestUnbarredTables:
    """The isomorphism deciders read only up and down: axiom 1 makes the
    barred pair S^-1, so a map preserving up and down preserves all four."""

    @staticmethod
    def _corpus(z2z2_table, enumerated):
        """Groups of tables of one order each, and the Z_4^3 closure pair.

        The scalar groups leave out s = t = 1, the trivial table, whose n!
        automorphisms would take seconds to list at orders 7 and 8; the
        trivial tables of orders 1 to 4 stand in for it (and for Z_2).
        """
        groups = [[make_alexander(make_scalar_module(n, s, t))
                   for s in units(n) for t in units(n) if (s, t) != (1, 1)]
                  for n in range(3, 9)]
        groups += [[make_alexander(SWAP_MODULE)] + [
            make_alexander(make_module(3, 2, s, t)) for s, t in (
                (((1, 1), (0, 1)), diag(2, 2)),
                (((1, 0), (1, 1)), diag(2, 2)),
                (diag(2, 1), diag(1, 2)))]]
        groups += [[make_alexander(make_module(4, 2, s, t)) for s, t in (
            (((1, 1), (0, 3)), diag(3, 3)), (((1, 1), (0, 1)), diag(3, 3)),
            (((1, 0), (1, 1)), diag(3, 3)),
            (((0, 1), (1, 2)), ((0, 3), (3, 2))),
            (((1, 1), (1, 2)), diag(1, 1)))]]
        groups += [[trivial_biquandle(n)] for n in (1, 2, 3)]
        groups += [[trivial_biquandle(4), z2z2_table]]
        groups += [list(enumerated[3].tables)]
        pairs = [pair for group in groups
                 for pair in itertools.product(group, repeat=2)]
        pairs.append(tuple(make_alexander(make_module(4, 3, *spec))
                           for spec in ((diag(1, 1, 1), diag(3, 1, 1)),
                                        (diag(3, 1, 1), diag(1, 1, 1)))))
        return pairs

    def test_deciders_match_the_four_table_search(self, z2z2_table,
                                                  enumerated):
        pairs = self._corpus(z2z2_table, enumerated)
        assert len(pairs) > 3000
        found = 0
        for ta, tb in pairs:
            maps, _ = kernels.search_maps(ta.n, ta.flats(), tb.n, tb.flats(),
                                          find_all=True)
            expected = [tuple(v + 1 for v in m) for m in maps]
            assert all_isomorphisms(ta, tb) == expected
            witness, _ = brute_force_iso(ta, tb)
            assert witness == (expected[0] if expected else None)
            found += bool(expected) and ta != tb
        assert found > 50

    def test_unbarred_homomorphisms_are_homomorphisms(self, enumerated):
        # the lemma holds for maps that are not bijections too
        tables = enumerated[3].tables
        for ta, tb in itertools.product(tables, repeat=2):
            assert enumerate_homomorphisms(ta, tb, ops=("up", "down")) == \
                enumerate_homomorphisms(ta, tb)

    def test_homomorphisms_ignore_order_and_repeats_of_ops(self, enumerated):
        # the search reads the selected tables once each, in KINDS order,
        # however ``ops`` lists them
        tables = enumerated[3].tables
        for ta, tb in itertools.product(tables, repeat=2):
            for ops, same in ((("down", "up", "up"), ("up", "down")),
                              (("upbar", "down", "upbar"), ("down", "upbar")),
                              (("downbar", "upbar", "down", "up", "down"),
                               ("up", "down", "upbar", "downbar"))):
                for bijective in (False, True):
                    assert enumerate_homomorphisms(
                        ta, tb, ops=ops, require_bijection=bijective) == \
                        enumerate_homomorphisms(
                            ta, tb, ops=same, require_bijection=bijective)

    def test_homomorphisms_search_the_selected_tables(self, monkeypatch,
                                                      z2z2_table):
        seen = []
        search = kernels.search_maps

        def spy(n_src, src, n_dst, dst, **kwargs):
            seen.append((src, dst))
            return search(n_src, src, n_dst, dst, **kwargs)

        monkeypatch.setattr(kernels, "search_maps", spy)
        flats = z2z2_table.flats()
        for ops, picked in ((("downbar", "up", "up"), (0, 3)),
                            (iter(("downbar", "up")), (0, 3)),
                            (("down",), (1,)), ((), ())):
            enumerate_homomorphisms(z2z2_table, z2z2_table, ops=ops)
            expected = [flats[i] for i in picked]
            assert seen.pop() == (expected, expected)
        with pytest.raises(ValueError, match="unknown operation kind 'upp'"):
            enumerate_homomorphisms(z2z2_table, z2z2_table, ops=("up", "upp"))
        assert seen == []

    def test_deciders_search_up_and_down(self, monkeypatch):
        # each decider hands the map search only the tables that determine
        # its map: up and down per side, or one submodule table per side
        searched, tables = [], []
        search, iterate = kernels.search_maps, kernels.iter_maps

        def search_spy(n_src, src, n_dst, dst, *args, **kwargs):
            searched.append((tuple(src), tuple(dst)))
            return search(n_src, src, n_dst, dst, *args, **kwargs)

        def iter_spy(n_src, src, n_dst, dst, *args, **kwargs):
            tables.append((len(src), len(dst)))
            return iterate(n_src, src, n_dst, dst, *args, **kwargs)

        monkeypatch.setattr(kernels, "search_maps", search_spy)
        table, other = make_alexander(Z8_35), make_alexander(Z8_53)
        brute_force_iso(table, table)
        all_isomorphisms(table, other)
        assert searched == [(table.flats()[:2], table.flats()[:2]),
                            (table.flats()[:2], other.flats()[:2])]
        monkeypatch.setattr(kernels, "iter_maps", iter_spy)
        sub = one_minus_st_submodule(Z8_35)
        assert len(list(module_isomorphisms(sub, sub))) == 2
        assert structural_iso(Z8_35, Z8_35)[0] is not None
        assert tables == [(1, 1)] * 2


class TestProfiles:
    def test_profile_filter_matches_oracle(self):
        mods = scalar_modules(8)
        tables = {m: make_alexander(m) for m in mods}
        for a, b in itertools.product(mods, repeat=2):
            if not profiles_compatible(tables[a], tables[b]):
                witness, _ = brute_force_iso(tables[a], tables[b])
                assert witness is None, (a.describe(), b.describe())

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 27])
    def test_kernel_profiles_match_elementwise_loop(self, n):
        def literal(tables):
            profs = []
            for a in range(n):
                prof = []
                for t in tables:
                    rowfix = sum(1 for b in range(n) if t[a * n + b] == a)
                    colfix = sum(1 for b in range(n) if t[b * n + a] == b)
                    prof.append((rowfix, colfix, t[a * n + a] == a))
                profs.append(tuple(prof))
            return profs

        rng = random.Random(f"profiles:{n}")
        for _ in range(3):
            # rows that are permutations, and entries drawn independently
            perms = [tuple(v for _ in range(n)
                           for v in rng.sample(range(n), n))
                     for _ in range(2)]
            free = [tuple(rng.randrange(n) for _ in range(n * n))
                    for _ in range(2)]
            tables = perms + free
            # every subset of the four tables, the empty one included
            for size in range(5):
                for subset in itertools.combinations(tables, size):
                    assert kernels._profiles(n, subset) == \
                        literal(subset), (n, size)

    def test_profiles_preserved_by_isomorphism(self):
        table = make_alexander(make_scalar_module(5, 2, 3))
        prof = fixed_point_profile(table)
        for f in all_isomorphisms(table, table):
            for i, fi in enumerate(f, start=1):
                assert prof[i - 1] == prof[fi - 1]


class TestStructural:
    def test_z8_swapped_parameters_not_isomorphic(self, monkeypatch):
        # the assembled witness is certified on the module, so neither a
        # failing nor a succeeding pair builds a table
        built = []
        store = BiquandleTable._store
        monkeypatch.setattr(BiquandleTable, "_store",
                            lambda table, n, flats: built.append(n) or
                            store(table, n, flats))
        witness, _ = structural_iso(Z8_35, Z8_53)
        assert witness is None and built == []
        witness, _ = structural_iso(Z8_35, Z8_35)
        assert witness is not None and built == []
        make_alexander(Z8_35)
        assert built == [8]

    def test_z8_closure_check_fails_for_both_candidates(self):
        # with representatives {0, 1} and the negation map on {0,2,4,6}:
        # (1-st)g(1) = h(2) = 6 forces g(1) in {3, 7}, and both fail
        # s'k(a) = k(b) + h(w) for s*1 = 3 = 1 + 2
        from biquandles import one_minus_st_submodule
        sub = one_minus_st_submodule(Z8_35)
        h = {x: _neg(x, 8) for x in sub.elements}
        target = h[(2,)]
        candidates = [y[0] for y in Z8_53.elements
                      if (2 * y[0]) % 8 == target[0]]
        assert candidates == [3, 7]
        for g1 in candidates:
            lhs = (5 * g1) % 8            # s' k(1)
            rhs = (g1 + h[(2,)][0]) % 8   # k(1) + h(2)
            assert lhs != rhs

    def test_submodule_search_is_lazy(self, monkeypatch):
        # the identity on {0,2,4,6} extends, so the structural search must
        # stop after the first of the two submodule isomorphisms
        from biquandles import kernels, module_isomorphisms
        from biquandles import one_minus_st_submodule
        pulled = []
        search = kernels.iter_maps

        def counted(*args, **kwargs):
            for f in search(*args, **kwargs):
                pulled.append(f)
                yield f

        monkeypatch.setattr(kernels, "iter_maps", counted)
        witness, _ = structural_iso(Z8_35, Z8_35)
        assert witness is not None and len(pulled) == 1
        sub = one_minus_st_submodule(Z8_35)
        assert len(list(module_isomorphisms(sub, sub))) == 2
        assert len(pulled) == 3

    def test_self_pair_identity_witness(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        assert witness is not None
        assert witness.perm == tuple(range(1, 9))
        assert all(x == y for x, y in witness.submodule_map.pairs)
        assert all(x == y for x, y in witness.rep_map)

    def test_size_mismatch(self):
        witness, stats = structural_iso(Z8_35, make_scalar_module(5, 2, 3))
        assert witness is None and stats.prunes["size"] == 1

    def test_unequal_submodules_rejected_by_cycle_type(self):
        # st = 1 on the right: 8 cosets there against 2 on the left
        witness, stats = structural_iso(Z8_35, make_scalar_module(8, 3, 3))
        assert witness is None and stats.prunes["cycle_type"] == 1
        assert stats.candidates == 0

    def test_verdict_symmetric(self):
        mods = scalar_modules(8)[:8] + scalar_modules(5)[:4]
        for a, b in itertools.combinations(mods, 2):
            fwd, _ = structural_iso(a, b)
            rev, _ = structural_iso(b, a)
            assert (fwd is None) == (rev is None)

    def test_witness_checks_out_both_ways(self):
        for b in scalar_modules(5):
            a = make_scalar_module(5, 2, 3)
            witness, _ = structural_iso(a, b)
            if witness is None:
                continue
            ta, tb = make_alexander(a), make_alexander(b)
            assert is_homomorphism(ta, tb, witness.perm)
            assert is_homomorphism(tb, ta, inverse_perm(witness.perm))


def diag(*entries):
    return tuple(tuple(e if i == j else 0 for j in range(len(entries)))
                 for i, e in enumerate(entries))


def check_against_brute_force(a, b):
    """Structural verdict equals brute force; a witness fixes zero, is a
    homomorphism both ways and survives extraction."""
    ta, tb = make_alexander(a), make_alexander(b)
    brute, _ = brute_force_iso(ta, tb)
    witness, stats = structural_iso(a, b)
    assert (brute is None) == (witness is None), \
        (a.s_matrix, a.t_matrix, b.s_matrix, b.t_matrix)
    assert stats.prunes["verify"] == 0
    if witness is not None:
        assert dict(witness.rep_map)[a.zero] == b.zero
        assert is_homomorphism(ta, tb, witness.perm)
        assert is_homomorphism(tb, ta, inverse_perm(witness.perm))
        again = extract_witness(a, b, witness.perm)
        assert assemble_witness_map(a, b, again.submodule_map,
                                    dict(again.rep_map)) == again.perm
    return witness, stats


# st = 1 pairs (the submodule is zero, every element its own coset) that a
# search placing one representative at a time took seconds on or never
# finished; the cycle walk decides each in milliseconds
CYCLE_WALK_PAIRS = {
    "z12": (make_scalar_module(12, 5, 5), make_scalar_module(12, 7, 7)),
    "z4_squared": (
        make_module(4, 2, ((1, 1), (0, 1)), ((1, 3), (0, 1))),
        make_module(4, 2, ((1, 0), (1, 1)), ((1, 0), (3, 1)))),
    "z5_squared": (
        make_module(5, 2, ((1, 1), (0, 1)), ((1, 4), (0, 1))),
        make_module(5, 2, ((1, 0), (1, 1)), ((1, 0), (4, 1)))),
    "z3_cubed": (
        make_module(3, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                    ((1, 2, 1), (0, 1, 2), (0, 0, 1))),
        make_module(3, 3, ((1, 0, 0), (1, 1, 0), (0, 1, 1)),
                    ((1, 0, 0), (2, 1, 0), (1, 2, 1)))),
    "z5_diagonal": (make_module(5, 2, diag(1, 2), diag(1, 3)),
                    make_module(5, 2, diag(2, 2), diag(3, 3))),
}


GL2 = {m: [((a, b), (c, d))
           for a, b, c, d in itertools.product(range(m), repeat=4)
           if math.gcd(a * d - b * c, m) == 1] for m in (2, 3, 4)}


def random_rank_two_pairs(count, seed):
    """Pairs over Z_2..Z_4 with commuting invertible s and t; st = 1 in
    every other pair, and every other two the right side is a conjugate of
    the left (so isomorphic) instead of a second draw."""
    rng = random.Random(seed)

    def mul(x, y, m):
        return tuple(tuple(sum(x[i][l] * y[l][j] for l in range(2)) % m
                           for j in range(2)) for i in range(2))

    def draw(m, st_one):
        s = rng.choice(GL2[m])
        if st_one:
            return s, matrix_inverse(s, m)
        return s, rng.choice([t for t in GL2[m]
                              if mul(s, t, m) == mul(t, s, m)])

    for i in range(count):
        m = rng.choice((2, 3, 4))
        s, t = draw(m, i % 2 == 0)
        if i % 4 < 2:
            p = rng.choice(GL2[m])
            p_inv = matrix_inverse(p, m)
            s2, t2 = (mul(mul(p, x, m), p_inv, m) for x in (s, t))
        else:
            s2, t2 = draw(m, i % 2 == 0)
        yield make_module(m, 2, s, t), make_module(m, 2, s2, t2)


class TestCycleWalk:
    @pytest.mark.parametrize("name", sorted(CYCLE_WALK_PAIRS))
    def test_hard_pairs_agree_with_brute_force(self, name):
        check_against_brute_force(*CYCLE_WALK_PAIRS[name])

    @pytest.mark.parametrize("name", ["z12", "z5_diagonal"])
    def test_cycle_type_rejects_before_any_h(self, name, monkeypatch):
        from biquandles import kernels
        monkeypatch.setattr(kernels, "iter_maps", None)  # no h is drawn
        witness, stats = structural_iso(*CYCLE_WALK_PAIRS[name])
        assert witness is None and stats.prunes["cycle_type"] == 1

    def test_closure_failure_decided_without_backtracking(self):
        # Z_4 with (s, t) = (1, 3) against (3, 1), plus two coordinates on
        # which s = t = 1: the 15 cosets with first coordinate 0 form
        # length-1 cycles that close anywhere, the others close nowhere, so
        # undoing earlier choices would try every arrangement of those 15
        a = make_module(4, 3, diag(1, 1, 1), diag(3, 1, 1))
        b = make_module(4, 3, diag(3, 1, 1), diag(1, 1, 1))
        witness, stats = check_against_brute_force(a, b)
        assert witness is None and stats.prunes["closure"] > 0
        assert stats.candidates < 1000

    def test_cycles_sharing_a_target_share_all_targets(self):
        # why a cycle's first closing start never needs undoing: for one h,
        # the sets of target cycles that two source cycles can take (walk
        # closes, equal length) are equal or disjoint
        from biquandles import (module_isomorphisms, one_minus_st_submodule,
                                transversal)
        from biquandles.isomorphism import _s_cycles

        def s_cycles(mod, trans):  # (rep, w) index pairs as elements
            return [[(mod.elements[rep], mod.elements[w]) for rep, w in cyc]
                    for cyc in _s_cycles(mod, trans)]

        pairs = list(random_rank_two_pairs(60, seed=3))
        pairs += [(make_module(4, 3, ((3, 0, 1), (0, 3, 3), (3, 3, 3)),
                               ((3, 0, 3), (0, 3, 1), (1, 1, 3))),
                   make_module(4, 3, ((2, 2, 1), (1, 3, 2), (1, 2, 0)),
                               ((0, 2, 3), (3, 3, 2), (3, 2, 2))))]
        for a, b in pairs:
            sub_a, sub_b = one_minus_st_submodule(a), one_minus_st_submodule(b)
            trans_b = transversal(b)
            d_cycles = s_cycles(b, trans_b)
            cycle_of = {rep: c for c, cyc in enumerate(d_cycles)
                        for rep, _ in cyc}
            for h in module_isomorphisms(sub_a, sub_b):
                takes = []
                for cycle in s_cycles(a, transversal(a)):
                    value = h(one_minus_st(a, cycle[0][0]))
                    found = set()
                    for y in b.elements:
                        c = cycle_of[trans_b.rep_of(y)]
                        if one_minus_st(b, y) != value or \
                                len(d_cycles[c]) != len(cycle):
                            continue
                        k = y
                        for _, w in cycle:
                            k = _sum(b.m, _vec(b.s_matrix, k, b.m),
                                     _neg(h(w), b.m))
                        if k == y:
                            found.add(c)
                    takes.append(found)
                for x, y in itertools.combinations(takes, 2):
                    assert x == y or not x & y

    def test_random_rank_two_sweep(self):
        found = [check_against_brute_force(a, b)[0] is not None
                 for a, b in random_rank_two_pairs(150, seed=8)]
        assert 40 < sum(found) < 150


def certificate_cases(a, b, rng):
    """(h, assembled map) for every submodule isomorphism h of a and b: the
    structural rep map when h is the one it extends, rep maps drawn from
    the (1-st) fibres that the structural search draws from, and rep maps
    drawn from all of b.  All fix zero.  The maps are assembled by
    ``_assemble``, as ``assemble_witness_map`` refuses the ones that are
    not bijections."""
    sub_a, sub_b = one_minus_st_submodule(a), one_minus_st_submodule(b)
    trans = transversal(a)
    witness, _ = structural_iso(a, b)
    fibers = {}
    for y in b.elements:
        fibers.setdefault(one_minus_st(b, y), []).append(y)
    for h in module_isomorphisms(sub_a, sub_b):
        rep_maps = [dict(witness.rep_map)] if witness is not None and \
            witness.submodule_map == h else []
        for draw in range(8):
            rep_maps.append({rep: rng.choice(
                fibers[h(one_minus_st(a, rep))] if draw < 6
                else b.elements) for rep in trans.reps})
        h_of = {a.index_of(x): b.index_of(y) for x, y in h.pairs}
        for rep_map in rep_maps:
            rep_map[a.zero] = b.zero
            k_of = {a.index_of(x): b.index_of(y) for x, y in rep_map.items()}
            yield h, _assemble(a, b, trans, h_of, k_of)


class TestCertificate:
    def test_accepts_exactly_the_table_isomorphisms(self):
        from biquandles.isomorphism import _certifies
        rng = random.Random(7)
        pairs = []
        for m in range(2, 9):
            mods = scalar_modules(m)
            pairs += [(a, a) for a in mods[:3]]
            pairs += [tuple(rng.sample(mods, 2)) for _ in range(4)
                      if len(mods) > 1]
        pairs += list(random_rank_two_pairs(8, seed=5))
        verdicts = []
        for a, b in pairs:
            ta, tb = make_alexander(a), make_alexander(b)
            for h, perm in certificate_cases(a, b, rng):
                expected = sorted(perm) == list(range(1, b.size + 1)) and \
                    is_homomorphism(ta, tb, perm)
                assert _certifies(a, b, perm) == expected, \
                    (a.s_matrix, a.t_matrix, b.s_matrix, b.t_matrix, perm)
                bijective = len(set(perm)) == len(perm)
                verdicts.append((expected, bijective))
        # accepted maps, rejected bijections and rejected non-bijections
        assert set(verdicts) == {(True, True), (False, True), (False, False)}

    def test_every_zero_fixing_bijection_of_the_swap_module(self):
        # commuting with s and t is not enough for a map that is not
        # assembled from an additive h: 16 bijections commute, 4 are
        # isomorphisms, and the certificate must tell them apart
        from biquandles.isomorphism import _certifies
        mod, table = SWAP_MODULE, make_alexander(SWAP_MODULE)
        accepted = [f for f in zero_fixing_perms(mod.size)
                    if _certifies(mod, mod, f)]
        assert accepted == [f for f in zero_fixing_perms(mod.size)
                            if is_homomorphism(table, table, f)]
        assert len(accepted) == 4 and len(intertwiners(mod)) == 16

    def test_arbitrary_maps_and_normalize_iso(self):
        # every isomorphism translated by every target element, random
        # bijections, and isomorphisms with two images swapped: the
        # certificate accepts exactly the zero-fixing isomorphisms, and
        # normalize_iso exactly the isomorphisms, which it makes fix zero
        from biquandles.isomorphism import _certifies
        rng = random.Random(11)
        pairs = [(a, a) for m in (3, 5, 8, 9) for a in scalar_modules(m)[1:3]]
        pairs += [tuple(make_module(*spec) for spec in EXTRACTION_PAIRS[name])
                  for name in ("z3sq_three_cosets", "z4sq_eight_cosets",
                               "z2cube_cycles", "z4_vs_z2sq_swap")]
        pairs.append((SWAP_MODULE, SWAP_MODULE))
        verdicts = set()
        for a, b in pairs:
            ta, tb = make_alexander(a), make_alexander(b)
            maps = [tuple(rng.sample(range(1, b.size + 1), b.size))
                    for _ in range(20)]
            for f in all_isomorphisms(ta, tb):
                for z in b.elements:
                    shift = translation_map(b, z)
                    maps.append(tuple(shift[i - 1] for i in f))
                i, j = rng.sample(range(a.size), 2)
                swapped = list(f)
                swapped[i], swapped[j] = f[j], f[i]
                maps.append(tuple(swapped))
            for f in maps:
                expected = is_homomorphism(ta, tb, f)
                assert _certifies(a, b, f) == (expected and f[0] == 1), f
                if expected:
                    norm = normalize_iso(a, b, f)
                    assert norm[0] == 1 and is_homomorphism(ta, tb, norm)
                else:
                    with pytest.raises(WitnessError):
                        normalize_iso(a, b, f)
                verdicts.add((expected, f[0] == 1))
        assert verdicts == {(True, True), (True, False), (False, True),
                            (False, False)}


# (m, k, s, t) of each side: scalar, rank 2 and rank 3 pairs, Z_4 against
# Z_2^2, st = 1 pairs with one coset per element, a proper rank-3 (1-st)
# submodule, a cycle-type reject and the Z_4^3 closure pair
FROZEN_PAIRS = {
    "z8_self": ((8, 1, ((3,),), ((5,),)), (8, 1, ((3,),), ((5,),))),
    "z8_swapped": ((8, 1, ((3,),), ((5,),)), (8, 1, ((5,),), ((3,),))),
    "z8_33_77": ((8, 1, ((3,),), ((3,),)), (8, 1, ((7,),), ((7,),))),
    "z9_25_52": ((9, 1, ((2,),), ((5,),)), (9, 1, ((5,),), ((2,),))),
    "z4_vs_z2sq_swap": ((4, 1, ((3,),), ((3,),)),
                        (2, 2, ((0, 1), (1, 0)), ((0, 1), (1, 0)))),
    "z4_vs_z2sq_shear": ((4, 1, ((3,),), ((1,),)),
                         (2, 2, ((1, 1), (0, 1)), ((1, 0), (0, 1)))),
    "z3sq_conj": ((3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2))),
                  (3, 2, ((1, 0), (1, 1)), ((2, 0), (0, 2)))),
    "z4sq_st_one": ((4, 2, ((1, 1), (0, 1)), ((1, 3), (0, 1))),
                    (4, 2, ((1, 0), (1, 1)), ((1, 0), (3, 1)))),
    "z5sq_st_one": ((5, 2, ((1, 1), (0, 1)), ((1, 4), (0, 1))),
                    (5, 2, ((1, 0), (1, 1)), ((1, 0), (4, 1)))),
    "z3cube_st_one": (
        (3, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
         ((1, 2, 1), (0, 1, 2), (0, 0, 1))),
        (3, 3, ((1, 0, 0), (1, 1, 0), (0, 1, 1)),
         ((1, 0, 0), (2, 1, 0), (1, 2, 1)))),
    "z3cube_proper": (
        (3, 3, ((0, 2, 1), (2, 0, 1), (0, 0, 2)),
         ((0, 2, 0), (2, 0, 0), (0, 0, 2))),
        (3, 3, ((2, 0, 2), (2, 1, 2), (0, 0, 2)),
         ((2, 0, 0), (2, 1, 1), (0, 0, 2)))),
    "z5_diagonal_cycle_type": ((5, 2, diag(1, 2), diag(1, 3)),
                               (5, 2, diag(2, 2), diag(3, 3))),
    "z4cube_closure": ((4, 3, diag(1, 1, 1), diag(3, 1, 1)),
                       (4, 3, diag(3, 1, 1), diag(1, 1, 1))),
}

# name: (candidates, nonzero prunes, work, None or (perm, sha256 prefix of
# repr((rep_map, submodule_map.pairs)))): the decider's arithmetic may
# change, its witnesses and search effort may not
FROZEN_STRUCTURAL = {
    "z8_self": (2, {}, 2, ((1, 2, 3, 4, 5, 6, 7, 8), "863c4180882cc715")),
    "z8_swapped": (0, {"submodule": 1}, 0, None),
    "z8_33_77": (15, {"coset": 10}, 8,
                 ((1, 2, 3, 8, 5, 4, 7, 6), "87bebae7e781bccd")),
    "z9_25_52": (7, {"coset": 4}, 9,
                 ((1, 2, 6, 4, 8, 3, 7, 5, 9), "68914e0124c2f3a2")),
    "z4_vs_z2sq_swap": (7, {"coset": 4}, 4,
                        ((1, 2, 4, 3), "0508032449d49589")),
    "z4_vs_z2sq_shear": (2, {}, 2, ((1, 2, 3, 4), "710236f58dc97f32")),
    "z3sq_conj": (1, {}, 1,
                  ((1, 4, 7, 2, 5, 8, 3, 6, 9), "c9a631fd2030b380")),
    "z4sq_st_one": (47, {"coset": 39}, 16, (
        (1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, 4, 8, 12, 16),
        "8ca73ad7bd14849c")),
    "z5sq_st_one": (69, {"coset": 60}, 25, (
        (1, 6, 11, 16, 21, 2, 7, 12, 17, 22, 3, 8, 13, 18, 23, 4, 9, 14, 19,
         24, 5, 10, 15, 20, 25),
        "ec111bd3bd4106c6")),
    "z3cube_st_one": (110, {"coset": 99}, 27, (
        (1, 4, 7, 10, 5, 11, 12, 19, 9, 2, 20, 14, 13, 26, 21, 16, 6, 18, 3,
         25, 27, 17, 24, 8, 15, 22, 23),
        "46f59f3f5a0f747f")),
    "z3cube_proper": (18, {"coset": 7, "closure": 5}, 14, (
        (1, 3, 8, 19, 6, 17, 10, 9, 26, 25, 15, 5, 16, 18, 14, 7, 12, 23, 13,
         27, 2, 4, 21, 11, 22, 24, 20),
        "f97d8e60cb9375cf")),
    "z5_diagonal_cycle_type": (0, {"cycle_type": 1}, 0, None),
    "z4cube_closure": (168, {"coset": 120, "closure": 32}, 48, None),
}


class TestFrozenStructural:
    @pytest.mark.parametrize("name", sorted(FROZEN_PAIRS))
    def test_witness_and_counters_unchanged(self, name):
        a, b = (make_module(*spec) for spec in FROZEN_PAIRS[name])
        witness, stats = structural_iso(a, b)
        candidates, prunes, work, frozen = FROZEN_STRUCTURAL[name]
        assert stats.candidates == candidates and stats.work == work
        assert {k: v for k, v in stats.prunes.items() if v} == prunes
        if frozen is None:
            assert witness is None
            return
        perm, digest = frozen
        fields = repr((witness.rep_map, witness.submodule_map.pairs))
        assert witness.perm == perm
        assert hashlib.sha256(fields.encode()).hexdigest()[:16] == digest



def _search_side(spec, k):
    """Order and first k flats of a trivial table (spec n), a scalar
    Alexander table (m, s, t) or a module one (m, k, s, t)."""
    if isinstance(spec, int):
        table = trivial_biquandle(spec)
    elif len(spec) == 3:
        table = make_alexander(make_scalar_module(*spec))
    else:
        table = make_alexander(make_module(*spec))
    return table.n, table.flats()[:k]


# name: (src, dst, number of tables read, search_maps keywords); the
# searches prune by profile, by used image and by conflict, run without
# the bijection requirement, collect every map, and start from ``fixed``
# pairs that conflict at once, hit a used image or a profile mismatch
FROZEN_SEARCH_CASES = {
    "z4cube_profile": (*FROZEN_PAIRS["z4cube_closure"], 2, {}),
    "z12_profile": ((12, 1, 1), (12, 1, 5), 2, {}),
    "z8_35_53": ((8, 3, 5), (8, 5, 3), 2, {}),
    "z5_12_13": ((5, 1, 2), (5, 1, 3), 4, {}),
    "z5_21_31": ((5, 2, 1), (5, 3, 1), 2, {}),
    "z7_24_all": ((7, 2, 4), (7, 2, 4), 2, {"find_all": True}),
    "z6_55_all": ((6, 5, 5), (6, 5, 5), 4, {"find_all": True}),
    "z6_55_first": ((6, 5, 5), (6, 5, 5), 2, {}),
    "trivial4_all": (4, 4, 4, {"find_all": True}),
    "z6_to_z3_homs": ((6, 5, 5), (3, 2, 2), 4,
                      {"require_bijection": False, "find_all": True}),
    "z3_to_z6_homs": ((3, 2, 2), (6, 5, 5), 4,
                      {"require_bijection": False, "find_all": True}),
    "z4_to_trivial2_homs": ((4, 3, 3), 2, 4,
                            {"require_bijection": False, "find_all": True}),
    "z5_self_homs_first": ((5, 2, 3), (5, 2, 3), 2,
                           {"require_bijection": False}),
    "z6_z3_homs_fixed": ((6, 5, 5), (3, 2, 2), 2,
                         {"require_bijection": False, "find_all": True,
                          "fixed": ((1, 2),)}),
    "fixed_conflict": ((5, 2, 3), (5, 2, 3), 2, {"fixed": ((0, 0), (0, 1))}),
    "fixed_profile": ((5, 2, 3), (5, 2, 3), 2, {"fixed": ((0, 1), (1, 1))}),
    "fixed_used": (3, 3, 4, {"fixed": ((0, 0), (1, 0))}),
    "fixed_all": ((7, 2, 4), (7, 2, 4), 2,
                  {"fixed": ((0, 0),), "find_all": True}),
}

# name: (number of maps, sha256 prefix of repr(maps), candidates, work,
# prunes by (profile, used, conflict)): the search's bookkeeping may
# change, its maps, their order and its counters may not
FROZEN_SEARCHES = {
    "z4cube_profile": (0, "4f53cda18c2baa0c", 64, 0, (64, 0, 0)),
    "z12_profile": (0, "4f53cda18c2baa0c", 12, 0, (12, 0, 0)),
    "z8_35_53": (0, "4f53cda18c2baa0c", 8, 0, (8, 0, 0)),
    "z5_12_13": (0, "4f53cda18c2baa0c", 30, 480, (0, 5, 20)),
    "z5_21_31": (0, "4f53cda18c2baa0c", 10, 28, (5, 0, 4)),
    "z7_24_all": (18, "08de370719d4cbb1", 56, 1516, (13, 18, 0)),
    "z6_55_all": (16, "4c053a887fc22ddc", 162, 2256, (88, 32, 0)),
    "z6_55_first": (1, "92065ae2dbf2b967", 10, 84, (4, 2, 0)),
    "trivial4_all": (24, "d456d810e0990713", 164, 1568, (0, 100, 0)),
    "z6_to_z3_homs": (9, "f635be4f8317a297", 42, 1248, (0, 0, 20)),
    "z3_to_z6_homs": (12, "0fc8f40cf190acd8", 18, 504, (0, 0, 4)),
    "z4_to_trivial2_homs": (8, "4a36dc3a1a8ffe35", 14, 432, (0, 0, 0)),
    "z5_self_homs_first": (1, "46efef09698c4df1", 2, 60, (0, 0, 0)),
    "z6_z3_homs_fixed": (3, "a5d70bd10617160c", 15, 220, (0, 0, 8)),
    "fixed_conflict": (0, "4f53cda18c2baa0c", 0, 4, (0, 0, 1)),
    "fixed_profile": (0, "4f53cda18c2baa0c", 0, 0, (1, 0, 0)),
    "fixed_used": (0, "4f53cda18c2baa0c", 0, 8, (0, 1, 0)),
    "fixed_all": (18, "08de370719d4cbb1", 49, 1516, (7, 18, 0)),
}


class TestFrozenSearch:
    @pytest.mark.parametrize("name", sorted(FROZEN_SEARCH_CASES))
    def test_maps_and_counters_unchanged(self, name):
        src, dst, k, kwargs = FROZEN_SEARCH_CASES[name]
        maps, stats = kernels.search_maps(*_search_side(src, k),
                                          *_search_side(dst, k), **kwargs)
        count, digest, candidates, work, prunes = FROZEN_SEARCHES[name]
        assert len(maps) == count
        assert hashlib.sha256(repr(maps).encode()).hexdigest()[:16] == digest
        assert stats == {"candidates": candidates, "work": work,
                         "prunes": dict(zip(("profile", "used", "conflict"),
                                            prunes))}


class TestSharedArithmetic:
    @pytest.mark.parametrize("name", ["z3cube_proper", "z4_vs_z2sq_shear",
                                      "z9_25_52", "z4cube_closure"])
    def test_one_addition_table_per_module(self, name, monkeypatch,
                                           fresh_carriers):
        # make_alexander, verify_biquandle and structural_iso all read the
        # one addition table of each group Z_m^k, proper submodules included
        from biquandles import modules
        built = []
        fill = modules._addition_table

        def spy(m, k):
            built.append(m ** k)
            return fill(m, k)

        monkeypatch.setattr(modules, "_addition_table", spy)
        a, b = (make_module(*spec) for spec in FROZEN_PAIRS[name])
        for table in (make_alexander(a), make_alexander(b)):
            assert verify_biquandle(table).passed
        structural_iso(a, b)
        # one table per distinct (m, k): [27] for z3cube_proper, [4, 4]
        # for Z_4 against Z_2^2
        groups = {(a.m, a.k): a.size, (b.m, b.k): b.size}
        assert built == list(groups.values())


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sweep_small(self, n):
        mods = scalar_modules(n)
        tables = {m: make_alexander(m) for m in mods}
        for a, b in itertools.product(mods, repeat=2):
            brute, _ = brute_force_iso(tables[a], tables[b])
            struct, _ = structural_iso(a, b)
            assert (brute is None) == (struct is None), \
                (a.describe(), b.describe())

    def test_cross_size_pairs_trivially_disagree_nowhere(self):
        for a, b in [(make_scalar_module(4, 3, 3),
                      make_scalar_module(8, 3, 3)),
                     (make_scalar_module(5, 2, 2),
                      make_scalar_module(7, 2, 2))]:
            brute, _ = brute_force_iso(make_alexander(a), make_alexander(b))
            struct, _ = structural_iso(a, b)
            assert brute is None and struct is None

    def test_mixed_rank_size_four_pairs(self):
        # scalar Z_4 modules against rank-2 Z_2 modules: same carrier size,
        # different ambient shape; the swap action on Z_2 x Z_2 even turns
        # out isomorphic to Z_4 with s = t = 3
        from biquandles import make_module
        gl2 = [((a, b), (c, d))
               for a, b, c, d in itertools.product(range(2), repeat=4)
               if (a * d - b * c) % 2 == 1]

        def mul(x, y):
            return tuple(
                tuple(sum(x[i][l] * y[l][j] for l in range(2)) % 2
                      for j in range(2)) for i in range(2))

        mods = [make_module(2, 2, s, t) for s in gl2 for t in gl2
                if mul(s, t) == mul(t, s)]
        mods += [make_scalar_module(4, s, t) for s in (1, 3) for t in (1, 3)]
        tables = {m: make_alexander(m) for m in mods}
        matched = 0
        for a, b in itertools.product(mods, repeat=2):
            brute, _ = brute_force_iso(tables[a], tables[b])
            struct, _ = structural_iso(a, b)
            assert (brute is None) == (struct is None), \
                (a.s_matrix, a.t_matrix, b.s_matrix, b.t_matrix)
            matched += brute is not None
        assert matched == 68  # frozen count, includes cross-rank matches
        swap = make_module(2, 2, ((0, 1), (1, 0)), ((0, 1), (1, 0)))
        brute, _ = brute_force_iso(tables[swap] if swap in tables
                                   else make_alexander(swap),
                                   make_alexander(make_scalar_module(4, 3, 3)))
        assert brute is not None


class TestWitnessRoundTrip:
    def test_extract_identity_z3(self):
        mod = make_scalar_module(3, 2, 1)
        witness = extract_witness(mod, mod, (1, 2, 3))
        # 1 - st = 2 is a unit, so the submodule is everything and the
        # transversal collapses to the zero representative
        assert witness.rep_map == (((0,), (0,)),)
        assert len(witness.submodule_map.pairs) == 3
        assert witness.perm == (1, 2, 3)

    def test_extract_translation_regression(self):
        # frozen: normalizing g_4 on Z_8(3,5) yields the identity witness
        witness = extract_witness(Z8_35, Z8_35, translation_map(Z8_35, (4,)))
        assert witness.perm == tuple(range(1, 9))
        assert all(x == y for x, y in witness.submodule_map.pairs)

    def test_z5_self_pairs_all_witnesses_extract(self):
        for mod in scalar_modules(5):
            table = make_alexander(mod)
            for f in all_isomorphisms(table, table):
                witness = extract_witness(mod, mod, f)
                rebuilt = assemble_witness_map(
                    mod, mod, witness.submodule_map, dict(witness.rep_map))
                assert rebuilt == witness.perm

    def test_structural_witness_survives_extraction(self):
        a = make_scalar_module(8, 3, 3)
        for b in scalar_modules(8):
            witness, _ = structural_iso(a, b)
            if witness is None:
                continue
            again = extract_witness(a, b, witness.perm)
            rebuilt = assemble_witness_map(
                a, b, again.submodule_map, dict(again.rep_map))
            assert rebuilt == again.perm
            assert is_homomorphism(make_alexander(a), make_alexander(b),
                                   rebuilt)

    def test_extract_rejects_non_isomorphism(self):
        mod = make_scalar_module(3, 2, 1)
        with pytest.raises(WitnessError):
            extract_witness(mod, mod, (2, 1, 3))

    def test_assemble_names_the_missing_representative(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        with pytest.raises(WitnessError, match="rep map .* for 0$"):
            assemble_witness_map(Z8_35, Z8_35, witness.submodule_map, {})
        with pytest.raises(WitnessError, match="rep map .* for 1$"):
            assemble_witness_map(Z8_35, Z8_35, witness.submodule_map,
                                 {(0,): (0,)})

    def test_assemble_names_the_missing_submodule_element(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        rep_map = dict(witness.rep_map)
        with pytest.raises(WitnessError, match="submodule map .* for 0$"):
            assemble_witness_map(Z8_35, Z8_35, ModuleIso(()), rep_map)
        partial = ModuleIso(witness.submodule_map.pairs[:3])
        with pytest.raises(WitnessError, match="submodule map .* for 6$"):
            assemble_witness_map(Z8_35, Z8_35, partial, rep_map)

    def test_assemble_refuses_two_keys_for_one_element(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        with pytest.raises(WitnessError, match="^rep map has two images "
                           "for 1$"):
            assemble_witness_map(Z8_35, Z8_35, witness.submodule_map,
                                 {(0,): (0,), (1,): (1,), (9,): (3,)})
        doubled = ModuleIso(witness.submodule_map.pairs + (((10,), (2,)),))
        with pytest.raises(WitnessError, match="^submodule map has two "
                           "images for 2$"):
            assemble_witness_map(Z8_35, Z8_35, doubled, dict(witness.rep_map))

    def test_assemble_refuses_keys_outside_their_domain(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        with pytest.raises(WitnessError, match="^rep map key 5 is not a "
                           "canonical representative$"):
            assemble_witness_map(Z8_35, Z8_35, witness.submodule_map,
                                 {(0,): (0,), (1,): (1,), (5,): (5,)})
        widened = ModuleIso(witness.submodule_map.pairs + (((1,), (1,)),))
        with pytest.raises(WitnessError, match=r"^submodule map key 1 lies "
                           r"outside the \(1-st\) submodule$"):
            assemble_witness_map(Z8_35, Z8_35, widened, dict(witness.rep_map))

    def test_assemble_refuses_a_map_that_is_not_a_bijection(self):
        identity = ModuleIso(tuple((x, x) for x in
                                   one_minus_st_submodule(Z8_35).elements))
        with pytest.raises(WitnessError, match="not a bijection"):
            assemble_witness_map(Z8_35, Z8_35, identity,
                                 {(0,): (0,), (1,): (0,)})

    def test_bool_images_are_refused(self):
        mod = make_scalar_module(3, 2, 1)
        table = make_alexander(mod)
        assert normalize_iso(mod, mod, (1, 3, 2)) == (1, 3, 2)
        with pytest.raises(ValueError):
            normalize_iso(mod, mod, (True, 3, 2))
        with pytest.raises(ValueError):
            is_homomorphism(table, table, (True, 3, 2))

    def test_assemble_reduces_coordinates(self):
        # elements enter through index_of: (9,) is (1,) in Z_8
        witness, _ = structural_iso(Z8_35, Z8_35)
        h = ModuleIso(tuple((x, (y[0] + 8,))
                            for x, y in witness.submodule_map.pairs))
        assert assemble_witness_map(Z8_35, Z8_35, h,
                                    {(0,): (0,), (1,): (9,)}) == witness.perm

    def test_witness_serialization(self):
        witness, _ = structural_iso(Z8_35, Z8_35)
        payload = witness_to_dict(witness)
        assert payload["permutation"] == list(range(1, 9))
        assert [pair[0] for pair in payload["rep_map"]] == [[0], [1]]
        text = format_witness(witness)
        assert "permutation: 1 2 3 4 5 6 7 8" in text


# (m, k, s, t) of each side: scalar pairs, rank 2 with a proper (1-st)
# submodule and 3 or 8 cosets, rank 3 with 2 cosets, and Z_4 against Z_2^2
EXTRACTION_PAIRS = {
    "z8_self": FROZEN_PAIRS["z8_self"],
    "z9_25_52": FROZEN_PAIRS["z9_25_52"],
    "z3sq_three_cosets": ((3, 2, ((0, 2), (1, 2)), ((0, 2), (1, 2))),
                          (3, 2, ((2, 2), (1, 0)), ((2, 2), (1, 0)))),
    "z4sq_eight_cosets": ((4, 2, ((0, 1), (1, 2)), ((0, 3), (3, 2))),
                          (4, 2, ((1, 2), (3, 1)), ((3, 2), (1, 3)))),
    "z2cube_cycles": (
        (2, 3, ((0, 0, 1), (1, 0, 0), (0, 1, 0)), diag(1, 1, 1)),
        (2, 3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), diag(1, 1, 1))),
    "z4_vs_z2sq_swap": FROZEN_PAIRS["z4_vs_z2sq_swap"],
}

# name: (isomorphisms, records, sha256 prefix of the records), taken from
# the coordinate-tuple implementation of extract_witness and normalize_iso
FROZEN_EXTRACTION = {
    "z2cube_cycles": (6, 18, "e64241f87a9254d5"),
    "z3sq_three_cosets": (54, 216, "dbd7eba477c3de07"),
    "z4_vs_z2sq_swap": (4, 12, "c16b75b515d7d469"),
    "z4sq_eight_cosets": (128, 384, "609f69b6790c030e"),
    "z8_self": (8, 24, "bb3071c95b462679"),
    "z9_25_52": (12, 24, "f1aba62182273ac1"),
}


def extraction_records(a, b):
    """For every isomorphism f, in search order: f and the fields of its
    extracted witness, then for every z in Ker(1-s') the translate
    x -> f(x) + z and what ``normalize_iso`` makes of it."""
    ta, tb = make_alexander(a), make_alexander(b)
    kernel = kernel_one_minus_s(b).elements
    isos = all_isomorphisms(ta, tb)
    records = []
    for f in isos:
        w = extract_witness(a, b, f)
        records.append(repr((f, w.perm, w.rep_map, w.submodule_map.pairs)))
        for z in kernel:
            shift = translation_map(b, z)
            moved = tuple(shift[i - 1] for i in f)
            records.append(repr((z, moved, normalize_iso(a, b, moved))))
    return len(isos), records


class TestFrozenExtraction:
    @pytest.mark.parametrize("name", sorted(EXTRACTION_PAIRS))
    def test_witnesses_and_normal_forms_unchanged(self, name):
        a, b = (make_module(*spec) for spec in EXTRACTION_PAIRS[name])
        count, records = extraction_records(a, b)
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert (count, len(records), digest[:16]) == FROZEN_EXTRACTION[name]


class TestHomEnumeration:
    def test_unbarred_zero_fixing_maps_extend(self):
        # miniature of the zero-fixing lemma: unbarred-preserving maps with
        # f(0) = 0 already preserve the barred operations
        src = make_alexander(make_scalar_module(4, 3, 3))
        dst = make_alexander(make_scalar_module(4, 3, 1))
        maps = enumerate_homomorphisms(src, dst, ops=("up", "down"),
                                       fix={1: 1})
        for f in maps:
            assert is_homomorphism(src, dst, f)

    def test_full_homs_include_automorphisms(self):
        table = make_alexander(make_scalar_module(3, 2, 1))
        homs = enumerate_homomorphisms(table, table)
        assert (1, 2, 3) in homs and (1, 3, 2) in homs
        assert set(all_isomorphisms(table, table)) <= set(homs)


    def test_matches_product_scan_in_order(self):
        def preserves(src, dst, f, kinds):
            return all(f[src.op(kind, a, b) - 1] ==
                       dst.op(kind, f[a - 1], f[b - 1])
                       for kind in kinds
                       for a in range(1, src.n + 1)
                       for b in range(1, src.n + 1))

        pairs = [((3, 2, 1), (3, 2, 1)), ((4, 3, 3), (4, 3, 1)),
                 ((5, 2, 3), (5, 2, 3)), ((5, 2, 3), (5, 3, 2)),
                 ((5, 4, 4), (5, 4, 2))]
        for (m, s, t), (m2, s2, t2) in pairs:
            src = make_alexander(make_scalar_module(m, s, t))
            dst = make_alexander(make_scalar_module(m2, s2, t2))
            maps = list(itertools.product(range(1, dst.n + 1),
                                          repeat=src.n))
            for ops in (("up", "down", "upbar", "downbar"), ("up", "down")):
                expected = [f for f in maps if preserves(src, dst, f, ops)]
                assert enumerate_homomorphisms(src, dst, ops=ops) == expected
                assert enumerate_homomorphisms(
                    src, dst, ops=ops, fix={2: 3}) == \
                    [f for f in expected if f[1] == 3]

    def test_bad_fix_and_ops_refused(self):
        table = make_alexander(make_scalar_module(5, 2, 3))
        cases = [({"fix": {0: 1}}, "fix key 0 outside 1..5"),
                 ({"fix": {6: 1}}, "fix key 6 outside 1..5"),
                 ({"fix": {"1": 1}}, "fix key '1' outside 1..5"),
                 ({"fix": {1: 0}}, "fix value 0 outside 1..5"),
                 ({"fix": {1: 7}}, "fix value 7 outside 1..5"),
                 ({"fix": {1: 1.0}}, "fix value 1.0 outside 1..5"),
                 ({"ops": ("up", "over")}, "unknown operation kind 'over'")]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                enumerate_homomorphisms(table, table, **kwargs)


@pytest.fixture(scope="module")
def enumerated():
    """Every order the enumeration accepts, enumerated once per module."""
    return {n: enumerate_biquandles(n) for n in range(1, 5)}


class TestEnumeration:
    def test_order_one(self, enumerated):
        result = enumerated[1]
        assert len(result.tables) == 1 and len(result.classes) == 1

    def test_order_two_frozen_and_cross_checked(self, enumerated):
        result = enumerated[2]
        assert len(result.tables) == 2
        assert len(result.classes) == 2
        # independent 256-candidate scan: every choice of permutation
        # columns for all four blocks, filtered by the axiom checker
        perms = list(itertools.permutations((1, 2)))
        scan = set()
        for columns in itertools.product(perms, repeat=8):
            blocks = []
            for b in range(4):
                cols = columns[2 * b:2 * b + 2]
                blocks.append(tuple(
                    tuple(cols[j][i] for j in range(2)) for i in range(2)))
            table = BiquandleTable(2, *blocks)
            if verify_biquandle(table).passed:
                scan.add(table)
        assert scan == set(result.tables)

    def test_order_three_frozen_counts(self, enumerated):
        result = enumerated[3]
        assert len(result.tables) == 36
        assert len(result.classes) == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_table_passes_the_oracle(self, enumerated, n):
        # the search runs no axiom scan: every table it returns, at every
        # order it accepts, is rechecked here from scratch (order 4: 0.8 s)
        for table in enumerated[n].tables:
            assert recheck_axioms(table) == (True, ())

    def test_enumeration_runs_no_axiom_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration ran an axiom check")

        monkeypatch.setattr(kernels, "axiom_scan", refuse)
        monkeypatch.setattr(kernels, "_axiom3", refuse)
        assert len(enumerate_biquandles(3).tables) == 36

    def test_order_three_complete(self, enumerated):
        # independent 6^6-candidate scan: every choice of permutation
        # columns for up and down, filtered by the Yang-Baxter oracle, with
        # the barred blocks from S^-1 and the axioms rechecked from scratch
        rng = range(1, 4)
        perms = list(itertools.permutations(rng))
        scan = set()
        for columns in itertools.product(perms, repeat=6):
            up, down = tuple(zip(*columns[:3])), tuple(zip(*columns[3:]))
            # the barred blocks are placeholders: the oracle reads up, down
            candidate = BiquandleTable(3, up, down, up, down)
            ybe = recheck_yang_baxter(candidate)
            assert kernels.yang_baxter(3, *candidate.flats()[:2]) == ybe
            if not ybe:
                continue
            upbar, downbar = {}, {}
            for a, b in itertools.product(rng, rng):
                c, x = down[b - 1][a - 1], up[a - 1][b - 1]  # S(a, b)
                upbar[x, c], downbar[c, x] = a, b
            table = BiquandleTable(3, up, down, *(
                tuple(tuple(m[i, j] for j in rng) for i in rng)
                for m in (upbar, downbar)))
            if recheck_axioms(table)[0]:
                scan.add(table)
        assert scan == set(enumerated[3].tables)

    def test_classes_partition_correctly(self, enumerated):
        result = enumerated[3]
        assert result.classes == (
            (0,), (1, 2, 3), (4,), (5, 20, 27), (6, 21, 28), (7, 12, 14),
            (8, 13, 15), (9, 22, 34), (10, 23, 35), (11, 24, 33),
            (16, 19, 29), (17,), (18, 30), (25, 32), (26, 31))
        # members of one class are isomorphic to the class representative
        for cls in result.classes:
            rep = result.tables[cls[0]]
            for idx in cls[1:]:
                witness, _ = brute_force_iso(rep, result.tables[idx])
                assert witness is not None
        # distinct representatives are non-isomorphic
        reps = [result.tables[cls[0]] for cls in result.classes]
        for a, b in itertools.combinations(reps, 2):
            witness, _ = brute_force_iso(a, b)
            assert witness is None

    def test_budget_guard(self):
        for n in (0, 5):
            with pytest.raises(ValueError):
                enumerate_biquandles(n)

    def test_order_four_pin(self, enumerated):
        # frozen from the former column-by-column search, whose
        # completeness the unpruned scan checked at order 3
        result = enumerated[4]
        assert len(result.tables) == 744
        assert len(result.classes) == 98
        frozen = repr(([t.flats() for t in result.tables], result.classes))
        assert hashlib.sha256(frozen.encode()).hexdigest() == (
            "abdf0c9d4691914c6597a3da0dd8137c4ffd97f310ce4cfb85323ac2eee06cf9")


# ---------------------------------------------------------------------------
# The derived quandle, read off each enumerated table from its operations
# alone: x <| y = (x^z)_y, where z is the element with z_x = y.


def derived_quandle(table):
    """x <| y as a dict on 1-based (x, y) pairs."""
    rng = range(1, table.n + 1)
    op = table.op
    return {(x, y): op("down", op("up", x, next(
        z for z in rng if op("down", z, x) == y)), y)
        for x in rng for y in rng}


def is_quandle(n, q):
    rng = range(1, n + 1)
    return (all(q[x, x] == x for x in rng)
            and all(sorted(q[x, y] for x in rng) == list(rng) for y in rng)
            and all(q[q[x, y], z] == q[q[x, z], q[y, z]]
                    for x in rng for y in rng for z in rng))


def relabelled(q, p):
    """q carried along the 1-based bijection p."""
    return tuple(sorted(((p[x - 1], p[y - 1]), p[v - 1])
                        for (x, y), v in q.items()))


def quandle_class(n, q):
    return min(relabelled(q, p)
               for p in itertools.permutations(range(1, n + 1)))


class TestDerivedQuandle:
    """The facts the enumeration rests on, at orders 3 and 4."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_reduction_facts(self, enumerated, n):
        rng = range(1, n + 1)
        for table in enumerated[n].tables:
            q = derived_quandle(table)
            assert is_quandle(n, q)
            # every sigma_x = (._x) and tau_y = (.^y) is in Aut(<|)
            for kind in ("down", "up"):
                for g in rng:
                    f = {x: table.op(kind, x, g) for x in rng}
                    assert all(f[q[x, y]] == q[f[x], f[y]]
                               for x in rng for y in rng)
            # tau_z(x) = sigma_w^-1(x <| w), with w = sigma_x(z)
            for x in rng:
                for z in rng:
                    w = table.op("down", z, x)
                    assert table.op("down", table.op("up", x, z), w) \
                        == q[x, w]

    @pytest.mark.parametrize("n, labelled, classes", [(3, 5, 3), (4, 36, 7)])
    def test_quandle_counts(self, enumerated, n, labelled, classes):
        derived = {tuple(sorted(derived_quandle(t).items()))
                   for t in enumerated[n].tables}
        assert len(derived) == labelled
        assert len({quandle_class(n, dict(q)) for q in derived}) == classes
        # every quandle on 1..n is derived (from sigma = id, x^y = x <| y):
        # the candidates are the right translations fixing their y
        rng = range(1, n + 1)
        fixing = [[p for p in itertools.permutations(rng) if p[y - 1] == y]
                  for y in rng]
        quandles = set()
        for rows in itertools.product(*fixing):
            q = {(x, y): rows[y - 1][x - 1] for x in rng for y in rng}
            if is_quandle(n, q):
                quandles.add(tuple(sorted(q.items())))
        assert quandles == derived

    def test_order_three_quandles_by_full_scan(self):
        rng = range(1, 4)
        keys = list(itertools.product(rng, rng))
        count = sum(is_quandle(3, dict(zip(keys, values)))
                    for values in itertools.product(rng, repeat=9))
        assert count == 5

    @pytest.mark.parametrize("n", [3, 4])
    def test_sigma_and_quandle_determine_the_table(self, enumerated, n):
        keys = {(table.down, tuple(sorted(derived_quandle(table).items())))
                for table in enumerated[n].tables}
        assert len(keys) == len(enumerated[n].tables)


class TestIdentityCriterion:
    """The criterion the enumeration prunes on, checked on every candidate
    the search could reach at orders 2 and 3."""

    @pytest.mark.parametrize("n, candidates, passing", [(2, 4, 2),
                                                        (3, 456, 36)])
    def test_identity_decides_yang_baxter(self, n, candidates, passing):
        # for every labelled quandle Q and every sigma in Aut(Q)^n, with
        # x^z = sigma_w^-1(x <| w), w = sigma_x(z): sigma_a o sigma_b =
        # sigma_(b_a) o sigma_(a^b) for all a, b iff S is a YBE solution
        rng = range(1, n + 1)
        perms = list(itertools.permutations(rng))
        fixing = [[p for p in perms if p[y - 1] == y] for y in rng]
        seen = passed = 0
        for rows in itertools.product(*fixing):
            q = {(x, y): rows[y - 1][x - 1] for x in rng for y in rng}
            if not is_quandle(n, q):
                continue
            auts = [p for p in perms if all(
                p[q[x, y] - 1] == q[p[x - 1], p[y - 1]]
                for x in rng for y in rng)]
            for sigma in itertools.product(auts, repeat=n):
                def s(x, z):
                    return sigma[x - 1][z - 1]

                def s_inv(x, v):
                    return sigma[x - 1].index(v) + 1

                up = tuple(tuple(s_inv(s(x, z), q[x, s(x, z)]) for z in rng)
                           for x in rng)
                down = tuple(tuple(s(x, z) for x in rng) for z in rng)
                identity = all(
                    s(a, s(b, c)) == s(s(a, b), s(up[a - 1][b - 1], c))
                    for a in rng for b in rng for c in rng)
                # the barred blocks are placeholders: the oracle reads
                # up and down
                table = BiquandleTable(n, up, down, up, down)
                assert identity == recheck_yang_baxter(table)
                seen += 1
                passed += identity
        assert (seen, passed) == (candidates, passing)


class TestEnumeratedClasses:
    @pytest.mark.parametrize("n, total", [(3, 36), (4, 744)])
    def test_orbit_counting(self, enumerated, n, total):
        # each class holds n!/|Aut(T)| labelled tables
        result = enumerated[n]
        orbits = [math.factorial(n) // len(all_isomorphisms(t, t))
                  for t in (result.tables[c[0]] for c in result.classes)]
        assert sum(orbits) == total == len(result.tables)
        assert orbits == list(map(len, result.classes))

    @pytest.mark.parametrize("n, count", [(3, 5), (4, 23)])
    def test_involutive_classes(self, enumerated, n, count):
        # Etingof, Schedler and Soloviev count 5 and 23 involutive
        # solutions up to isomorphism: S(S(a, b)) = (a, b), S(a, b) =
        # (b_a, a^b)
        def pair_map(t):
            return lambda a, b: (t.op("down", b, a), t.op("up", a, b))

        rng = range(1, n + 1)
        result = enumerated[n]
        involutive = 0
        for cls in result.classes:
            s = pair_map(result.tables[cls[0]])
            involutive += all(s(*s(a, b)) == (a, b) for a in rng for b in rng)
        assert involutive == count
