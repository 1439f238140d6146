"""Acceptance criteria, one test per criterion.

Each test asserts its criterion at the stated tolerance and records a
PASS/FAIL line that pytest prints in the terminal summary.
"""

import itertools
import math
import time

import pytest

from biquandles import (assemble_witness_map,
                        brute_force_iso, build_diagram, count_homs,
                        enumerate_biquandles, enumerate_homomorphisms,
                        extract_witness, is_homomorphism, kernel_one_minus_s,
                        kishino_codes, make_alexander, make_module,
                        make_scalar_module, one_minus_st_submodule,
                        parse_gauss_code, reidemeister_suite,
                        translation_map, trivial_biquandle, verify_biquandle)
from biquandles.cli import main
from biquandles.tables import BiquandleTable

from conftest import Z2Z2_MATRIX, scalar_modules, units
from oracles import _neg, _vec


def all_scalar_modules(n_max=8):
    out = []
    for n in range(2, n_max + 1):
        out.extend(scalar_modules(n))
    return out


def rank_two_modules():
    """All commuting pairs of invertible 2x2 matrices over Z_2 (size 4)."""
    gl2 = [((a, b), (c, d))
           for a, b, c, d in itertools.product(range(2), repeat=4)
           if (a * d - b * c) % 2 == 1]

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][l] * y[l][j] for l in range(2)) % 2
                  for j in range(2)) for i in range(2))

    return [make_module(2, 2, s, t) for s in gl2 for t in gl2
            if mul(s, t) == mul(t, s)]


@pytest.fixture(scope="module")
def sweep():
    """Shared sweep data: module list, tables, and brute-force verdicts
    for every ordered pair (cross-size pairs included)."""
    mods = all_scalar_modules()
    tables = {m: make_alexander(m) for m in mods}
    verdicts = {}
    for a in mods:
        for b in mods:
            brute, _ = brute_force_iso(tables[a], tables[b])
            verdicts[(a, b)] = brute
    return mods, tables, verdicts


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_z3_matrix(acceptance, capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "alexander", "--zn", "3", "2", "1")
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    grid = [line.split() for line in lines[1:]]
    b1 = [row[:3] for row in grid[:3]]
    b4 = [row[3:] for row in grid[3:]]
    ok = (code == 0
          and b1 == [["3", "2", "1"], ["1", "3", "2"], ["2", "1", "3"]]
          and b4 == [["2"] * 3, ["1"] * 3, ["3"] * 3]
          and elapsed < 1.0)
    acceptance(1, "Z_3 (s=2, t=1) matrix reproduced exactly", ok,
               f"{elapsed:.3f}s")


def test_criterion_2_z2z2_matrix(acceptance, capsys, z2z2_constructed,
                                 tmp_path):
    start = time.perf_counter()
    code, out = run_cli(capsys, "switch", "2", "2",
                        "--A", "0 1;1 1", "--B", "1 1;0 1", "--c", "1 1")
    matrix_ok = out == Z2Z2_MATRIX
    path = tmp_path / "z2z2.bq"
    path.write_text(out)
    check_code, _ = run_cli(capsys, "check", str(path))
    elapsed = time.perf_counter() - start
    from biquandles import serialize_matrix
    ok = (code == 0 and matrix_ok and check_code == 0
          and serialize_matrix(z2z2_constructed) == Z2Z2_MATRIX
          and elapsed < 1.0)
    acceptance(2, "Z_2xZ_2 switch matrix reproduced verbatim and verified",
               ok, f"{elapsed:.3f}s")


def test_criterion_3_z8_non_isomorphism(acceptance, capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "iso", "--zn", "8", "3", "5",
                        "--zn", "8", "5", "3", "--method", "both")
    cli_ok = code == 1 and out.strip() == "non-isomorphic"

    a = make_scalar_module(8, 3, 5)
    b = make_scalar_module(8, 5, 3)
    brute, stats = brute_force_iso(make_alexander(a), make_alexander(b))
    budget_ok = brute is None and stats.candidates <= math.factorial(8)

    # under the negation map h on {0,2,4,6} with
    # representatives {0,1}, (1-st)g(1) = h(6*1... (2*1)) = 6 admits only
    # g(1) in {3,7}, and both fail s'g(1) = g(1) + h(2)
    sub = one_minus_st_submodule(a)
    neg = {x: _neg(x, a.m) for x in sub.elements}
    target = neg[(2,)][0]
    candidates = [y for y in range(8) if (2 * y) % 8 == target]
    closure_fails = all(
        (5 * g1) % 8 != (g1 + neg[(2,)][0]) % 8 for g1 in candidates)
    elapsed = time.perf_counter() - start
    ok = (cli_ok and budget_ok and candidates == [3, 7] and closure_fails
          and elapsed < 5.0)
    acceptance(3, "Z_8 (3,5) vs (5,3): non-isomorphic by both methods, "
                  "closure fails for g(1) in {3,7}", ok, f"{elapsed:.2f}s")


def test_criterion_4_oracle_equivalence_sweep(acceptance, sweep):
    from biquandles import structural_iso
    start = time.perf_counter()
    mods, tables, verdicts = sweep
    pairs = disagreements = 0
    for a in mods:
        for b in mods:
            pairs += 1
            struct, _ = structural_iso(a, b)
            if (verdicts[(a, b)] is None) != (struct is None):
                disagreements += 1
    elapsed = time.perf_counter() - start
    total_mods = sum(len(units(n)) ** 2 for n in range(2, 9))
    ok = pairs == total_mods ** 2 and disagreements == 0 and elapsed < 600
    acceptance(4, f"structural vs brute verdicts agree on all {pairs} "
                  "ordered scalar pairs (Z_2..Z_8, cross-size included)", ok,
               f"{disagreements} disagreements, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5a_homomorphism_zero_image(acceptance, sweep):
    start = time.perf_counter()
    mods, tables, _ = sweep
    checked = violations = 0
    for a in mods:
        sa, ta = a.scalar_params()
        for b in mods:
            sb, tb = b.scalar_params()
            if (sa, ta) == (1, 1) and (sb, tb) == (1, 1):
                # both tables trivial: every map is a homomorphism and
                # (1-s')f(0) = 0 holds identically since s' = 1
                assert all(((1 - 1) * z) % b.m == 0 for z in range(b.m))
                continue
            one_minus_s = tuple(
                tuple((1 if i == j else 0) - b.s_matrix[i][j]
                      for j in range(b.k)) for i in range(b.k))
            # up and down determine the homomorphisms: f x f intertwines
            # S(a, b) = (b_a, a^b) with S' iff it intertwines their
            # inverses, so all four tables give the same 1086643 maps
            for f in enumerate_homomorphisms(tables[a], tables[b],
                                             ops=("up", "down")):
                checked += 1
                f_zero = b.elements[f[0] - 1]
                if _vec(one_minus_s, f_zero, b.m) != b.zero:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and checked == 1086643
    acceptance("5a", f"(1-s')f(0) = 0 for all {checked} homomorphisms "
                     "found between Alexander tables of size <= 8",
               ok, f"{elapsed:.1f}s")


def test_criterion_5b_translations(acceptance, sweep):
    start = time.perf_counter()
    mods, tables, _ = sweep
    mods = list(mods) + rank_two_modules()
    violations = 0
    for mod in mods:
        table = tables.get(mod) or make_alexander(mod)
        kernel = set(kernel_one_minus_s(mod).elements)
        size = mod.size
        for z in mod.elements:
            perm = translation_map(mod, z)
            is_auto = sorted(perm) == list(range(1, size + 1)) and \
                is_homomorphism(table, table, perm)
            if is_auto != (z in kernel):
                violations += 1
    elapsed = time.perf_counter() - start
    acceptance("5b", "translations are automorphisms exactly for "
                     "z in Ker(1-s), all modules of size <= 8",
               violations == 0, f"{elapsed:.1f}s")


def test_criterion_5c_unbarred_implies_barred(acceptance):
    start = time.perf_counter()
    mods = all_scalar_modules(5) + rank_two_modules()
    tables = {m: make_alexander(m) for m in mods}
    checked = violations = 0
    for a in mods:
        for b in mods:
            maps = enumerate_homomorphisms(
                tables[a], tables[b], ops=("up", "down"), fix={1: 1})
            for f in maps:
                checked += 1
                if not is_homomorphism(tables[a], tables[b], f):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and checked > 0
    acceptance("5c", f"all {checked} zero-fixing unbarred-preserving maps "
                     "on modules of size <= 5 preserve the barred ops",
               ok, f"{elapsed:.1f}s")


def test_criterion_6_witness_round_trip(acceptance, sweep):
    start = time.perf_counter()
    mods, tables, verdicts = sweep
    extracted = failures = 0
    for (a, b), brute in verdicts.items():
        if brute is None:
            continue
        extracted += 1
        try:
            witness = extract_witness(a, b, brute)
            rebuilt = assemble_witness_map(
                a, b, witness.submodule_map, dict(witness.rep_map))
            if rebuilt != witness.perm or \
                    not is_homomorphism(tables[a], tables[b], rebuilt):
                failures += 1
        except Exception:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and extracted > 0
    acceptance(6, f"witness extraction and reassembly round-trips on all "
                  f"{extracted} sweep isomorphisms", ok, f"{elapsed:.1f}s")


def test_criterion_7_counting_invariant(acceptance, z2z2_table):
    start = time.perf_counter()
    unknot = count_homs(build_diagram(parse_gauss_code("")), z2z2_table)
    kink = count_homs(build_diagram(parse_gauss_code("O1+,U1+")),
                      z2z2_table)
    kishino_counts = [
        count_homs(build_diagram(code), z2z2_table).count
        for code in kishino_codes()]
    elapsed = time.perf_counter() - start
    ok = (unknot.count == 4 and kink.count == 4
          and len(kishino_counts) == 3
          and all(c != 4 for c in kishino_counts)
          and kishino_counts == [16, 16, 16]  # frozen derived values
          and elapsed < 60)
    acceptance(7, "unknot and kink count 4; Kishino knots count 16 != 4",
               ok, f"counts {kishino_counts}, {elapsed:.2f}s")


def test_criterion_8_reidemeister_invariance(acceptance, z2z2_table):
    start = time.perf_counter()
    targets = [trivial_biquandle(2), trivial_biquandle(5), z2z2_table,
               make_alexander(make_scalar_module(3, 2, 1)),
               make_alexander(make_scalar_module(5, 2, 3)),
               make_alexander(make_scalar_module(8, 3, 5)),
               make_alexander(make_scalar_module(7, 3, 2))]
    violations = []
    for target in targets:
        report = reidemeister_suite(target)
        if not report.passed:
            violations.append((target.n, report.entries))
    elapsed = time.perf_counter() - start
    acceptance(8, "equal counts on every curated move-related pair for "
                  f"all {len(targets)} fixture targets",
               not violations, f"{elapsed:.2f}s")


def test_criterion_9_enumeration_sanity(acceptance):
    start = time.perf_counter()
    one = enumerate_biquandles(1)
    two = enumerate_biquandles(2)

    perms = list(itertools.permutations((1, 2)))
    scan = set()
    candidates = 0
    for columns in itertools.product(perms, repeat=8):
        candidates += 1
        blocks = []
        for b in range(4):
            cols = columns[2 * b:2 * b + 2]
            blocks.append(tuple(
                tuple(cols[j][i] for j in range(2)) for i in range(2)))
        table = BiquandleTable(2, *blocks)
        if verify_biquandle(table).passed:
            scan.add(table)
    elapsed = time.perf_counter() - start
    ok = (len(one.tables) == 1 and candidates == 256
          and scan == set(two.tables) and elapsed < 60)
    acceptance(9, "enumerate(1) = 1; enumerate(2) matches the independent "
                  "256-candidate scan exactly", ok,
               f"{len(two.tables)} tables, {elapsed:.2f}s")
