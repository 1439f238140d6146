import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biquandles
from biquandles import (GaussCodeError, ReidemeisterReport, build_diagram,
                        cli, count_gauss, count_homs, enumerate_biquandles,
                        kernels, kishino_codes, make_alexander, make_module,
                        make_scalar_module, parse_gauss_code,
                        reidemeister_suite, serialize_matrix,
                        trivial_biquandle)
from biquandles.knot import (KINK_NEGATIVE, KINK_POSITIVE, MIRROR_BRAID,
                             MIRROR_BRAID_R3, R2_POKE, REIDEMEISTER_PAIRS,
                             TREFOIL, TREFOIL_BRAID, TREFOIL_BRAID_R3)

from oracles import (braid_closure_code, naive_labeling_count,
                     naive_labelings, smith_labeling_count)


def gauss_codes_strategy(max_crossings=3):
    """Random valid signed OU codes: shuffle passage pairs and signs."""
    def build(n, order, signs):
        slots = [None] * (2 * n)
        positions = sorted(range(2 * n), key=lambda i: order[i])
        for label in range(1, n + 1):
            p1, p2 = positions[2 * label - 2], positions[2 * label - 1]
            sign = "+" if signs[label - 1] else "-"
            slots[p1] = f"O{label}{sign}"
            slots[p2] = f"U{label}{sign}"
        return ",".join(slots)
    return st.integers(1, max_crossings).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(range(2 * n)),
            st.lists(st.booleans(), min_size=n, max_size=n)).map(
                lambda t: build(*t)))


@st.composite
def move_related_codes(draw, max_base=3, max_moves=3):
    """(base, grown): a random code and one grown from it by R1 and R2 moves.

    A kink inserts ``Ok s,Uk s`` or ``Uk s,Ok s`` anywhere.  An R2 pair
    inserts ``Oa s,Ob -s`` at one position and ``Ua s,Ub -s`` (parallel
    strands) or ``Ub -s,Ua s`` (antiparallel) at another, never between the
    two over passages; virtual detours let the stretches sit anywhere.
    """
    base = draw(st.one_of(st.just(""), gauss_codes_strategy(max_base)))
    tokens = base.split(",") if base else []
    label = len(tokens) // 2
    for _ in range(draw(st.integers(1, max_moves))):
        s, t = draw(st.sampled_from(("+-", "-+")))
        if draw(st.booleans()):
            label += 1
            kink = [f"O{label}{s}", f"U{label}{s}"]
            if draw(st.booleans()):
                kink.reverse()
            at = draw(st.integers(0, len(tokens)))
            tokens[at:at] = kink
        else:
            a, b = label + 1, label + 2
            label += 2
            under = [f"U{a}{s}", f"U{b}{t}"]
            if draw(st.booleans()):
                under.reverse()
            at = draw(st.integers(0, len(tokens)))
            tokens[at:at] = [f"O{a}{s}", f"O{b}{t}"]
            at2 = draw(st.integers(0, len(tokens)).filter(
                lambda j: j != at + 1))
            tokens[at2:at2] = under
    return base, ",".join(tokens)


def seeded_braid_closures(seed, count):
    """(strands, code) of seeded random braid closures that are knots:
    2-4 strands, 10-40 crossings of both signs.  A w-strand closure's
    frontier can hold n^w states, so 4-strand words stop at 20 crossings."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, 4)
        word = [(rng.randrange(1, strands), rng.choice((1, -1)))
                for _ in range(rng.randint(10, 40 if strands < 4 else 20))]
        code = braid_closure_code(word)
        if code is not None:
            found.append((strands, code))
    return found


# (m, s, t) of the Alexander targets checked against the Smith-form oracle
SMITH_TARGETS = {
    "z8_3_5": (8, ((3,),), ((5,),)),
    "z3_2_1": (3, ((2,),), ((1,),)),
    "z7_rank2": (7, ((1, 1), (0, 1)), ((3, 1), (0, 3))),
}


@pytest.fixture(scope="module")
def move_targets(z2z2_table):
    return [trivial_biquandle(3), z2z2_table,
            make_alexander(make_scalar_module(5, 2, 3)),
            make_alexander(make_scalar_module(8, 3, 5)),
            make_alexander(make_scalar_module(7, 3, 2))]


class TestParse:
    def test_empty_is_unknot(self):
        assert parse_gauss_code("").tokens == ()
        assert parse_gauss_code("  \n").tokens == ()

    def test_kink(self):
        code = parse_gauss_code("O1+,U1+")
        assert code.tokens == (("O", 1, 1), ("U", 1, 1))
        assert code.crossing_count == 1

    def test_sign_mismatch(self):
        with pytest.raises(GaussCodeError, match="mismatched signs"):
            parse_gauss_code("O1+,U1-")

    def test_duplicate_passage(self):
        with pytest.raises(GaussCodeError, match="two O passages"):
            parse_gauss_code("O1+,O1+")

    def test_label_appears_once(self):
        with pytest.raises(GaussCodeError, match="appears 1"):
            parse_gauss_code("O1+,U1+,O2+")

    def test_label_appears_thrice(self):
        with pytest.raises(GaussCodeError, match="appears 3"):
            parse_gauss_code("O1+,U1+,U1+,O2+,U2+")

    def test_malformed_token(self):
        with pytest.raises(GaussCodeError, match="malformed"):
            parse_gauss_code("O1+,X2-")

    def test_roundtrip_str(self):
        text = "O1+,U2-,U1+,O2-"
        assert str(parse_gauss_code(text)) == text


class TestBuildDiagram:
    def test_unknot(self):
        d = build_diagram(parse_gauss_code(""))
        assert d.semi_arcs == 1 and d.crossings == ()

    def test_kink(self):
        d = build_diagram(parse_gauss_code("O1+,U1+"))
        assert d.semi_arcs == 2
        assert len(d.crossings) == 1
        sign, ui, oi, uo, oo = d.crossings[0]
        assert sign == 1
        # passage 0 is over, passage 1 under: the crossing links both arcs
        assert (ui, oi, uo, oo) == (0, 1, 1, 0)

    def test_four_crossings_eight_arcs(self):
        d = build_diagram(parse_gauss_code(str(kishino_codes()[0])))
        assert d.semi_arcs == 8 and len(d.crossings) == 4

    def test_arc_incidence(self):
        d = build_diagram(parse_gauss_code(TREFOIL))
        ins = sorted(c[1] for c in d.crossings) + \
            sorted(c[2] for c in d.crossings)
        outs = sorted(c[3] for c in d.crossings) + \
            sorted(c[4] for c in d.crossings)
        assert sorted(ins) == list(range(6)) == sorted(outs)


class TestCountHoms:
    def targets(self, z2z2):
        return [trivial_biquandle(2), trivial_biquandle(5), z2z2,
                make_alexander(make_scalar_module(5, 2, 3)),
                make_alexander(make_scalar_module(8, 3, 5))]

    def test_unknot_counts_order(self, z2z2_table):
        for target in self.targets(z2z2_table):
            assert count_gauss("", target) == target.n

    def test_kink_counts_order(self, z2z2_table):
        # Reidemeister-I invariance predicts the count n via the unique
        # kink solution per element; both directions checked
        for target in self.targets(z2z2_table):
            assert count_gauss(KINK_POSITIVE, target) == target.n
            assert count_gauss("O1-,U1-", target) == target.n
            n = target.n
            pairs = [(x1, x2)
                     for x1 in range(1, n + 1) for x2 in range(1, n + 1)
                     if x2 == target.op("up", x1, x2)
                     and x1 == target.op("down", x2, x1)]
            assert len(pairs) == n

    def test_trivial_target_counts_order_for_any_diagram(self):
        trivial = trivial_biquandle(4)
        for code in (TREFOIL, R2_POKE, TREFOIL_BRAID,
                     str(kishino_codes()[1])):
            assert count_gauss(code, trivial) == 4

    def test_propagation_equals_naive_filter(self, z2z2_table):
        codes = [KINK_POSITIVE, R2_POKE, TREFOIL,
                 str(kishino_codes()[0]), str(kishino_codes()[2])]
        for text in codes:
            diagram = build_diagram(parse_gauss_code(text))
            assert diagram.semi_arcs <= 8
            fast = count_homs(diagram, z2z2_table).count
            slow = naive_labeling_count(diagram, z2z2_table)
            assert fast == slow, text

    @settings(max_examples=25, deadline=None)
    @given(gauss_codes_strategy(max_crossings=3))
    def test_random_codes_naive_agreement_and_rotation(self, text):
        target = make_alexander(make_scalar_module(3, 2, 1))
        code = parse_gauss_code(text)
        diagram = build_diagram(code)
        count = count_homs(diagram, target).count
        assert count == naive_labeling_count(diagram, target)
        for k in range(1, len(code.tokens)):
            rotated = build_diagram(code.rotated(k))
            assert count_homs(rotated, target).count == count

    def test_assignments_retained(self):
        report = count_homs(build_diagram(parse_gauss_code("")),
                            trivial_biquandle(3), keep_assignments=True)
        assert report.assignments == ((1,), (2,), (3,))
        assert report.count == 3

    @pytest.mark.parametrize("text", [
        KINK_POSITIVE, R2_POKE, TREFOIL, MIRROR_BRAID,
        str(kishino_codes()[0])])
    def test_assignments_satisfy_every_crossing(self, text, z2z2_table):
        diagram = build_diagram(parse_gauss_code(text))
        z3 = make_alexander(make_scalar_module(3, 2, 1))
        for target in (z2z2_table, z3):
            report = count_homs(diagram, target, keep_assignments=True)
            sols = report.assignments
            assert len(sols) == report.count > 0
            assert list(sols) == sorted(set(sols))
            for a in sols:
                assert len(a) == diagram.semi_arcs
                for sign, ui, oi, uo, oo in diagram.crossings:
                    up, down = ("up", "down") if sign > 0 else \
                        ("upbar", "downbar")
                    assert a[uo] == target.op(up, a[ui], a[oi])
                    assert a[oo] == target.op(down, a[oi], a[ui])

    def test_torus_knots_against_order_eight(self):
        # frozen from perfbench/oracle.py's affine_count, which solves the
        # labeling system over Z_8 by an integer Smith form, no kernels
        target = make_alexander(make_scalar_module(8, 3, 5))
        for crossings, expected in ((11, 8), (21, 8)):
            code = braid_closure_code([(1, 1)] * crossings)
            assert count_gauss(code, target) == expected

    @pytest.mark.parametrize("name", SMITH_TARGETS)
    def test_braid_closures_against_smith_oracle(self, name):
        m, s, t = SMITH_TARGETS[name]
        target = make_alexander(make_module(m, len(s), s, t))
        for strands, code in seeded_braid_closures(0, 20):
            # at order 49 a 3-strand closure takes seconds, so the rank-2
            # module counts the 2-strand ones only
            if target.n > 8 and strands > 2:
                continue
            assert count_gauss(code, target) == \
                smith_labeling_count(code, m, s, t), code

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(codes=move_related_codes(max_base=2, max_moves=2))
    def test_kept_assignments_are_the_naive_solutions(self, z2z2_table,
                                                      codes):
        assume(codes[1].count(",") < 8)
        z3 = make_alexander(make_scalar_module(3, 2, 1))
        for text in codes:
            diagram = build_diagram(parse_gauss_code(text))
            for target in (z2z2_table, z3, trivial_biquandle(2)):
                report = count_homs(diagram, target, keep_assignments=True)
                assert list(report.assignments) == \
                    naive_labelings(diagram, target), text

    def test_state_bound(self, monkeypatch, tmp_path, capsys):
        target = make_alexander(make_scalar_module(8, 3, 5))
        code = braid_closure_code([(1, 1)] * 5)
        monkeypatch.setattr(kernels, "MAX_STATES", 16)
        with pytest.raises(ValueError, match="frontier exceeds 16 states"):
            count_gauss(code, target)
        path = tmp_path / "z8.bq"
        path.write_text(serialize_matrix(target))
        assert cli.main(["count", "--gauss", code, "--target",
                         str(path)]) == cli.EXIT_INPUT
        assert "frontier exceeds" in capsys.readouterr().err

    def test_kernel_reads_negative_crossings_through_s_inverse(self):
        # the kernel gets up and down alone; the oracles read a negative
        # crossing through the barred tables
        rng = random.Random(20061020)
        codes = [KINK_NEGATIVE, MIRROR_BRAID, MIRROR_BRAID_R3,
                 "O1-,U2-,O3-,U1-,O2-,U3-"]
        while len(codes) < 10:
            word = [(rng.randrange(1, 3), rng.choice((1, -1)))
                    for _ in range(rng.randint(2, 4))]
            code = braid_closure_code(word)
            if code is not None and "+" in code and "-" in code:
                codes.append(code)
        targets = [t for t in enumerate_biquandles(3).tables
                   if t.flats()[:2] != t.flats()[2:]]
        targets.append(make_alexander(make_scalar_module(3, 2, 1)))
        assert len(targets) > 1
        for text in codes:
            diagram = build_diagram(parse_gauss_code(text))
            assert diagram.semi_arcs <= 8
            for target in targets:
                args = (diagram.semi_arcs, diagram.crossings, target.n,
                        *target.flats()[:2])
                count, _ = kernels.diagram_count(*args)
                kept = kernels.diagram_count(*args, keep=True)
                assert count == kept[0] == \
                    naive_labeling_count(diagram, target), text
                assert [tuple(v + 1 for v in s) for s in kept[1]] == \
                    naive_labelings(diagram, target), text

    def test_kernels_are_the_pure_functions(self):
        assert biquandles.BACKEND == kernels.BACKEND == "pure"

    def test_invalid_target_rejected(self):
        from biquandles import BiquandleTable
        t = trivial_biquandle(2)
        bad = BiquandleTable(2, ((2, 1), (2, 2)), t.down, t.upbar, t.downbar)
        with pytest.raises(ValueError):
            count_gauss("", bad)


class TestKishino:
    def test_three_fixture_codes(self):
        codes = kishino_codes()
        assert len(codes) == 3
        for code in codes:
            assert code.crossing_count == 4

    def test_halves_are_trivial_for_all_targets(self, z2z2_table):
        targets = [trivial_biquandle(3), z2z2_table,
                   make_alexander(make_scalar_module(5, 2, 3)),
                   make_alexander(make_scalar_module(7, 3, 2))]
        for code in kishino_codes():
            tokens = code.tokens
            halves = [tokens[:4], tokens[4:]]
            for half in halves:
                relabeled = ",".join(
                    f"{p}{lab}{'+' if sg > 0 else '-'}"
                    for p, lab, sg in half)
                for target in targets:
                    assert count_gauss(relabeled, target) == target.n

    def test_counts_distinguish_from_unknot(self, z2z2_table):
        # frozen by propagation + naive 4^8 agreement: all three count 16
        assert count_gauss("", z2z2_table) == 4
        for code in kishino_codes():
            diagram = build_diagram(code)
            assert count_homs(diagram, z2z2_table).count == 16


class TestReidemeister:
    def test_braid_fixtures_rederive(self):
        assert braid_closure_code(
            [(1, 1), (2, 1), (1, 1), (2, 1)]) == TREFOIL_BRAID
        assert braid_closure_code(
            [(1, 1), (1, 1), (2, 1), (1, 1)]) == TREFOIL_BRAID_R3
        assert braid_closure_code(
            [(1, -1), (2, -1), (1, -1), (2, -1)]) == MIRROR_BRAID
        assert braid_closure_code(
            [(1, -1), (1, -1), (2, -1), (1, -1)]) == MIRROR_BRAID_R3

    def test_suite_passes_on_target_set(self, move_targets):
        for target in move_targets:
            report = reidemeister_suite(target)
            assert report.passed, report.entries
            assert len(report.entries) == len(REIDEMEISTER_PAIRS)

    def test_passed_reads_the_entries(self):
        assert ReidemeisterReport((("a", 2, 2), ("b", 0, 0))).passed
        assert not ReidemeisterReport((("a", 2, 2), ("b", 1, 3))).passed

    @settings(max_examples=60, deadline=None)
    @given(codes=move_related_codes())
    def test_random_moves_keep_counts(self, move_targets, codes):
        base, grown = codes
        for target in move_targets:
            assert count_gauss(grown, target) == count_gauss(base, target)

    @settings(max_examples=30, deadline=None)
    @given(codes=move_related_codes(max_base=2, max_moves=2))
    def test_move_generator_against_naive_oracle(self, z2z2_table, codes):
        assume(codes[1].count(",") < 8)
        a, b = (build_diagram(parse_gauss_code(c)) for c in codes)
        z3 = make_alexander(make_scalar_module(3, 2, 1))
        for target in (z2z2_table, z3):
            assert naive_labeling_count(a, target) == \
                naive_labeling_count(b, target) == count_homs(b, target).count

    def test_trefoil_presentations_agree(self, z2z2_table):
        a = count_gauss(TREFOIL, z2z2_table)
        b = count_gauss(TREFOIL_BRAID, z2z2_table)
        c = count_gauss(TREFOIL_BRAID_R3, z2z2_table)
        assert a == b == c
