import hashlib
import json

import pytest

from biquandles import alexander, cli
from biquandles.cli import (EXIT_INCONSISTENT, EXIT_INPUT, EXIT_NEGATIVE,
                            EXIT_OK, main, parse_module_text)
from biquandles.errors import BiquandleError, MatrixParseError

from conftest import Z2Z2_MATRIX


@pytest.fixture
def z2z2_file(tmp_path):
    path = tmp_path / "z2z2.bq"
    path.write_text(Z2Z2_MATRIX)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_published_table_passes(self, capsys, z2z2_file):
        code, out, _ = run(capsys, "check", z2z2_file)
        assert code == EXIT_OK
        assert out == "order 4: biquandle\n"

    def test_corrupted_table_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.bq"
        path.write_text("2\n2 1 1 1\n2 2 2 2\n1 1 1 1\n2 2 2 2\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == EXIT_NEGATIVE
        assert "not a biquandle" in out
        assert "4.ii" in out

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "garbled.bq"
        path.write_text("not a matrix\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_json_mode(self, capsys, z2z2_file):
        code, out, _ = run(capsys, "check", z2z2_file, "--json")
        payload = json.loads(out)
        assert payload["schema"] == "biquandles-cli/check/1"
        assert payload["passed"] is True


class TestAlexander:
    def test_z3_matrix(self, capsys):
        code, out, _ = run(capsys, "alexander", "--zn", "3", "2", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "3 2 1 2 2 2"

    def test_trivial_z2(self, capsys):
        code, out, _ = run(capsys, "alexander", "--zn", "2", "1", "1")
        assert out == "2\n1 1 1 1\n2 2 2 2\n1 1 1 1\n2 2 2 2\n"

    def test_pipes_into_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "alexander", "--zn", "8", "3", "5")
        path = tmp_path / "alex.bq"
        path.write_text(out)
        code2, out2, _ = run(capsys, "check", str(path))
        assert code2 == EXIT_OK and "biquandle" in out2

    def test_module_file(self, capsys, tmp_path):
        path = tmp_path / "mod.txt"
        path.write_text("3 1\n2\n1\n")
        code, out, _ = run(capsys, "alexander", "--mod", str(path))
        assert code == EXIT_OK
        # canonical (lexicographic) order for file input: zero first
        assert out.splitlines()[0] == "3"

    def test_invalid_module(self, capsys):
        code, _, err = run(capsys, "alexander", "--zn", "4", "2", "1")
        assert code == EXIT_INPUT and "error" in err

    def test_oversized_group_refused(self, capsys):
        # its 10^10-entry addition table is refused, not built
        code, out, err = run(capsys, "alexander", "--zn", "100000", "1", "1")
        assert code == EXIT_INPUT and out == ""
        assert "Z_100000^1 has 100000 elements" in err

    def test_oversized_printed_order_refused(self, capsys, monkeypatch):
        # refused while the printed element order is formed, before the
        # builder is called
        monkeypatch.setattr(cli, "make_alexander", None)
        code, out, err = run(capsys, "alexander", "--zn", "1000000", "1", "1")
        assert code == EXIT_INPUT and out == ""
        assert err == ("error: Z_1000000^1 has 1000000 elements; its "
                       "addition table would exceed 1048576 entries\n")

    def test_missing_module(self, capsys):
        code, _, err = run(capsys, "alexander")
        assert code == EXIT_INPUT


class TestSwitch:
    def test_published_example(self, capsys):
        code, out, err = run(capsys, "switch", "2", "2",
                             "--A", "0 1;1 1", "--B", "1 1;0 1", "--c", "1 1")
        assert code == EXIT_OK
        assert out == Z2Z2_MATRIX
        assert "switch condition: holds" in err
        assert "axioms: pass" in err

    def test_degenerate_identity(self, capsys):
        code, _, err = run(capsys, "switch", "2", "2",
                           "--A", "1 0;0 1", "--B", "1 0;0 1")
        assert code == EXIT_INPUT
        assert "not invertible" in err

    def test_shift_length_mismatch(self, capsys):
        code, out, err = run(capsys, "switch", "5", "2", "--A", "1 0;0 1",
                             "--B", "2 0;0 2", "--c", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: shift needs 2 coordinates\n"

    def test_matrix_shape_mismatch(self, capsys):
        code, out, err = run(capsys, "switch", "5", "2", "--A", "1 0;0 1",
                             "--B", "2 0 0;0 2 0")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: B must be a 2x2 integer matrix\n"

    def test_oversized_group_refused(self, capsys, monkeypatch):
        # refused while the printed element order is formed, before the
        # builder is called
        monkeypatch.setattr(cli, "make_switch_biquandle", None)
        code, out, err = run(capsys, "switch", "2", "20",
                             "--A", "1 0;0 1", "--B", "1 0;0 1")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: Z_2^20 has 1048576 elements;")

    @pytest.mark.parametrize("m,k", [("3", "-1"), ("3", "0"), ("1", "2"),
                                     ("0", "2")])
    def test_invalid_group_refused(self, capsys, m, k):
        code, out, err = run(capsys, "switch", m, k, "--A", "1", "--B", "1")
        assert code == EXIT_INPUT and out == ""
        assert err == "error: need modulus >= 2 and rank >= 1\n"

    def test_failing_order_125_table(self, capsys, monkeypatch):
        def exhaustive_report(table):
            raise AssertionError("switch built the exhaustive axiom report")

        monkeypatch.setattr(alexander, "verify_biquandle", exhaustive_report)
        code, out, err = run(capsys, "switch", "5", "3",
                             "--A", "1 1 0;0 1 1;1 0 1",
                             "--B", "2 0 0;0 1 0;0 0 1")
        assert code == EXIT_NEGATIVE
        assert out.startswith("125\n")
        assert err == "switch condition: fails\naxioms: fail\n"

    @pytest.mark.parametrize("a,b,c,where,token", [
        ("0 1;1 x", "1 1;0 1", None, "--A: line 2, column 2", "x"),
        ("0 1;1 1", "1 x;0 1", None, "--B: line 1, column 2", "x"),
        ("0 1;1 1", "1 1;0 1", "1,y", "--c: line 1, column 2", "y"),
        ("0 1;1 1", "1 1;0 1", "1 1.5", "--c: line 1, column 2", "1.5"),
    ], ids=["A", "B", "c-comma", "c-space"])
    def test_non_integer_entry_located(self, capsys, a, b, c, where, token):
        # the option is named: a bad --B first row is not a bad --A one
        shift = () if c is None else ("--c", c)
        code, out, err = run(capsys, "switch", "2", "2", "--A", a,
                             "--B", b, *shift)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {where}: non-integer entry {token!r}\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "switch", "2", "2", "--A", "0 1;1 1",
                           "--B", "1 1;0 1", "--c", "1 1", "--json")
        payload = json.loads(out)
        assert payload["axioms_passed"] is True
        assert payload["switch_condition_holds"] is True


class TestIso:
    def test_z8_swapped_pair_non_isomorphic(self, capsys):
        code, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                           "--zn", "8", "5", "3", "--method", "both")
        assert code == EXIT_NEGATIVE
        assert out.strip() == "non-isomorphic"

    def test_self_pair_witness(self, capsys):
        code, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                           "--zn", "8", "3", "5", "--method", "both")
        assert code == EXIT_OK
        assert "isomorphic" in out
        assert "brute witness: 1 2 3 4 5 6 7 8" in out
        assert "permutation: 1 2 3 4 5 6 7 8" in out

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "iso", "--zn", "5", "2", "3",
                           "--zn", "5", "2", "3", "--method", "structural")
        assert code == EXIT_OK

    def test_json_verdicts_match_text(self, capsys):
        code, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                           "--zn", "8", "5", "3", "--json")
        payload = json.loads(out)
        assert code == EXIT_NEGATIVE
        assert payload["isomorphic"] is False
        assert payload["methods"]["brute"]["isomorphic"] is False
        assert payload["methods"]["structural"]["isomorphic"] is False

    def test_json_counts_missing_submodule_isomorphism(self, capsys):
        # no isomorphism of the (1-st) submodules intertwines s and s', so
        # the structural search stops before any coset is tried
        code, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                           "--zn", "8", "5", "3", "--json")
        structural = json.loads(out)["methods"]["structural"]
        assert code == EXIT_NEGATIVE
        assert structural["prunes"]["submodule"] == 1
        assert structural["candidates"] == 0

    def test_json_witness_payload(self, capsys):
        code, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                           "--zn", "8", "3", "5", "--json")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["methods"]["brute"]["witness"] == list(range(1, 9))
        structural = payload["methods"]["structural"]["witness"]
        assert structural["permutation"] == list(range(1, 9))
        assert structural["rep_map"] == [[[0], [0]], [[1], [1]]]

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # force an artificial verdict conflict to exercise the alarm path
        monkeypatch.setattr(cli, "structural_iso",
                            lambda a, b: (None, None))

        class FakeStats:
            candidates = 0
            prunes = {}
            work = 0

        monkeypatch.setattr(
            cli, "brute_force_iso",
            lambda a, b: (tuple(range(1, a.n + 1)), FakeStats()))
        monkeypatch.setattr(cli, "structural_iso",
                            lambda a, b: (None, FakeStats()))
        code, out, _ = run(capsys, "iso", "--zn", "3", "2", "1",
                           "--zn", "3", "2", "1", "--method", "both")
        assert code == EXIT_INCONSISTENT
        assert "INTERNAL INCONSISTENCY" in out

    def test_mixed_module_options_keep_their_order(self, capsys, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "z3.txt"
        path.write_text("3 1\n2\n1\n")
        seen = []
        decide = cli.structural_iso

        def spy(a, b):
            seen.append((a.m, b.m))
            return decide(a, b)

        monkeypatch.setattr(cli, "structural_iso", spy)
        for modules in (("--zn", "5", "2", "3", "--mod", str(path)),
                        ("--mod", str(path), "--zn", "5", "2", "3")):
            code, _, _ = run(capsys, "iso", *modules, "--method",
                             "structural")
            assert code == EXIT_NEGATIVE
        assert seen == [(5, 3), (3, 5)]

    def test_needs_two_modules(self, capsys):
        code, _, err = run(capsys, "iso", "--zn", "3", "2", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("pair,brute", [
        (("8", "3", "5", "8", "7", "5"),
         {"candidates": 3, "isomorphic": True, "witness": [1, 2, 7, 8, 5, 6,
                                                           3, 4],
          "prunes": {"conflict": 0, "profile": 1, "used": 0}, "work": 144}),
        (("7", "2", "3", "7", "2", "5"),
         {"candidates": 14, "isomorphic": False,
          "prunes": {"conflict": 0, "profile": 7, "used": 6}, "work": 124}),
    ])
    def test_json_brute_counters_frozen(self, capsys, pair, brute):
        # the map search on up and down: every counter, not just the verdict
        code, out, _ = run(capsys, "iso", "--zn", *pair[:3], "--zn",
                           *pair[3:], "--method", "brute", "--json")
        assert json.loads(out)["methods"]["brute"] == brute
        assert code == (EXIT_OK if brute["isomorphic"] else EXIT_NEGATIVE)


class TestCount:
    def test_unknot(self, capsys, z2z2_file):
        code, out, _ = run(capsys, "count", "--gauss", "",
                           "--target", z2z2_file)
        assert code == EXIT_OK and out.strip() == "4"

    def test_kink(self, capsys, z2z2_file):
        code, out, _ = run(capsys, "count", "--gauss", "O1+,U1+",
                           "--target", z2z2_file)
        assert out.strip() == "4"

    def test_kishino_from_file(self, capsys, z2z2_file, tmp_path):
        path = tmp_path / "kish.gauss"
        path.write_text("# classic kishino\nO1+,U2-,U1+,O2-,U3-,O4+,O3-,U4+\n")
        code, out, _ = run(capsys, "count", "--gauss-file", str(path),
                           "--target", z2z2_file)
        assert out.strip() == "16"

    def test_gauss_flag_accepts_file_path(self, capsys, z2z2_file, tmp_path):
        path = tmp_path / "kink.gauss"
        path.write_text("O1+,U1+\n")
        code, out, _ = run(capsys, "count", "--gauss", str(path),
                           "--target", z2z2_file)
        assert out.strip() == "4"

    def test_bad_code(self, capsys, z2z2_file):
        code, _, err = run(capsys, "count", "--gauss", "O1+,U1-",
                           "--target", z2z2_file)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("both", [True, False])
    def test_exactly_one_code_input(self, capsys, z2z2_file, tmp_path,
                                    both):
        # given both, the file's kink used to win silently over --gauss
        path = tmp_path / "kink.gauss"
        path.write_text("O1+,U1+\n")
        codes = (("--gauss", "O1-,U2-,O3-,U1-,O2-,U3-", "--gauss-file",
                  str(path)) if both else ())
        code, out, err = run(capsys, "count", *codes, "--target", z2z2_file)
        assert code == EXIT_INPUT and out == ""
        assert err == ("error: pass exactly one of --gauss CODE_OR_FILE "
                       "and --gauss-file FILE\n")

    def test_json(self, capsys, z2z2_file):
        code, out, _ = run(capsys, "count", "--gauss", "", "--json",
                           "--target", z2z2_file)
        payload = json.loads(out)
        assert payload["count"] == 4 and payload["semi_arcs"] == 1


class TestOrbits:
    def test_z8_listing(self, capsys):
        code, out, _ = run(capsys, "orbits", "--zn", "8", "3", "5")
        assert code == EXIT_OK
        assert "(1-st) submodule: {0, 2, 4, 6}" in out
        assert "transversal: {0, 1}" in out
        assert "s-orbit of transversal: {0, 1, 3}" in out

    def test_z3_zero_transversal(self, capsys):
        code, out, _ = run(capsys, "orbits", "--zn", "3", "2", "1")
        assert "transversal: {0}" in out

    def test_z8_53_fixture(self, capsys):
        # frozen listing for the swapped-parameter module
        code, out, _ = run(capsys, "orbits", "--zn", "8", "5", "3")
        assert "(1-st) submodule: {0, 2, 4, 6}" in out
        assert "Ker(1-s): {0, 2, 4, 6}" in out
        assert "s-orbit of transversal: {0, 1, 5}" in out

    # frozen output for a rank-2 module file: (1-st)M has 2 elements, 8
    # cosets, and Ker(1-s) and the orbit are proper subsets
    @pytest.mark.parametrize("flags,digest", [
        ((),
         "3e3ea91225618feb5b6f5732b7a86c00ab9402c8ea032a8356f791b3dbe4fdfc"),
        (("--json",),
         "e61c1d9241ad57654843fa88606706635cb603bef7e6ffcd5631e76c879ce567"),
    ])
    def test_rank_two_file_frozen(self, capsys, tmp_path, flags, digest):
        path = tmp_path / "z4sq.mod"
        path.write_text("4 2\n0 1\n1 2\n0 3\n3 2\n")
        code, out, _ = run(capsys, "orbits", "--mod", str(path), *flags)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnumerate:
    def test_order_one(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1")
        assert code == EXIT_OK
        assert "biquandles of order 1: 1" in out

    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert "biquandles of order 2: 2" in out
        assert "isomorphism classes: 2" in out

    def test_order_five_refused(self, capsys):
        code, _, err = run(capsys, "enumerate", "5")
        assert code == EXIT_INPUT
        assert "orders 1..4" in err

    def test_order_three_json_frozen(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "92fb1cf4552c382e37ab04d4ba7e321575d324a814692bf9b9cf24d1be92abf5")


class TestDeterminism:
    def test_byte_stable_outputs(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "iso", "--zn", "8", "3", "5",
                            "--zn", "8", "5", "3", "--json")
            outputs.add(out)
        assert len(outputs) == 1


class TestModuleFileParsing:
    def test_matrix_form(self):
        mod = parse_module_text("# comment\n2 2\n0 1\n1 1\n1 1\n1 0\n")
        assert mod.m == 2 and mod.k == 2

    def test_bad_head(self):
        with pytest.raises(BiquandleError):
            parse_module_text("3\n2\n1\n")

    def test_bad_row_count(self):
        with pytest.raises(BiquandleError):
            parse_module_text("3 1\n2\n")

    @pytest.mark.parametrize("text,message", [
        ("2 2\n0 1\n1 1\n1 1\n1 x\n",
         "line 5, column 2: non-integer entry 'x'"),
        ("# s then t\n2 1\n1\n\n0.5  # t\n",
         "line 5, column 1: non-integer entry '0.5'"),
        ("2 2\n0 1\n1\n1 1\n1 0\n", "line 3: expected 2 entries, found 1"),
        ("2 2\n0 1\n1 1 0\n1 1\n1 0\n",
         "line 3: expected 2 entries, found 3"),
        ("2 2\n0 1\n1 1\n1 1\n", "line 4: expected 4 matrix rows, found 3"),
        ("2 1\n1\n1\n1\n", "line 4: expected 2 matrix rows, found 3"),
        ("2 1\n", "line 1: expected 2 matrix rows, found 0"),
        ("# no head\n\n3\n2\n1\n", "line 3: first line must be 'm k'"),
        ("3 1 1\n2\n1\n", "line 1: first line must be 'm k'"),
        ("3 k\n2\n1\n", "line 1, column 2: non-integer entry 'k'"),
        ("# nothing\n", "line 1: first line must be 'm k'"),
        ("2 -1\n", "need modulus >= 2 and rank >= 1"),
    ], ids=["token", "scalar-token", "short-row", "long-row", "few-rows",
            "many-rows", "no-rows", "short-head", "long-head", "head-token",
            "empty", "negative-rank"])
    def test_malformed_file_located(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.mod"
        path.write_text(text)
        code, out, err = run(capsys, "alexander", "--mod", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {message}\n"

    def test_oversized_group_refused_before_rows(self, capsys, tmp_path):
        path = tmp_path / "big.mod"
        path.write_text("2 11\n")
        code, out, err = run(capsys, "alexander", "--mod", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: Z_2^11 has 2048 elements;")

    def test_parse_error_carries_position(self):
        with pytest.raises(MatrixParseError) as err:
            parse_module_text("3 1\n2\nt\n")
        assert (err.value.line, err.value.column) == (3, 1)
