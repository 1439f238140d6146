import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquandles import (BiquandleTable, MatrixParseError, is_homomorphism,
                        make_alexander, make_scalar_module, parse_matrix,
                        serialize_matrix, trivial_biquandle, verify_biquandle)
from biquandles.tables import KINDS, from_pair_map

from conftest import Z2Z2_MATRIX


def blocks_strategy(max_n=4):
    """(n, up, down, upbar, downbar): random 1-based blocks."""
    def build(n, entries):
        it = iter(entries)
        block = lambda: tuple(tuple(next(it) for _ in range(n))
                              for _ in range(n))
        return n, block(), block(), block(), block()
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, n), min_size=4 * n * n,
                     max_size=4 * n * n)).map(lambda t: build(*t)))


def tables_strategy(max_n=4):
    return blocks_strategy(max_n).map(lambda args: BiquandleTable(*args))


class TestOpLookup:
    def test_trivial_first_argument(self):
        assert trivial_biquandle(3).op("up", 2, 3) == 2

    def test_published_matrix_entries(self, z2z2_table):
        assert z2z2_table.op("up", 1, 1) == 3
        assert z2z2_table.op("down", 1, 1) == 4

    # an index must be an int: True is an int subclass but no element
    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (5, 1), (1, 5),
                                     (True, 2), (2, True), (1.0, 2),
                                     (2, 2.0), ("1", 1), (None, 1)])
    def test_out_of_range(self, z2z2_table, a, b):
        with pytest.raises(ValueError, match="element index out of range"):
            z2z2_table.op("up", a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trivial_biquandle(2).op("sideways", 1, 1)


class TestTrivial:
    def test_order_one(self):
        t = trivial_biquandle(1)
        assert t.up == t.down == t.upbar == t.downbar == ((1,),)

    def test_order_three_rows(self):
        t = trivial_biquandle(3)
        for kind in ("up", "down", "upbar", "downbar"):
            assert getattr(t, kind) == ((1, 1, 1), (2, 2, 2), (3, 3, 3))

    def test_order_two_is_biquandle(self):
        assert verify_biquandle(trivial_biquandle(2)).passed

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            trivial_biquandle(0)


class TestTableValidation:
    def test_entry_out_of_range(self):
        good = ((1, 1), (2, 2))
        for kind, block, message in [
                (0, ((1, 3), (2, 2)), "up entry 3 outside 1..2"),
                (3, ((1, 1), (0, 2)), "downbar entry 0 outside 1..2"),
                (1, ((1, "x"), (2, 2)), "down entry 'x' outside 1..2")]:
            blocks = [good] * 4
            blocks[kind] = block
            with pytest.raises(ValueError, match=re.escape(message)):
                BiquandleTable(2, *blocks)
            flats = [(0, 0, 1, 1)] * 4
            flats[kind] = [e - 1 if isinstance(e, int) else e
                           for row in block for e in row]
            with pytest.raises(ValueError, match=re.escape(message)):
                BiquandleTable.from_flats(2, *flats)

    @pytest.mark.parametrize("entry,shown", [
        (2, "3"), (-1, "0"), (True, "True"), (1.0, "1.0")])
    def test_from_flats_validates_every_entry(self, entry, shown):
        # builders skip the check on their own flats; a caller's flats
        # still get it, bools and other non-ints included
        for i, kind in enumerate(KINDS):
            flats = [[0, 0, 1, 1] for _ in KINDS]
            flats[i][3] = entry
            with pytest.raises(ValueError, match=re.escape(
                    f"{kind} entry {shown} outside 1..2")):
                BiquandleTable.from_flats(2, *flats)

    @pytest.mark.parametrize("n,up,down,message", [
        (2, [-1, -1, 0, 2], [0, 0, 1, 1], "up entry 0 outside 1..2"),
        (2, [-1] * 4, [0, 0, 1, 1], "up entry 0 outside 1..2"),
        (2, [0, 0, 1, 1], [0, 0, 1, 5], "down entry 6 outside 1..2"),
        (2, [0, 0, 1], [0, 0, 1, 1], "up block must be 2x2"),
        (0, [], [], "order must be >= 1")])
    def test_from_pair_map_validates_before_inverting(self, n, up, down,
                                                      message):
        # a bad entry is named, not used as an index into the barred
        # tables or read as a non-bijective S
        with pytest.raises(ValueError, match=re.escape(message)):
            from_pair_map(n, up, down)

    @pytest.mark.parametrize("entry", [True, False])
    def test_bool_entry_refused(self, entry):
        # a bool is not an element, though True - 1 would pass as 0
        for i, kind in enumerate(KINDS):
            blocks = [((1, 1), (2, 2))] * 4
            blocks[i] = ((entry, 1), (2, 2))
            with pytest.raises(ValueError, match=re.escape(
                    f"{kind} entry {entry} outside 1..2")):
                BiquandleTable(2, *blocks)

    def test_ragged_block(self):
        with pytest.raises(ValueError, match="up block must be 2x2"):
            BiquandleTable(2, ((1,), (2, 2)), ((1, 1), (2, 2)),
                           ((1, 1), (2, 2)), ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="upbar block must be 2x2"):
            BiquandleTable.from_flats(2, (0, 0, 1, 1), (0, 0, 1, 1),
                                      (0, 0, 1), (0, 0, 1, 1))


class TestSerialization:
    def test_trivial_order_two_format(self):
        assert serialize_matrix(trivial_biquandle(2)) == \
            "2\n1 1 1 1\n2 2 2 2\n1 1 1 1\n2 2 2 2\n"

    def test_published_grid_parses_and_verifies(self, z2z2_table):
        assert z2z2_table.n == 4
        assert verify_biquandle(z2z2_table).passed

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n2\n1 1 1 1\n2 2 2 2\n# mid\n1 1 1 1\n2 2 2 2\n"
        assert parse_matrix(text) == trivial_biquandle(2)

    def test_entry_out_of_range_reports_position(self):
        bad = Z2Z2_MATRIX.replace(
            "3 1 2 4 4 1 3 2", "3 1 2 5 4 1 3 2", 1)
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(bad)
        assert err.value.line == 2 and err.value.column == 4

    def test_non_integer_entry(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("2\n1 x 1 1\n2 2 2 2\n1 1 1 1\n2 2 2 2\n")
        assert err.value.line == 2 and err.value.column == 2

    @pytest.mark.parametrize("text,line,column,message", [
        ("x\n", 1, 1, "non-integer entry 'x'"),
        ("# order\n2 x\n", 2, 2, "non-integer entry 'x'"),
        ("2 2\n", 1, 2, "order line must hold a single integer"),
        ("0\n", 1, 1, "order must be >= 1"),
    ], ids=["token", "second-token", "two-integers", "zero"])
    def test_bad_order_line(self, text, line, column, message):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    def test_wrong_row_count(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("2\n1 1 1 1\n2 2 2 2\n1 1 1 1\n")

    def test_wrong_column_count(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("2\n1 1 1\n2 2 2 2\n1 1 1 1\n2 2 2 2\n")

    def test_missing_order(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("# nothing\n")

    @settings(max_examples=60, deadline=None)
    @given(blocks_strategy())
    def test_round_trip_identity(self, args):
        n, *blocks = args
        table = BiquandleTable(n, *blocks)
        assert [table.up, table.down, table.upbar, table.downbar] == blocks
        flats = table.flats()
        assert table.flats() is flats
        assert list(flats) == [tuple(e - 1 for row in block for e in row)
                               for block in blocks]
        back = parse_matrix(serialize_matrix(table))
        assert back == table and hash(back) == hash(table)
        assert verify_biquandle(back) is verify_biquandle(table)


class TestIsHomomorphism:
    def test_identity_on_published_table(self, z2z2_table):
        assert is_homomorphism(z2z2_table, z2z2_table, (1, 2, 3, 4))

    @pytest.mark.parametrize("image", [1, 2, 3])
    def test_constant_maps_into_trivial_target(self, z2z2_table, image):
        trivial = trivial_biquandle(3)
        for src in (z2z2_table, make_alexander(make_scalar_module(3, 2, 1))):
            assert is_homomorphism(src, trivial, (image,) * src.n)

    def test_transposition_between_trivial_tables(self):
        t = trivial_biquandle(2)
        assert is_homomorphism(t, t, (2, 1))

    def test_map_out_of_range(self):
        t = trivial_biquandle(2)
        with pytest.raises(ValueError):
            is_homomorphism(t, t, (1, 3))

    def test_map_not_total(self):
        t = trivial_biquandle(2)
        with pytest.raises(ValueError):
            is_homomorphism(t, t, {1: 1})

    def test_mapping_accepted(self):
        t = trivial_biquandle(2)
        assert is_homomorphism(t, t, {1: 2, 2: 1})

    def test_rejects_non_homomorphism(self):
        alex = make_alexander(make_scalar_module(3, 2, 1))
        assert not is_homomorphism(alex, alex, (2, 1, 3))
