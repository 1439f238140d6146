"""The library's records: immutable, compared by value, and picklable; and
the CLI starts without the modules that only a record machinery or one
subcommand needs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from biquandles import (AxiomReport, BiquandleTable, Diagram,
                        EnumerationResult, FiniteModule, GaussCode,
                        HomCountReport, IsoWitness, ModuleIso,
                        ReidemeisterReport, SearchStats, Submodule,
                        SwitchReport, Transversal, brute_force_iso,
                        build_diagram, count_homs, enumerate_biquandles,
                        make_alexander, make_module, make_scalar_module,
                        make_switch_biquandle, module_isomorphisms,
                        parse_gauss_code, parse_matrix, reidemeister_suite,
                        structural_iso, transversal, verify_biquandle)
from biquandles.modules import carrier

from conftest import SWITCH_A, SWITCH_B, Z2Z2_MATRIX

ROOT = Path(__file__).resolve().parents[1]

RECORD_TYPES = (AxiomReport, BiquandleTable, Diagram, EnumerationResult,
                FiniteModule, GaussCode, HomCountReport, IsoWitness,
                ModuleIso, ReidemeisterReport, SearchStats, Submodule,
                SwitchReport, Transversal)


def one_of_each():
    """One instance of every record type, with every cached view read, so
    the shared carrier has built its read-only ``index``."""
    mod = make_module(3, 2, ((1, 1), (0, 1)), ((2, 0), (0, 2)))
    witness, stats = structural_iso(mod, mod)
    assert witness.submodule_map.pairs and witness.rep_map
    trans = transversal(mod)
    assert trans.orbit
    table = make_alexander(mod)
    switch = make_switch_biquandle(2, 2, SWITCH_A, SWITCH_B)
    assert switch.axioms.passed
    code = parse_gauss_code("O1+,U2+,O3+,U1+,O2+,U3+")
    diagram = build_diagram(code)
    z2z2 = parse_matrix(Z2Z2_MATRIX)
    iso = next(module_isomorphisms(trans.sub, trans.sub))
    assert iso.mapping
    records = [verify_biquandle(table), table, z2z2, diagram,
               enumerate_biquandles(2), mod, code,
               count_homs(diagram, z2z2, keep_assignments=True), witness,
               iso, reidemeister_suite(z2z2), stats,
               brute_force_iso(table, table)[1], trans.sub, switch, trans]
    assert {type(r) for r in records} == set(RECORD_TYPES)
    return records


class TestPickle:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_record_round_trips(self, protocol):
        for record in one_of_each():
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record, record
            if type(record) is not SearchStats:  # its prunes are a dict
                assert hash(back) == hash(record)

    def test_every_record_copies(self):
        for record in one_of_each():
            assert copy.copy(record) == record, record
            assert copy.deepcopy(record) == record, record

    def test_unpickled_module_shares_the_carrier(self):
        mod = make_scalar_module(7, 3, 5)
        mod.index_of((1,))  # builds the read-only index
        back = pickle.loads(pickle.dumps(mod))
        assert back.carrier is carrier(7, 1) is mod.carrier
        assert pickle.loads(pickle.dumps(mod.carrier)) is mod.carrier

    def test_marked_table_keeps_its_basis(self):
        table = make_alexander(make_scalar_module(5, 2, 3))
        back = pickle.loads(pickle.dumps(table))
        assert back.affine_basis == table.affine_basis == (0, 1)


class TestValueSemantics:
    def test_fields_are_read_only(self):
        for record in one_of_each():
            name = record._fields[0]
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert getattr(record, name) is value

    def test_fields_follow_the_constructor(self):
        assert Diagram._fields == ("semi_arcs", "crossings")
        assert FiniteModule._fields == ("m", "k", "s_matrix", "t_matrix")
        assert BiquandleTable._fields == ("n", "_flats")
        assert Transversal._fields == ("module", "sub", "reps")

    def test_equality_is_by_value_within_one_class(self):
        assert GaussCode(()) == GaussCode(())
        assert hash(GaussCode(())) == hash(GaussCode(()))
        assert GaussCode(()) != ReidemeisterReport(())
        assert ModuleIso(()) != AxiomReport(())
        assert Diagram(1, ()) != Diagram(2, ())

    def test_keyword_construction_and_defaults(self):
        assert SearchStats() == SearchStats(0, {}, 0)
        assert SearchStats().prunes is not SearchStats().prunes
        assert SearchStats(work=3) == SearchStats(candidates=0, work=3)
        assert HomCountReport(4, 2) == HomCountReport(4, 2, None)
        assert EnumerationResult(order=1, tables=(), classes=()) == \
            EnumerationResult(1, (), ())

    def test_repr_lists_the_compared_fields(self):
        assert repr(SearchStats()) == \
            "SearchStats(candidates=0, prunes={}, work=0)"
        assert repr(Diagram(1, ())) == "Diagram(semi_arcs=1, crossings=())"
        assert repr(make_scalar_module(3, 2, 1)) == (
            "FiniteModule(m=3, k=1, s_matrix=((2,),), t_matrix=((1,),))")
        table = BiquandleTable(1, [[1]], [[1]], [[1]], [[1]])
        assert repr(table) == \
            "BiquandleTable(n=1, _flats=((0,), (0,), (0,), (0,)))"

    def test_table_hash_is_the_field_hash(self):
        table = make_alexander(make_scalar_module(9, 2, 4))
        assert hash(table) == hash(table) == hash((9, table.flats()))
        assert "_hash" in vars(table)


def test_cli_imports_no_record_or_unused_stdlib_machinery():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, biquandles.cli; "
         "print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "biquandles.cli" in out
    for name in ("dataclasses", "inspect", "typing", "json",
                 "importlib.resources"):
        assert name not in out, name
