"""Command-line front end.

Subcommands: check, alexander, switch, iso, count, orbits, enumerate.
Exit codes: 0 affirmative/success, 1 negative verdict, 2 input error,
3 internal inconsistency (the two isomorphism methods disagreeing, which
must never happen on valid input).  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alexander import make_alexander, make_switch_biquandle
from .axioms import satisfies_axioms, verify_biquandle
from .errors import BiquandleError, MatrixParseError
from .isomorphism import (brute_force_iso, enumerate_biquandles,
                          format_witness, structural_iso, witness_to_dict)
from .knot import build_diagram, count_homs, parse_gauss_code
from .modules import (FiniteModule, _check_size, counting_element_order,
                      format_elem, kernel_one_minus_s, make_module,
                      make_scalar_module, transversal)
from .tables import _content_lines, _int_rows, parse_matrix, serialize_matrix

SCHEMA_PREFIX = "biquandles-cli"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _add_module_args(sub, repeatable_help=""):
    # both options append to one list, in command-line order
    sub.add_argument(
        "--zn", nargs=3, type=int, metavar=("M", "S", "T"),
        action="append", dest="modules",
        help="scalar module Z_m with parameters s, t" + repeatable_help)
    sub.add_argument(
        "--mod", metavar="FILE", action="append", dest="modules",
        help="module description file" + repeatable_help)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_module_text(text: str) -> FiniteModule:
    """Module description: 'm k' line, k rows for s action, k rows for t;
    ``MatrixParseError`` names the line where a malformed one goes wrong."""
    rows = list(_int_rows(text))
    ln, head = rows[0] if rows else (1, ())
    if len(head) != 2:
        raise MatrixParseError("first line must be 'm k'", ln)
    m, k = head
    _check_size(m, k)
    if len(rows) != 2 * k + 1:
        raise MatrixParseError(f"expected {2 * k} matrix rows, found "
                               f"{len(rows) - 1}", rows[-1][0])
    for ln, row in rows[1:]:
        if len(row) != k:
            raise MatrixParseError(
                f"expected {k} entries, found {len(row)}", ln)
    body = [row for _, row in rows[1:]]
    return make_module(m, k, body[:k], body[k:])


def _load_module(spec) -> FiniteModule:
    """Module of a --mod path (a str) or of --zn's [M, S, T]."""
    if isinstance(spec, str):
        return parse_module_text(_read_text(spec))
    return make_scalar_module(*spec)


def _module_table(module: FiniteModule):
    """CLI tables use the printed-matrix element order (zero last)."""
    return make_alexander(
        module, counting_element_order(module.m, module.k))


def _fmt_set(elems):
    return "{" + ", ".join(map(format_elem, elems)) + "}"


def _emit_json(payload, command):
    payload = {"schema": f"{SCHEMA_PREFIX}/{command}/1", **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_check(args) -> int:
    table = parse_matrix(_read_text(args.matrix))
    report = verify_biquandle(table)
    if args.json:
        _emit_json({
            "order": table.n,
            "passed": report.passed,
            "violations": [[cid, list(wit)] for cid, wit in report.violations],
        }, "check")
    else:
        print(f"order {table.n}: " +
              ("biquandle" if report.passed else "not a biquandle"))
        for cid, wit in report.violations:
            print(f"violated axiom {cid} at {wit}")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _single_module(args, command) -> FiniteModule:
    specs = args.modules or []
    if len(specs) != 1:
        raise BiquandleError(
            f"{command} needs exactly one module (--zn or --mod)")
    return _load_module(specs[0])


def cmd_alexander(args) -> int:
    table = _module_table(_single_module(args, "alexander"))
    if args.json:
        _emit_json({"order": table.n,
                    "matrix": serialize_matrix(table).rstrip("\n")},
                   "alexander")
    else:
        sys.stdout.write(serialize_matrix(table))
    return EXIT_OK


def _option_rows(option: str, text: str) -> list[list[int]]:
    """A switch option's integer rows; a bad token's error names it."""
    try:
        return [row for _, row in _int_rows(text)]
    except MatrixParseError as exc:
        raise BiquandleError(f"{option}: {exc}") from None


def cmd_switch(args) -> int:
    # rows split on ';' or newlines; the switch builder checks the shape
    a_mat, b_mat = (_option_rows(option, text.replace(";", "\n"))
                    for option, text in (("--A", args.A), ("--B", args.B)))
    shift = None
    if args.c is not None:
        rows = _option_rows("--c", args.c.replace(",", " "))
        shift = tuple(v for row in rows for v in row)
    report = make_switch_biquandle(
        args.m, args.k, a_mat, b_mat, shift,
        counting_element_order(args.m, args.k))
    passed = satisfies_axioms(report.table)
    if args.json:
        _emit_json({
            "order": report.table.n,
            "matrix": serialize_matrix(report.table).rstrip("\n"),
            "switch_condition_holds": report.switch_condition_holds,
            "axioms_passed": passed,
        }, "switch")
    else:
        sys.stdout.write(serialize_matrix(report.table))
        print("switch condition: " +
              ("holds" if report.switch_condition_holds else "fails"),
              file=sys.stderr)
        print("axioms: " + ("pass" if passed else "fail"), file=sys.stderr)
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_iso(args) -> int:
    specs = args.modules or []
    if len(specs) != 2:
        raise BiquandleError("iso needs exactly two modules (--zn/--mod)")
    mod_a, mod_b = (_load_module(s) for s in specs)
    results = {}
    if args.method in ("brute", "both"):
        table_a, table_b = make_alexander(mod_a), make_alexander(mod_b)
        witness, stats = brute_force_iso(table_a, table_b)
        results["brute"] = (witness is not None, witness, stats)
    if args.method in ("structural", "both"):
        witness, stats = structural_iso(mod_a, mod_b)
        results["structural"] = (witness is not None, witness, stats)

    verdicts = {found for found, _, _ in results.values()}
    inconsistent = len(verdicts) > 1
    isomorphic = verdicts == {True}

    if args.json:
        payload = {"isomorphic": None if inconsistent else isomorphic,
                   "inconsistent": inconsistent, "methods": {}}
        for name, (found, witness, stats) in sorted(results.items()):
            entry = {"isomorphic": found,
                     "candidates": stats.candidates,
                     "prunes": dict(sorted(stats.prunes.items())),
                     "work": stats.work}
            if witness is not None:
                entry["witness"] = (list(witness) if name == "brute"
                                    else witness_to_dict(witness))
            payload["methods"][name] = entry
        _emit_json(payload, "iso")
    else:
        if inconsistent:
            print("INTERNAL INCONSISTENCY: methods disagree")
        else:
            print("isomorphic" if isomorphic else "non-isomorphic")
        for name, (found, witness, _) in sorted(results.items()):
            if witness is None:
                continue
            if name == "brute":
                print(f"{name} witness: " + " ".join(map(str, witness)))
            else:
                print(f"{name} witness:")
                print(format_witness(witness))
    if inconsistent:
        return EXIT_INCONSISTENT
    return EXIT_OK if isomorphic else EXIT_NEGATIVE


def _single_code_from_file(path):
    lines = [line for _, line in _content_lines(_read_text(path))]
    if len(lines) != 1:
        raise BiquandleError(
            "gauss file must hold exactly one code for counting")
    return lines[0]


def cmd_count(args) -> int:
    if (args.gauss is None) == (args.gauss_file is None):
        raise BiquandleError(
            "pass exactly one of --gauss CODE_OR_FILE and --gauss-file FILE")
    if args.gauss_file is not None:
        text = _single_code_from_file(args.gauss_file)
    elif args.gauss and os.path.exists(args.gauss):
        text = _single_code_from_file(args.gauss)
    else:
        text = args.gauss
    diagram = build_diagram(parse_gauss_code(text))
    target = parse_matrix(_read_text(args.target))
    report = count_homs(diagram, target)
    if args.json:
        _emit_json({"count": report.count, "target_order": report.target_order,
                    "semi_arcs": diagram.semi_arcs}, "count")
    else:
        print(report.count)
    return EXIT_OK


def cmd_orbits(args) -> int:
    module = _single_module(args, "orbits")
    trans = transversal(module)
    sub, ker = trans.sub, kernel_one_minus_s(module)
    if args.json:
        _emit_json({
            "module": module.describe(),
            "one_minus_st_submodule": [list(e) for e in sub.elements],
            "kernel_one_minus_s": [list(e) for e in ker.elements],
            "transversal": [list(e) for e in trans.reps],
            "s_orbit_of_transversal": [list(e) for e in trans.orbit],
        }, "orbits")
    else:
        print(f"module: {module.describe()}")
        print(f"(1-st) submodule: {_fmt_set(sub.elements)}")
        print(f"Ker(1-s): {_fmt_set(ker.elements)}")
        print(f"transversal: {_fmt_set(trans.reps)}")
        print(f"s-orbit of transversal: {_fmt_set(trans.orbit)}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    result = enumerate_biquandles(args.n)
    if args.json:
        _emit_json({
            "order": args.n,
            "count": len(result.tables),
            "isomorphism_classes": [list(c) for c in result.classes],
            "matrices": [serialize_matrix(t).rstrip("\n")
                         for t in result.tables],
        }, "enumerate")
    else:
        for table in result.tables:
            sys.stdout.write(serialize_matrix(table))
            print()
        print(f"biquandles of order {args.n}: {len(result.tables)}")
        print(f"isomorphism classes: {len(result.classes)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquandles",
        description="Finite biquandle toolkit: axiom checking, module "
                    "biquandle construction, isomorphism, and counting "
                    "invariants.")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--json", action="store_true",
                         help="emit a schema-versioned JSON object")

    s = subs.add_parser("check", help="verify the biquandle axioms")
    s.add_argument("matrix", help="matrix file ('-' for stdin)")
    common(s)
    s.set_defaults(func=cmd_check)

    s = subs.add_parser("alexander",
                        help="print the module biquandle matrix")
    _add_module_args(s)
    common(s)
    s.set_defaults(func=cmd_alexander)

    s = subs.add_parser("switch",
                        help="build an affine switch biquandle")
    s.add_argument("m", type=int, help="modulus")
    s.add_argument("k", type=int, help="rank")
    s.add_argument("--A", required=True, metavar="MAT",
                   help="k x k matrix, rows ';'-separated, e.g. '0 1;1 1'")
    s.add_argument("--B", required=True, metavar="MAT")
    s.add_argument("--c", metavar="VEC", default=None,
                   help="constant shift, e.g. '1 1' (default zero)")
    common(s)
    s.set_defaults(func=cmd_switch)

    s = subs.add_parser("iso", help="decide biquandle isomorphism")
    _add_module_args(s, " (give two)")
    s.add_argument("--method", choices=("brute", "structural", "both"),
                   default="both")
    common(s)
    s.set_defaults(func=cmd_iso)

    s = subs.add_parser("count", help="counting invariant of a Gauss code")
    s.add_argument("--gauss", metavar="CODE_OR_FILE", default=None,
                   help="signed OU Gauss code (empty string = unknot), or "
                        "a path to a file holding one code")
    s.add_argument("--gauss-file", metavar="FILE", default=None,
                   help="file holding one Gauss code (never parsed as a "
                        "literal code)")
    s.add_argument("--target", required=True, metavar="FILE",
                   help="target biquandle matrix file")
    common(s)
    s.set_defaults(func=cmd_count)

    s = subs.add_parser("orbits",
                        help="submodule, kernel, transversal, and s-orbit")
    _add_module_args(s)
    common(s)
    s.set_defaults(func=cmd_orbits)

    s = subs.add_parser("enumerate", help="all biquandles of a small order")
    s.add_argument("n", type=int)
    common(s)
    s.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BiquandleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
