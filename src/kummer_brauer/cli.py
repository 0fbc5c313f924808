"""Command-line interface.

Subcommands: analyze (pair -> report), search (family generator), frobenius
(trace-table dump), matrix (residue matrix and its nine-line extension),
validate-criterion (the GL2 subgroup oracle).  JSON goes to stdout; exit
code 0 on any completed analysis, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import FactorBudgetError
from .curves import frobenius_table
from .gl2 import ORACLE_ELLS, validate_surjectivity_criterion
from .report import (
    DEFAULT_BOUND,
    DEFAULT_ELL_MAX,
    MAX_BOUND,
    InputError,
    analyze,
    parse_curve_record,
    parse_pair_spec,
    render_report,
    search_family,
    stable_json,
)
from .residues import (
    ALGEBRA_LABELS,
    DegenerateCurveError,
    extend_residue_matrix,
    kernel_dimension,
    residue_matrix,
)

# a factor() call that spends its rho budget takes 0.9 s at 40 digits, 4 s at 200
MATRIX_MAX_DIGITS = 40


def _parse_curve_flag(text: str, six_torsion: str | None = None) -> dict:
    """The curve record a pair file holds, from the inline syntax 'rt2:a,b'
    or 'w:a1,a2,a3,a4,a6' ('num/den' ok) and a six-torsion point 'x,y'."""
    kind, _, rest = text.partition(":")
    parts = [p.strip() for p in rest.split(",")]
    if kind == "rt2" and len(parts) == 2:
        rec: dict = {"rt2": {"a": parts[0], "b": parts[1]}}
    elif kind == "w":
        rec = {"weierstrass": parts}
    else:
        raise InputError(f"unknown curve syntax {text!r}; use rt2:a,b or w:a1,..,a6")
    if six_torsion:
        rec["six_torsion"] = six_torsion.split(",")
    return rec


def _cmd_analyze(args) -> int:
    inline = (args.first, args.second, args.six_torsion_first, args.six_torsion_second)
    if args.pair:
        if any(inline):
            raise InputError("--pair takes no --first, --second or --six-torsion-* flags")
        try:
            with open(args.pair, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as e:  # not UTF-8, not JSON, or an int past int()'s digit limit
            raise InputError(f"{args.pair}: {e}") from e
    elif args.first and args.second:
        data = {"first": _parse_curve_flag(args.first, args.six_torsion_first),
                "second": _parse_curve_flag(args.second, args.six_torsion_second)}
    else:
        raise InputError("give --pair FILE or both --first and --second")
    # explicit flags override the file, absent flags leave it alone
    options = {"bound": args.bound_B, "ell_max": args.ell_max}
    if args.odd_primes is not None:
        try:
            options["odd_primes"] = [int(x) for x in args.odd_primes.split(",") if x]
        except ValueError as e:
            raise InputError(f"--odd-primes needs comma-separated integers: {e}") from e
    if isinstance(data, dict):  # parse_pair_spec rejects anything else
        data.update((k, v) for k, v in options.items() if v is not None)
    report = analyze(parse_pair_spec(data))
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_search(args) -> int:
    pairs = search_family(args.count, args.seed)
    if args.format == "text":
        for p in pairs:
            a, b = p.first.rt2_raw
            a2, b2 = p.second.rt2_raw
            sys.stdout.write(f"(a, b, a', b') = ({a}, {b}, {a2}, {b2})\n")
    else:
        sys.stdout.write(stable_json([p.echo() for p in pairs]) + "\n")
    return 0


def _cmd_frobenius(args) -> int:
    if not 1 <= args.bound_B <= MAX_BOUND:
        raise InputError(f"bound must be an integer in [1, {MAX_BOUND}]")
    curve = parse_curve_record(_parse_curve_flag(args.curve))
    table = frobenius_table(curve.lw, args.bound_B)
    if args.format == "text":
        sys.stdout.write(f"curve {table.curve}, good primes up to {table.bound}\n")
        for p, t in table.entries:
            sys.stdout.write(f"  a_{p} = {t}\n")
    else:
        sys.stdout.write(stable_json({
            "curve": table.curve,
            "bound": table.bound,
            "entries": {str(p): t for p, t in table.entries},
        }) + "\n")
    return 0


def _cmd_matrix(args) -> int:
    try:
        a, b, a2, b2 = (int(x) for x in args.pair.split(","))
    except ValueError as e:
        raise InputError("matrix needs --pair a,b,a',b'") from e
    if any(abs(v) >= 10**MATRIX_MAX_DIGITS for v in (a, b, a2, b2)):
        raise InputError(f"matrix takes a, b, a', b' of at most {MATRIX_MAX_DIGITS} digits")
    try:
        m = residue_matrix(a, b, a2, b2)
    except DegenerateCurveError as e:
        raise InputError(str(e)) from e
    ext = extend_residue_matrix(m)
    d, basis = kernel_dimension(m)
    try:
        ext_rows = ext.representative_rows()
    except FactorBudgetError as e:
        raise InputError("coefficients too large to display square classes; "
                         "analyze does not need them") from e
    # the extension appends its five columns to the four of m
    rows = [row[:m.ncols] for row in ext_rows]
    if args.format == "text":
        sys.stdout.write(f"residue matrix for (a, b, a', b') = ({a}, {b}, {a2}, {b2})\n")
        sys.stdout.write("columns: " + ", ".join(m.columns) + "\n")
        for label, row in zip(ALGEBRA_LABELS, rows):
            sys.stdout.write(f"  {label:9s} " + " ".join(f"{v:6d}" for v in row) + "\n")
        sys.stdout.write("nine-line extension columns: " + ", ".join(ext.columns) + "\n")
        for label, row in zip(ALGEBRA_LABELS, ext_rows):
            sys.stdout.write(f"  {label:9s} " + " ".join(f"{v:6d}" for v in row) + "\n")
        sys.stdout.write(f"d = {d}; kernel basis: {basis}\n")
    else:
        sys.stdout.write(stable_json({
            "pair": [a, b, a2, b2],
            "columns": list(m.columns),
            "rows": rows,
            "extended_columns": list(ext.columns),
            "extended_rows": ext_rows,
            "d": d,
            "kernel_basis": [list(s) for s in basis],
        }) + "\n")
    return 0


def _cmd_validate_criterion(args) -> int:
    result = validate_surjectivity_criterion(args.ell)
    payload = {
        "ell": result.ell,
        "group_order": result.group_order,
        "subgroup_count": result.subgroup_count,
        "offending_proper_subgroups": list(result.offending_proper_subgroups),
        "full_group_witnesses": {
            "nonsplit": result.full_group.has_nonsplit,
            "split": result.full_group.has_split,
            "generic": result.full_group.has_generic,
        },
        "notes": list(result.notes),
        "passed": result.passed,
    }
    if args.format == "text":
        sys.stdout.write(
            f"ell = {result.ell}: {'PASS' if result.passed else 'FAIL'} "
            f"({result.subgroup_count} subgroups of a group of order "
            f"{result.group_order})\n")
        for n in result.notes:
            sys.stdout.write(f"  note: {n}\n")
    else:
        sys.stdout.write(stable_json(payload) + "\n")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer-brauer",
        description="Brauer group reports for Kummer surfaces of E x E' over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a curve pair")
    p.add_argument("--pair", help="JSON file with a pair spec")
    p.add_argument("--first", help="inline curve, rt2:a,b or w:a1,a2,a3,a4,a6")
    p.add_argument("--second", help="inline curve")
    p.add_argument("--six-torsion-first", help="x,y point of order 6 on the first curve")
    p.add_argument("--six-torsion-second", help="x,y point of order 6 on the second curve")
    p.add_argument("--odd-primes", help="comma-separated odd primes for congruence "
                                        "evidence; overrides the pair file's")
    p.add_argument("--bound-B", type=int,
                   help="prime bound for trace sampling; overrides the pair "
                        f"file's (default {DEFAULT_BOUND})")
    p.add_argument("--ell-max", type=int,
                   help="largest ell for surjectivity sampling; overrides the "
                        f"pair file's (default {DEFAULT_ELL_MAX})")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="generate family curve pairs")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="number of family pairs skipped before the first")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("frobenius", help="dump a Frobenius trace table")
    p.add_argument("--curve", required=True, help="rt2:a,b or w:a1,a2,a3,a4,a6")
    p.add_argument("--bound-B", type=int, default=DEFAULT_BOUND,
                   help="largest prime in the table (default %(default)s)")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("matrix", help="print the residue matrix and its extension")
    p.add_argument("--pair", required=True, help="a,b,a',b'")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("validate-criterion", help="run the GL2 subgroup oracle")
    p.add_argument("--ell", type=int, required=True, choices=ORACLE_ELLS)
    p.set_defaults(func=_cmd_validate_criterion)

    for p in sub.choices.values():  # every subcommand writes json or text
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
