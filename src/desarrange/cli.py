"""
Command-line surface.

Subcommands: tables (recompute any of the seven reference tables), verify
(run the cross-check harness), runthm (evaluate a run-theorem graph spec),
seq (emit classical sequences or avoidance counts), conjecture (the
equidistribution evidence report).

Exit codes: 0 success, 1 verification mismatch or hypothesis violation,
2 usage error, 3 internal error (a defect, reported in one line).

Building the parser loads only perms and series; each subcommand imports
the layers it runs when it runs (runthm adds rungraph, tables 2..6 add
rankdp, which counts the rows, and formulas, which must meet them before
they print), so a fresh process pays for no layer it never calls.
runthm --correction reads its choices from series.CORRECTIONS, the table
that verify's worked examples read too.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .perms import (
    CAP_ENV_VAR, CapExceededError, CapSettingError, check_cap, enumerate_class, perm_to_str,
)
from .series import CORRECTIONS

STAT_TABLE_IDS = {2: "des", 3: "pk", 4: "val", 5: "dasc", 6: "ddes"}


class UsageError(Exception):
    """A bad request; main prints it as one error: line and exits 2."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def render_table1(fmt: str) -> str:
    rows = {n: [perm_to_str(p) for p in enumerate_class(n, "desarrangements")]
            for n in range(1, 6)}
    if fmt == "json":
        return json.dumps({str(n): rows[n] for n in rows}, indent=2)
    if fmt == "csv":
        lines = ["n,permutation"]
        for n in rows:
            lines.extend(f"{n},{p}" for p in rows[n])
        return "\n".join(lines) + "\n"
    lines = []
    for n in rows:
        label = " ".join(rows[n]) if rows[n] else "(none)"
        lines.append(f"D_{n}: {label}")
    return "\n".join(lines)


def row_text(row: dict) -> str:
    """A one-variable row as its polynomial, like 3t+5t^2+t^3: ascending
    powers, unit coefficients dropped, and 0 for the empty row."""
    terms = []
    for k, c in row.items():
        power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
        terms.append(power if c == 1 and power else f"{c}{power}")
    return "+".join(terms) or "0"


def render_stat_table(tag: str, rows: dict, fmt: str) -> str:
    if fmt == "text":
        lines = [f"n\tD_n^{tag}(t)"]
        lines.extend(f"{n}\t{row_text(row)}" for n, row in rows.items())
        return "\n".join(lines)
    # csv and json list every count up to the degree, constant term first
    dense = {str(n): [str(row.get(k, 0)) for k in range(max(row, default=-1) + 1)]
             for n, row in rows.items()}
    if fmt == "json":
        return json.dumps({"tag": tag, "rows": dense}, indent=2)
    lines = ["n,coefficients"]
    lines.extend(",".join([n, *counts]) for n, counts in dense.items())
    return "\n".join(lines) + "\n"


def render_table7(fmt: str, n_max: int) -> str:
    from . import patterns
    rows = []
    for pats in patterns.all_pattern_sets():
        label = patterns.patterns_label(pats) or "none"
        values = [patterns.closed_form_count(n, pats) for n in range(n_max + 1)]
        rows.append((label, values))
    if fmt == "json":
        return json.dumps({label: values for label, values in rows}, indent=2)
    if fmt == "csv":
        header = "patterns," + ",".join(f"n={n}" for n in range(n_max + 1))
        lines = [header]
        for label, values in rows:
            lines.append(",".join(['"{' + label + '}"'] + [str(v) for v in values]))
        return "\n".join(lines) + "\n"
    lines = []
    for label, values in rows:
        lines.append("{" + label + "}\t" + ",".join(str(v) for v in values))
    return "\n".join(lines)


def cmd_tables(args) -> int:
    if args.which == 1:
        _emit(render_table1(args.format))
    elif args.which in STAT_TABLE_IDS:
        from . import formulas, rankdp
        tag = STAT_TABLE_IDS[args.which]
        rows = rankdp.rows(tag, args.n_max)
        try:
            bad = next(formulas.mismatches(tag, rows), None)
        except formulas.PoleError as exc:
            bad = args.n_max, f"formula pole: {exc}"
        if bad is not None:  # the rows print only once the formula meets them
            print(f"mismatch: {tag} at n={bad[0]}: {bad[1]}", file=sys.stderr)
            return 1
        _emit(render_stat_table(tag, rows, args.format))
    else:  # argparse restricts which to 1..7
        _emit(render_table7(args.format, args.n_max))
    return 0


def cmd_verify(args) -> int:
    from . import verify
    if args.only is not None and args.only not in verify.CHECKS:  # the one usage error here
        raise UsageError(f"unknown check {args.only!r}; have {sorted(verify.CHECKS)}")
    reports = verify.verify_all(args.n_max, only=args.only)
    if args.format == "json":
        _emit(verify.render_json(reports))
    else:
        _emit(verify.render_text(reports))
    return 0 if verify.all_ok(reports) else 1


def cmd_runthm(args) -> int:
    from . import rungraph
    try:
        spec = (rungraph.builtin_spec(args.spec) if args.spec in rungraph.BUILTIN_SPECS
                else rungraph.load_spec(args.spec))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, rungraph.SpecFormatError) as exc:
        raise UsageError(f"cannot load spec: {exc}") from None
    if args.oracle:  # an over-cap run builds no pipeline and prints nothing
        check_cap(args.order)
    try:
        series = rungraph.run_theorem_egf(spec, args.i, args.j,
                                          t=args.t, s=args.s, order=args.order)
    except rungraph.HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except rungraph.EntryError as exc:
        raise UsageError(exc) from None
    correction = CORRECTIONS[args.correction](args.order)
    series = series + correction
    values = [series.egf_coeff(n) for n in range(args.order + 1)]
    if args.oracle:
        direct = [rungraph.oracle_weight_sum(spec, args.i, args.j, n, t=args.t, s=args.s)
                  + correction.egf_coeff(n) for n in range(args.order + 1)]
    _emit(",".join(map(str, values)))
    if args.oracle:
        _emit(",".join(map(str, direct)))
        if direct != values:
            _emit("oracle: MISMATCH")
            return 1
        _emit("oracle: ok")
    return 0


def cmd_seq(args) -> int:
    from . import patterns
    name = args.id.strip()
    if name.startswith("d(") and name.endswith(")"):
        try:
            pats = patterns.parse_patterns(name[2:-1])
        except ValueError as exc:
            raise UsageError(exc) from None
        values = (patterns.closed_form_count(n, pats) for n in range(args.n_max + 1))
    elif name in patterns.SEQUENCE_IDS:
        values = (patterns.sequence(name, n) for n in range(args.n_max + 1))
    else:
        raise UsageError(f"unknown sequence {name!r}; have {patterns.SEQUENCE_IDS} "
                         "or d(<patterns>)")
    for n, v in enumerate(values):  # each term is written as soon as it is computed
        sys.stdout.write(f",{v}" if n else str(v))
    sys.stdout.write("\n")
    return 0


def cmd_conjecture(args) -> int:
    from . import patterns
    report = patterns.equidistribution_report(args.n_max)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2))
    else:
        lines = [f"pix/fix equidistribution evidence for n <= {report.n_max}"]
        for e in report.entries:
            marks = []
            marks.append("counts=" + ("agree" if e.counts_match else "differ"))
            marks.append("pixfix=" + ("agree" if e.pixfix_match else "differ"))
            if e.in_counts_theorem:
                marks.append("in-count-list")
            if e.in_pixfix_conjecture:
                marks.append("conjectured")
            lines.append("{" + e.patterns + "}: " + " ".join(marks))
        lines.append(f"count list exact: {report.counts_list_exact}")
        lines.append(f"conjecture list exact: {report.pixfix_list_exact}")
        _emit("\n".join(lines))
    return 1 if report.failures() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desarrange",
        description="Exact desarrangement enumeration, generating functions, "
                    "run-theorem graphs, and pattern avoidance.")
    parser.add_argument("--cap-override", type=_non_negative_int, default=None,
                        help="raise the enumeration length cap for this invocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="recompute one of the seven reference tables")
    p.add_argument("which", type=int, choices=range(1, 8))
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--n-max", type=_non_negative_int, default=9,
                   help="last row (default 9); table 1 ignores it and always lists n = 1..5")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--n-max", type=_non_negative_int, default=9)
    p.add_argument("--only", default=None, help="run the one named check")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("runthm", help="evaluate a run-theorem graph spec")
    p.add_argument("spec", help="path to a spec JSON file, or fig1/fig2/fig3")
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("-t", type=_parse_rational, default=Fraction(1),
                   help='t value, e.g. 2 or "3/2"')
    p.add_argument("-s", type=_parse_rational, default=Fraction(1))
    p.add_argument("--order", type=_non_negative_int, default=8)
    p.add_argument("--oracle", action="store_true",
                   help="also print the enumeration cross-check")
    p.add_argument("--correction", choices=tuple(CORRECTIONS), default="none",
                   help="named correction term added to the entry")
    p.set_defaults(fn=cmd_runthm)

    p = sub.add_parser("seq", help="print a sequence as comma-separated values")
    p.add_argument("id", help="a sequence id or d(<patterns>)")
    p.add_argument("n_max", type=_non_negative_int)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("conjecture", help="equidistribution evidence report")
    p.add_argument("--n-max", type=_non_negative_int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # arguments keep the digit limit
    previous = os.environ.get(CAP_ENV_VAR)
    if args.cap_override is not None:
        os.environ[CAP_ENV_VAR] = str(args.cap_override)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact outputs may have any number of digits
    try:
        return args.fn(args)
    except (UsageError, CapExceededError, CapSettingError) as exc:
        hint = "; raise the cap with --cap-override" if isinstance(exc, CapExceededError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: exit 1 stays "mismatch or hypothesis violation"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:  # the override and the lifted limit last this one call
        sys.set_int_max_str_digits(digits)
        if previous is None:
            os.environ.pop(CAP_ENV_VAR, None)
        else:
            os.environ[CAP_ENV_VAR] = previous


if __name__ == "__main__":
    sys.exit(main())
