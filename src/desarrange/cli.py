"""
Command-line surface.

Subcommands: tables (recompute any of the seven reference tables), verify
(run the cross-check harness), runthm (evaluate a run-theorem graph spec),
seq (emit classical sequences or avoidance counts), conjecture (the
equidistribution evidence report).

Exit codes: 0 success, 1 verification mismatch or hypothesis violation,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formulas, patterns, rungraph, verify
from .perms import CAP_ENV_VAR, CapExceededError, enumerate_class, perm_to_str
from .series import cosh_even, format_rational

STAT_TABLE_IDS = {2: "des", 3: "pk", 4: "val", 5: "dasc", 6: "ddes"}


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


def render_stat_table(which: int, fmt: str, n_max: int) -> str:
    tag = STAT_TABLE_IDS[which]
    table = formulas.distribution_polynomials(tag, n_max)
    if fmt == "json":
        return json.dumps(table.to_json(), indent=2)
    if fmt == "csv":
        return table.to_csv()
    lines = [f"n\tD_n^{tag}(t)"]
    for n in sorted(table.rows):
        lines.append(f"{n}\t{table.rows[n].to_text()}")
    return "\n".join(lines)


def render_table7(fmt: str, n_max: int) -> str:
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
        _emit(render_stat_table(args.which, args.format, args.n_max))
    else:  # argparse restricts which to 1..7
        _emit(render_table7(args.format, args.n_max))
    return 0


def cmd_verify(args) -> int:
    try:
        reports = verify.verify_all(args.n_max, only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(verify.render_json(reports))
    else:
        _emit(verify.render_text(reports))
    return 0 if verify.all_ok(reports) else 1


def _load_spec(ref: str) -> rungraph.RunGraphSpec:
    if ref in rungraph.BUILTIN_SPECS:
        return rungraph.builtin_spec(ref)
    return rungraph.load_spec(ref)


def cmd_runthm(args) -> int:
    try:
        spec = _load_spec(args.spec)
    except (OSError, json.JSONDecodeError, rungraph.SpecFormatError) as exc:
        print(f"error: cannot load spec: {exc}", file=sys.stderr)
        return 2
    try:
        series = rungraph.run_theorem_egf(spec, args.i, args.j,
                                          t=args.t, s=args.s, order=args.order)
    except rungraph.HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.correction == "cosh":
        series = series + cosh_even(4, args.order)
    elif args.correction == "one":
        series = series + 1
    values = [series.egf_coeff(n) for n in range(args.order + 1)]
    _emit(",".join(format_rational(v) for v in values))
    if args.oracle:
        direct = []
        try:
            for n in range(args.order + 1):
                v = rungraph.oracle_weight_sum(spec, args.i, args.j, n,
                                               t=args.t, s=args.s)
                if args.correction == "cosh":
                    v += cosh_even(4, args.order).egf_coeff(n)
                elif args.correction == "one" and n == 0:
                    v += 1
                direct.append(v)
        except CapExceededError as exc:
            print(f"error: oracle needs --cap-override: {exc}", file=sys.stderr)
            return 2
        _emit(",".join(format_rational(v) for v in direct))
        if direct != values:
            _emit("oracle: MISMATCH")
            return 1
        _emit("oracle: ok")
    return 0


def cmd_seq(args) -> int:
    name = args.id.strip()
    if name.startswith("d(") and name.endswith(")"):
        try:
            pats = patterns.parse_patterns(name[2:-1])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        values = [patterns.closed_form_count(n, pats) for n in range(args.n_max + 1)]
    elif name in patterns.SEQUENCE_IDS:
        values = [patterns.sequence(name, n) for n in range(args.n_max + 1)]
    else:
        print(f"error: unknown sequence {name!r}; have {patterns.SEQUENCE_IDS} "
              "or d(<patterns>)", file=sys.stderr)
        return 2
    _emit(",".join(str(v) for v in values))
    return 0


def cmd_conjecture(args) -> int:
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
    listed_ok = all(e.counts_match for e in report.entries if e.in_counts_theorem) \
        and all(e.pixfix_match for e in report.entries if e.in_pixfix_conjecture)
    if args.n_max >= verify.EQUIDISTRIBUTION_RESOLVED_AT:
        listed_ok = listed_ok and report.counts_list_exact and report.pixfix_list_exact
    return 0 if listed_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desarrange",
        description="Exact desarrangement enumeration, generating functions, "
                    "run-theorem graphs, and pattern avoidance.")
    parser.add_argument("--cap-override", type=int, default=None,
                        help="raise the enumeration length cap for this invocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="recompute one of the seven reference tables")
    p.add_argument("which", type=int, choices=range(1, 8))
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--n-max", type=int, default=9)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--only", default=None, help=f"one of {sorted(verify.CHECKS)}")
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
    p.add_argument("--correction", choices=("cosh", "one", "none"), default="none",
                   help="named correction term added to the entry")
    p.set_defaults(fn=cmd_runthm)

    p = sub.add_parser("seq", help="print a sequence as comma-separated values")
    p.add_argument("id", help=f"{'|'.join(patterns.SEQUENCE_IDS)} or d(<patterns>)")
    p.add_argument("n_max", type=int)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("conjecture", help="equidistribution evidence report")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cap_override is not None:
        os.environ[CAP_ENV_VAR] = str(args.cap_override)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
