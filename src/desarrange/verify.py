"""
The master cross-check harness: every layer of the package against the
brute-force oracle and against each other.

Each check produces a VerificationReport with a verdict per n; mismatches
carry both values.  Checks are registered by name so callers can run one
family in isolation.
"""
from __future__ import annotations

import json
from collections import namedtuple

from . import formulas, oracle, patterns, rankdp, rungraph
from .perms import (
    avoiders, class_count, class_predicate, enumerate_class, first_ascent, is_desarrangement,
    perm_to_str,
)
from .series import CORRECTIONS, exp_series

# Known desarrangement listings of length <= 5, frozen for the membership
# check (the enumeration side recomputes them from scratch).
KNOWN_DESARRANGEMENTS = {
    0: ["e"],
    1: [],
    2: ["21"],
    3: ["213", "312"],
    4: ["2134", "2143", "3124", "3142", "3241", "4123", "4132", "4231", "4321"],
    5: ["21345", "21354", "21435", "21453", "21534", "21543",
        "31245", "31254", "31425", "31452", "31524", "31542",
        "32415", "32451", "32514", "32541",
        "41235", "41253", "41325", "41352", "41523", "41532",
        "42315", "42351", "42513", "42531",
        "43215", "43512", "43521",
        "51234", "51243", "51324", "51342", "51423", "51432",
        "52314", "52341", "52413", "52431",
        "53214", "53412", "53421",
        "54213", "54312"],
}

DERANGEMENT_NUMBERS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570)


class VerificationReport(namedtuple("VerificationReport",
                                    "subject n_range verdicts n_requested")):
    """One check's verdict per n over n_range; n_requested is the n_max asked
    for, by default the range's top.  record() fills the verdicts."""
    __slots__ = ()

    def __new__(cls, subject: str, n_range: tuple[int, int], verdicts=None,
                n_requested: int | None = None):
        return super().__new__(cls, subject, n_range, {} if verdicts is None else verdicts,
                               n_range[1] if n_requested is None else n_requested)

    @property
    def clamped(self) -> bool:
        """True when the check's own size limit cut the requested range."""
        return self.n_requested > self.n_range[1]

    def record(self, n: int, ok: bool, details: str = ""):
        if ok:
            self.verdicts.setdefault(n, "match")
        else:
            prev = self.verdicts.get(n)
            note = f"mismatch({details})"
            self.verdicts[n] = note if prev in (None, "match") else f"{prev}; {note}"

    @property
    def ok(self) -> bool:
        return all(v == "match" for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {"subject": self.subject,
                "n_range": list(self.n_range),
                "n_requested": self.n_requested,
                "clamped": self.clamped,
                "verdicts": {str(n): v for n, v in sorted(self.verdicts.items())}}


CHECKS = {}  # check name -> check(n_max), in registration order


def _check(name: str, subject: str, n_min: int, limit: int):
    """Register fill(rep, top) as a check over n_min..min(n_max, limit); fill
    records what its comparisons produce, and an n of the range that none
    reached fails.  A formula with a pole at every sampled point, or a spec
    that breaks the run theorem's hypothesis, fails at the top, not crash."""
    def register(fill):
        def check(n_max: int) -> VerificationReport:
            rep = VerificationReport(subject, (n_min, min(n_max, limit)), n_requested=n_max)
            top = rep.n_range[1]
            try:
                fill(rep, top)
            except formulas.PoleError as exc:
                rep.record(top, False, f"formula pole: {exc}")
            except rungraph.HypothesisViolationError as exc:
                rep.record(top, False, f"hypothesis violation: {exc}")
            else:
                for n in set(range(n_min, top + 1)) - rep.verdicts.keys():
                    rep.record(n, False, "not compared")
            return rep
        check.__name__, check.__doc__ = fill.__name__, fill.__doc__
        CHECKS[name] = check
        return check
    return register


@_check("table1", "table1-membership", 0, 5)
def check_table1(rep: VerificationReport, top: int):
    """Recomputed desarrangement listings equal the known length <= 5 tables."""
    for n in range(top + 1):
        got = [perm_to_str(p) for p in enumerate_class(n, "desarrangements")]
        rep.record(n, got == KNOWN_DESARRANGEMENTS[n],
                   f"enumerated {len(got)} of {len(KNOWN_DESARRANGEMENTS[n])}")


@_check("tables", "statistic-tables", 0, 30)
def check_statistic_tables(rep: VerificationReport, top: int):
    """Every table of rankdp.TABLES, counted, against its formula at the
    formula's sample points; and up to n = 9 against brute force.  There one
    tally per class and n, of every statistic its tables read (and rval over
    D_n), projects onto each table's row, a joint one onto (s, t)."""
    tables = {tag: rankdp.rows(tag, top) for tag in rankdp.TABLES}
    for tag, rows in tables.items():
        for n, note in formulas.mismatches(tag, rows):
            rep.record(n, False, f"{tag}: {note}")
        for n in rows:  # mismatches compares every row it is given
            rep.record(n, True)
    tables["rval"] = formulas.rval_rows(tables["pk"])
    named = {**rankdp.TABLES, "rval": ("desarrangements", "rval", None)}
    stats = {}  # class -> the statistics its tables read, in order
    for klass, *pair in named.values():
        have = stats.setdefault(klass, [])
        have += [stat for stat in pair if stat and stat not in have]
    for n in range(min(top, 9) + 1):  # brute force stays where the census is cheap
        joints = {klass: oracle.distribution(n, names, klass) for klass, names in stats.items()}
        for tag, (klass, t_stat, s_stat) in named.items():
            at = [stats[klass].index(stat) for stat in (s_stat, t_stat) if stat]
            got, want = tables[tag][n], oracle.marginal(joints[klass], *at)
            if got != want:
                rep.record(n, False, f"{tag}: DP {got} vs oracle {want}")


# The run theorem's cases: (spec, entries summed, correction, closed form,
# frozen values from n = 0, (t, s) points off the closed form's poles).  At
# each point every entry equals the enumeration oracle up to n = 9, and the
# entries plus the correction equal the closed form, and the frozen values
# where given.
_RUN_THEOREM_CASES = (
    ("fig1", ((1, 3),), "cosh", "derangement_egf", DERANGEMENT_NUMBERS, ((1, 1), (2, 1), (3, 1))),
    ("fig2", ((1, 2),), "one", "des", (), ((2, 1), (3, 1), (5, 1))),
    ("fig3", ((1, 1), (1, 2)), "none", "joint_pix_des", (), ((3, 2), (2, 3), (2, 5))),
)


@_check("run-theorem", "run-theorem", 0, 30)
def check_run_theorem(rep: VerificationReport, top: int):
    """Built-in graph specs against the closed forms, and up to n = 9
    against enumeration."""
    for name, entries, correction, tag, frozen, points in _RUN_THEOREM_CASES:
        spec = rungraph.builtin_spec(name)
        for t, s in points:
            egf = CORRECTIONS[correction](top)
            for i, j in entries:
                part = rungraph.run_theorem_egf(spec, i, j, t=t, s=s, order=top)
                for n in range(min(top, 9) + 1):  # the oracle reads the census
                    got = part.egf_coeff(n)
                    direct = rungraph.oracle_weight_sum(spec, i, j, n, t=t, s=s)
                    rep.record(n, got == direct, "" if got == direct else
                               f"{name}({i},{j}) t={t} s={s}: {got} vs {direct}")
                egf = egf + part
            closed = formulas.evaluate_formula(tag, t=t, s=s, order=top)
            for n in range(top + 1):
                got, want = egf.egf_coeff(n), closed.egf_coeff(n)
                ok = got == want and (n >= len(frozen) or got == frozen[n])
                known = f", known {frozen[n]}" if n < len(frozen) else ""
                rep.record(n, ok, "" if ok else f"{name} {entries} + {correction} at t={t} "
                                                f"s={s}: {got} vs {tag} {want}{known}")


@_check("patterns", "pattern-counts", 0, 9)
def check_pattern_counts(rep: VerificationReport, top: int):
    """closed_form_count equals the brute-force count for all 64 subsets."""
    for n in range(top + 1):
        for pats in patterns.all_pattern_sets():
            brute = class_count(n, pats, "desarrangements")
            formula = patterns.closed_form_count(n, pats)
            rep.record(n, brute == formula, "" if brute == formula else
                       f"{{{patterns.patterns_label(pats)}}}: formula {formula} vs brute {brute}")


# (pattern, fact every desarrangement avoiding it satisfies, failure note); the
# inverses of the 213, 312 and 321 bijections rest on these facts unguarded
_LEMMA_FACTS = (
    (patterns.P213, lambda p: p[0] == len(p), "lacks leading n"),
    (patterns.P231, lambda p: p[first_ascent(p) - 1] == 1, "1 not at first ascent"),
    (patterns.P312, lambda p: p[0] == p[1] + 1, "p1 != p2+1"),
    (patterns.P321, lambda p: p[1] == 1, "p2 != 1"),
)


@_check("lemmas", "lemma-structure", 2, 9)
def check_lemma_facts(rep: VerificationReport, top: int):
    """Structural facts about single-pattern desarrangement avoiders."""
    for n in range(2, top + 1):
        for sigma, fact, note in _LEMMA_FACTS:
            for p in avoiders(n, {sigma}, "desarrangements"):
                ok = fact(p)
                rep.record(n, ok, "" if ok else
                           f"{patterns.pattern_name(sigma)}-avoider {p}: {note}")


def _bijection_ok(b: patterns.Bijection, n: int) -> tuple[bool, str]:
    """Check the class identity a bijection declares, over its length-n domain.

    The target class is generated once per shift.  Each image must lie in
    it before the inverse may run; the round trip makes the images
    distinct, and at the end the images at each shift must be exactly the
    target class of length n + shift.
    """
    fixed = class_predicate(b.fixes) if b.fixes else lambda p: False
    targets = {shift: set(avoiders(n + shift, *b.target)) for shift in b.shifts}
    images = {shift: set() for shift in b.shifts}
    try:
        for p in avoiders(n, *b.domain):
            q = b.forward(p)
            if fixed(p):
                if q != p:
                    return False, f"not the identity on {p}"
                continue
            shift = len(q) - n
            if shift not in images:
                return False, f"image {q} of {p} has an undeclared length"
            if q not in targets[shift]:
                return False, f"image {q} outside the target class"
            if (b.inverse(q, -shift) if b.graded else b.inverse(q)) != p:
                return False, f"round-trip failed at {p}"
            if b.flips and is_desarrangement(q) == is_desarrangement(p):
                return False, f"{p} -> {q} does not toggle desarrangement-ness"
            images[shift].add(q)
    except patterns.DomainError as exc:
        return False, f"raised on its own domain: {exc}"
    for shift, found in images.items():
        if found != targets[shift]:
            want = len(targets[shift])
            return False, f"{len(found)} images of length {n + shift}, class has {want}"
    return True, ""


@_check("bijections", "bijections", 0, 8)
def check_bijections(rep: VerificationReport, top: int):
    """Round-trips, displayed images, and the class cardinalities they prove."""
    displayed = [
        ("321_insert", (4, 5, 1, 2, 3), (5, 1, 6, 2, 3, 4)),
        ("312_prepend", (3, 4, 2, 5, 6, 1), (4, 3, 5, 2, 6, 7, 1)),
        ("123_132_213_trim", (6, 4, 5, 3, 2, 1), (4, 2, 3, 1)),
        ("123_132_213_trim", (6, 4, 5, 2, 3, 1), (5, 3, 4, 1, 2)),
        ("123_132_213_trim", (6, 4, 5, 3, 1, 2), (5, 3, 4, 2, 1)),
    ]
    for name, arg, want in displayed:
        if len(arg) <= top:  # an example is a fact about its length
            try:
                got = patterns.bijection(name, arg)
            except patterns.DomainError as exc:  # the row's declared domain excludes it
                rep.record(len(arg), False, f"{name}({arg}) raised: {exc}")
                continue
            rep.record(len(arg), got == want, f"{name}({arg}) = {got}, want {want}")
    for n in range(top + 1):
        for b in patterns.BIJECTIONS.values():
            if n >= b.n_min:
                ok, msg = _bijection_ok(b, n)
                rep.record(n, ok, f"{b.name}: {msg}")
        # cardinality recurrences behind the prepend maps
        c_n = patterns.sequence("catalan", n)
        for sigma_name, sigma in (("213", patterns.P213), ("312", patterns.P312)):
            d_n = class_count(n, {sigma}, "desarrangements")
            d_n1 = class_count(n + 1, {sigma}, "desarrangements")
            rep.record(n, c_n == d_n + d_n1,
                       f"C_{n} != d_{n}({sigma_name}) + d_{n + 1}({sigma_name})")


# (joint table, variable, value, the formula that specialization meets, its
# brute-force shadow as (statistics, class) or None)
_SPECIALIZATIONS = (
    ("joint_pk_des", "s", 1, "des", None),
    ("joint_pix_des", "s", 1, "eulerian", None),
    ("joint_pix_des", "s", 0, "des", None),
    ("joint_pix_des", "t", 1, "fix", (["fix"], "all")),
)


def _substitute(row: dict, var: str, value: int) -> dict:
    """The one-variable row left when var ("s" or "t") of a joint row is set to value."""
    at = 0 if var == "s" else 1  # var's slot in the (s_exp, t_exp) keys
    out = {}
    for key, c in row.items():
        out[key[1 - at]] = out.get(key[1 - at], 0) + c * value ** key[at]
    return {k: out[k] for k in sorted(out) if out[k]}


@_check("specializations", "specializations", 0, 8)
def check_specializations(rep: VerificationReport, top: int):
    """The counted joint tables, specialized, against the one-variable
    formulas and the fix shadow at every n; and two series identities at
    the top.  statistic-tables compares the joint tables themselves with
    their formulas and with brute force."""
    tables = {tag: rankdp.rows(tag, top) for tag in dict.fromkeys(r[0] for r in _SPECIALIZATIONS)}
    for tag, var, value, target, shadow in _SPECIALIZATIONS:
        rows = {n: _substitute(row, var, value) for n, row in tables[tag].items()}
        for n, note in formulas.mismatches(target, rows, "t" if var == "s" else "s"):
            rep.record(n, False, f"{tag} at {var}={value} vs {target}: {note}")
        for n in rows:  # mismatches compares every row it is given
            rep.record(n, True)
        if shadow is not None:
            for n, got in rows.items():
                want = oracle.distribution(n, *shadow)
                if got != want:
                    rep.record(n, False, f"{tag} at {var}={value} vs brute "
                                         f"{shadow[0][0]}: {got} vs {want}")

    order = top + 1
    e_x = exp_series(1, order)
    for t in (2, 3, 5):
        val = formulas.evaluate_formula("val", t=t, order=order)
        rep.record(top, e_x * val == formulas.peak_egf(t, order),
                   f"e^x * val series vs peak series at t={t}")
        # rval over desarrangements is t * pk, plus 1 for the empty one
        rval = (formulas.evaluate_formula("pk", t=t, order=order) - 1) * t + 1
        rep.record(top, e_x * rval == formulas.right_valley_egf(t, order),
                   f"e^x * rval-over-desarrangements series vs rval series at t={t}")


@_check("equidistribution", "equidistribution", 0, 8)
def check_equidistribution(rep: VerificationReport, top: int):
    """The ten-set count identity and nine-set pix/fix evidence lists, judged
    by EquidistributionReport.failures over the tallies of every n <= top."""
    report = patterns.equidistribution_report(top)
    for note in report.failures():
        rep.record(top, False, note)
    for n in range(report.n_max + 1) if report.entries else ():
        rep.record(n, True)


def verify_all(n_max: int = 9, only: str | None = None) -> list[VerificationReport]:
    """Run the registered checks (optionally a single named one); an unknown
    name raises ValueError before any check runs."""
    if only is not None:
        if only not in CHECKS:
            raise ValueError(f"unknown check {only!r}; have {sorted(CHECKS)}")
        return [CHECKS[only](n_max)]
    return [check(n_max) for check in CHECKS.values()]


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)


def render_text(reports) -> str:
    lines = []
    for r in reports:
        status = "SKIP" if not r.verdicts else "PASS" if r.ok else "FAIL"
        lines.append(f"{status} {r.subject} (n={r.n_range[0]}..{r.n_range[1]})")
        if not r.ok:
            for n, v in sorted(r.verdicts.items()):
                if v != "match":
                    lines.append(f"    n={n}: {v}")
    return "\n".join(lines)


def render_json(reports) -> str:
    return json.dumps({"reports": [r.to_json() for r in reports],
                       "ok": all_ok(reports)}, indent=2)
