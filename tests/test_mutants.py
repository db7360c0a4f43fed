"""The mutation catalog: which verify check catches which planted defect.

A row of MUTANTS, BRUTE_SIDE_ERRORS or BROKEN_BIJECTIONS is (name, patch,
check, n_max, expected).  patch(monkeypatch) plants one defect; `verify
--only check --n-max n_max` must then exit 1 with nothing on stderr, and its
stdout must start with expected: the FAIL line, then the first failing n and
its note (all of stdout if expected ends in a newline).  Adding a mutant is
adding a row.  A row of KNOWN_GAPS is a mutant no check catches yet; the
change that closes the gap moves it to MUTANTS.
"""
import functools
import inspect

import pytest

from desarrange import cli, formulas, oracle, patterns, perms, rankdp, rungraph, verify
from desarrange.series import poly_series
from test_perms import complement
from test_rungraph import ambiguous_spec


def _formula(tag, wrap):
    """FORMULAS[tag] built by wrap(the real build, *variables, order)."""
    arity, real = formulas.FORMULAS[tag]
    return lambda mp: mp.setitem(formulas.FORMULAS, tag, (arity, functools.partial(wrap, real)))


def _pole(*args):
    raise formulas.PoleError("pole")


def _plus(coeffs):
    """wrap for _formula adding sum(coeffs[k] x^k); a callable coeffs[k] takes (s, t)."""
    return lambda f, *v: f(*v) + poly_series(
        [c(*v[:-1]) if callable(c) else c for c in coeffs], v[-1])


def _setattr(obj, name, value):
    return lambda mp: mp.setattr(obj, name, value)


def _brute(stats, klass, edit):
    """oracle.distribution with its tally of stats over klass at n = 4 replaced
    by edit(the tally)."""
    def distribution(n, names, klass_, real=oracle.distribution):
        out = real(n, names, klass_)
        return edit(out) if n == 4 and tuple(names) == stats and klass_ == klass else out
    return _setattr(oracle, "distribution", distribution)


def _raised(tally):
    """The tally with its first count raised by one."""
    first = next(iter(tally))
    return {**tally, first: tally[first] + 1}


def _crossed(at):
    """An edit moving one member of each of the tally's first two keys to the
    key with the other's coordinate `at`: no one-coordinate marginal moves,
    a joint one on `at` and a coordinate where the two keys differ does."""
    def edit(tally):
        out = dict(tally)
        a, b = list(tally)[:2]
        for key, other in ((a, b), (b, a)):
            out[key] -= 1
            moved = key[:at] + other[at:at + 1] + key[at + 1:]
            out[moved] = out.get(moved, 0) + 1
        return {key: c for key, c in sorted(out.items()) if c}
    return edit


def _spec(which, edit):
    """rungraph.builtin_spec(which) replaced by edit(the shipped spec)."""
    real = rungraph.builtin_spec
    return _setattr(rungraph, "builtin_spec",
                    lambda name: edit(real(name)) if name == which else real(name))


def _case(spec, edge, **fields):
    """spec with the fields of the first weight case of edges[edge] replaced."""
    edges = list(spec.edges)
    edges[edge] = edges[edge]._replace(cases=(edges[edge].cases[0]._replace(**fields),
                                              *edges[edge].cases[1:]))
    return spec._replace(edges=tuple(edges))


def _rewritten(module, name, old, new):
    """Patch module.name, a function, with its one `old` replaced by `new`."""
    def patch(mp):
        source = inspect.getsource(getattr(module, name))
        assert source.count(old) == 1, old
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        mp.setattr(module, name, namespace[name])
    return patch


def _walker(old, new, name="_walk"):
    """perms._walk (or name) with its one `old` replaced by `new`; every
    tally walks, so the census is neither read nor built."""
    def patch(mp):
        _rewritten(perms, name, old, new)(mp)
        mp.setattr(perms, "CENSUS_MAX", -1)
    return patch


def _record(b, **fields):
    """BIJECTIONS[b.name] set to the record b with the given fields replaced."""
    return lambda mp: mp.setitem(patterns.BIJECTIONS, b.name, b._replace(**fields))


DES_OVER_T = _formula("des", lambda f, t, o: f(t, o) / t)


def _sequence_rule(tag, wrap):
    """SEQUENCES[tag] with rule wrap(the real rule, m, terms).  The Fine and
    a_seq rules read Catalan terms, so every row restarts from a copy of its
    first two terms and no term the patched table computes outlives it."""
    def patch(mp):
        for name, (terms, rule) in patterns.SEQUENCES.items():
            if name == tag:
                rule = functools.partial(wrap, rule)
            mp.setitem(patterns.SEQUENCES, name, (terms[:2], rule))
    return patch


CATALAN_PLUS_ONE = _sequence_rule("catalan", lambda rule, m, c: rule(m, c) + (m == 6))


def _fail(subject, top, n, note, low=0):
    return f"FAIL {subject} (n={low}..{top})\n    n={n}: mismatch({note}"


COMPLEMENT = patterns.Bijection(
    "complement", complement, complement, patterns._av("123"), patterns._av("321"),
    (0,))  # replace each letter v by n + 1 - v: Av_n(123) onto Av_n(321)
_AV, _TABLES, _SPEC, _BIJ = patterns.BIJECTIONS, "statistic-tables", "specializations", "bijections"
_OUT, _TRIP = "image {} outside the target class)", "round-trip failed at {})"
# the first failing n and note at n_max 6 of each map reversed on its forward, then inverse side
_REVERSED = {
    "321_insert": (1, _OUT.format((1, 2)), 2, _TRIP.format((1, 2))),
    "213_prepend": (1, _OUT.format((1, 2)), 2, _TRIP.format((1, 2))),
    "312_prepend": (1, _OUT.format((1, 2)), 2, _TRIP.format((1, 2))),
    "132_231_toggle": (2, _TRIP.format((1, 2)), 2, _TRIP.format((1, 2))),
    "231_321_swap": (2, _TRIP.format((1, 2)), 2, _TRIP.format((1, 2))),
    "312_321_strip": (4, _TRIP.format((2, 1, 3, 4)), 2, _TRIP.format((2, 1))),
    "123_132_213_trim": (3, _OUT.format((1, 2)), 3, _TRIP.format((3, 1, 2))),
    "231_312_321_trim": (3, _OUT.format((1, 2)), 3, _TRIP.format((2, 1, 3))),
    "simion_schmidt(all)": (2, _TRIP.format((1, 2)), 2, _TRIP.format((1, 2))),
    "simion_schmidt(desarrangements)": (2, _OUT.format((1, 2)), 2, _TRIP.format((2, 1))),
}

# Two groups of rows run from test_verify.py, under the names those tests have
# always had: one brute-force tally at n = 4 with a count raised by one, or
# with two members crossed so that only a joint table sees it ...
_DN, _SN = ("des", "pk", "val", "dasc", "ddes", "rval"), ("des", "pix")  # per-class tallies
BRUTE_SIDE_ERRORS = [
    ("tables-joint", _brute(_DN, "desarrangements", _raised), "tables", 5,
     _fail(_TABLES, 5, 4, "des: DP {1: 3, 2: 5, 3: 1} vs oracle {1: 4, 2: 5, 3: 1})")),
    ("des-over-S_n", _brute(_SN, "all", _raised), "tables", 5,
     _fail(_TABLES, 5, 4, "eulerian: DP {0: 1, 1: 11, 2: 11, 3: 1} "
                          "vs oracle {0: 2, 1: 11, 2: 11, 3: 1})")),
    ("fix-over-S_n", _brute(("fix",), "all", _raised), "specializations", 5,
     _fail(_SPEC, 5, 4, "joint_pix_des at t=1 vs brute fix: {0: 9, 1: 8, 2: 6, 4: 1} "
                        "vs {0: 10, 1: 8, 2: 6, 4: 1})\n")),
    ("pk-des-over-D_n", _brute(_DN, "desarrangements", _crossed(1)), "tables", 5,
     _fail(_TABLES, 5, 4, "joint_pk_des: DP {(0, 1): 3, (0, 3): 1, (1, 2): 5} vs oracle "
                          "{(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 1): 1, (1, 2): 4})\n")),
    ("pix-des-over-S_n", _brute(_SN, "all", _crossed(1)), "tables", 5,
     _fail(_TABLES, 5, 4, "joint_pix_des: DP {(0, 1): 3, (0, 2): 5, (0, 3): 1, (1, 1): 5, "
                          "(1, 2): 3, (2, 1): 3, (2, 2): 3, (4, 0): 1} vs oracle {(0, 0): 1, "
                          "(0, 1): 2, (0, 2): 5, (0, 3): 1, (1, 1): 5, (1, 2): 3, (2, 1): 3, "
                          "(2, 2): 3, (4, 1): 1})\n")),
]
# ... and each bijection record with its forward or inverse map reversed
BROKEN_BIJECTIONS = [
    (f"{name}-{side}",
     _record(b, **{side: lambda *args, f=getattr(b, side): f(*args)[::-1]}), "bijections", 6,
     _fail(_BIJ, 6, _REVERSED[name][k], f"{name}: {_REVERSED[name][k + 1]}"))
    for name, b in _AV.items() for k, side in ((0, "forward"), (2, "inverse"))]

def _counted(table, key, value):
    """rankdp's rule table with the entry at key set to value."""
    return lambda mp: mp.setitem(getattr(rankdp, table), key, value)


def _dp(name, old, new):
    """rankdp.name, a function, with its one `old` replaced by `new`."""
    return _rewritten(rankdp, name, old, new)


def _missed(tag, got, want, at="t=2"):
    """The note of a counted row that the formula does not meet."""
    return f"{tag}: DP {got} vs formula {want} at {at})"


def _at_each_t(note):
    """The notes of a series identity that fails at each of its points, t = 2, 3, 5."""
    return "); mismatch(".join(f"{note} at t={t}" for t in (2, 3, 5)) + ")\n"


# rankdp.walk's loop bound one short or one long: its last row is dropped, or
# a row past n_max is counted
WALK_DROPS_LAST_ROW = _dp("walk", "range(1, n_max + 1)", "range(1, n_max)")
WALK_ADDS_A_ROW = _dp("walk", "range(1, n_max + 1)", "range(1, n_max + 2)")
NO_PATTERN_SETS = _setattr(patterns, "all_pattern_sets", lambda: iter(()))

_S8, _S17 = "s=2^8, t=2", "s=2^17, t=2"  # the joint sample points at n_max 5 and 8
_PKDES, _PIXDES = "joint_pk_des", "joint_pix_des"

MUTANTS = [
    ("des+x^2", _formula("des", _plus([0, 0, 1])), "tables", 3,
     _fail(_TABLES, 3, 2, _missed("des", 2, 4))),
    ("des+x^5", _formula("des", _plus([0] * 5 + [1])), "tables", 9,
     _fail(_TABLES, 9, 5, _missed("des", 220, 340))),
    ("des+x^20", _formula("des", _plus([0] * 20 + [1])), "tables", 30,
     _fail(_TABLES, 30, 20, _missed("des", 1115703248435160259394, 1118136150443336899394))
     + "\n"),
    ("des/t", DES_OVER_T, "tables", 12, _fail(_TABLES, 12, 0, _missed("des", 1, "1/2"))),
    ("des-pole-everywhere", _formula("des", _pole), "tables", 5,
     _fail(_TABLES, 5, 5, "formula pole: could not find 7 good points for des)")),
    ("pk-des-swapped-s-t", _formula("joint_pk_des", lambda f, s, t, o: f(t, s, o)),
     "tables", 8, _fail(_TABLES, 8, 2, _missed(_PKDES, 2, 131072, _S17))),
    ("pk-des*s", _formula("joint_pk_des", lambda f, s, t, o: f(s, t, o) * s),
     "tables", 5, _fail(_TABLES, 5, 0, _missed(_PKDES, 1, 256, _S8))),
    ("pk-des/t", _formula("joint_pk_des", lambda f, s, t, o: f(s, t, o) / t), "tables", 5,
     _fail(_TABLES, 5, 0, _missed(_PKDES, 1, "1/2", _S8))),
    ("pk-des+(s-1)x^2", _formula("joint_pk_des", _plus([0, 0, lambda s, t: s - 1])),
     "tables", 5, _fail(_TABLES, 5, 2, _missed(_PKDES, 2, 512, _S8))),
    ("pk-des+s^3x^2", _formula("joint_pk_des", _plus([0, 0, lambda s, t: s ** 3])),
     "tables", 5, _fail(_TABLES, 5, 2, _missed(_PKDES, 2, 33554434, _S8))),
    ("pk-des+x^5", _formula("joint_pk_des", _plus([0] * 5 + [1])), "tables", 8,
     _fail(_TABLES, 8, 5, _missed(_PKDES, 23593000, 23593120, _S17))),
    ("pk-des+sx^3", _formula("joint_pk_des", _plus([0, 0, 0, lambda s, t: s])),
     "tables", 8, _fail(_TABLES, 8, 3, _missed(_PKDES, 4, 786436, _S17))),
    ("pk-des-s+1", _formula("joint_pk_des", lambda f, s, t, o: f(s + 1, t, o)),
     "tables", 8, _fail(_TABLES, 8, 4, _missed(_PKDES, 2621454, 2621474, _S17))),
    ("pix-des+st(1-s)(1-t)x^5", _formula("joint_pix_des", _plus(
        [0] * 5 + [lambda s, t: s * t * (1 - s) * (1 - t) / 120])),
     "tables", 8, _fail(_TABLES, 8, 5, _missed(
         _PIXDES, 38685626299726792810037468, 38685626299726827169513692, _S17) + "\n")),
    ("pk-des+x^20", _formula("joint_pk_des", _plus([0] * 20 + [1])), "tables", 30,
     _fail(_TABLES, 30, 20, f"{_PKDES}: DP ")),
    # the identities only specializations records
    ("pix-des-at-s=0-meets-eulerian", _setattr(verify, "_SPECIALIZATIONS", tuple(
        (*row[:3], "eulerian", None) if row[1:3] == ("s", 0) else row
        for row in verify._SPECIALIZATIONS)), "specializations", 5,
     _fail(_SPEC, 5, 1, f"{_PIXDES} at s=0 vs eulerian: DP 0 vs formula 1 at t=2)")),
    ("peak-egf-parts-swapped", _rewritten(formulas, "peak_egf", "c, den =", "den, c ="),
     "specializations", 5, _fail(_SPEC, 5, 5, _at_each_t("e^x * val series vs peak series"))),
    ("right-valley-egf-over-cosh", _rewritten(formulas, "right_valley_egf", "_, den =", "den, _ ="),
     "specializations", 5, _fail(_SPEC, 5, 5, _at_each_t(
         "e^x * rval-over-desarrangements series vs rval series"))),
    # each increment, phase rule and step rule of the counted rows, miswired
    ("dp-des-on-up", _counted("INCREMENTS", "des", ("up",)), "tables", 5,
     _fail(_TABLES, 5, 2, _missed("des", 1, 2))),
    ("dp-pk-on-up,up", _counted("INCREMENTS", "pk", ("up", "up")), "tables", 5,
     _fail(_TABLES, 5, 4, _missed("pk", 12, 14))),
    ("dp-val-on-down,down", _counted("INCREMENTS", "val", ("down", "down")), "tables", 5,
     _fail(_TABLES, 5, 3, _missed("val", 2, 4))),
    ("dp-dasc-on-up,down", _counted("INCREMENTS", "dasc", ("up", "down")), "tables", 5,
     _fail(_TABLES, 5, 4, _missed("dasc", 14, 12))),
    ("dp-ddes-on-down,up", _counted("INCREMENTS", "ddes", ("down", "up")), "tables", 5,
     _fail(_TABLES, 5, 3, _missed("ddes", 4, 2))),
    ("dp-first-ascent-odd", _dp("rows", "if k % 2:", "if not k % 2:"), "tables", 5,
     _fail(_TABLES, 5, 2, _missed("des", 3, 2))),
    ("dp-first-ascent-kept-open", _dp("rows", "fresh = False", "fresh = True"), "tables", 5,
     _fail(_TABLES, 5, 3, _missed("des", 0, 4))),
    ("dp-no-ascent-counts-at-odd-n", _dp("rows", "if fresh and n % 2:", "if fresh and not n % 2:"),
     "tables", 5, _fail(_TABLES, 5, 1, _missed("des", 1, 0))),
    ("dp-up-from-one-rank", _dp("_grown", "map(add, up[-1], entry)", "map(add, up[0], entry)"),
     "tables", 5, _fail(_TABLES, 5, 3, _missed("eulerian", 3, 13))),
    ("dp-t-on-the-other-steps", _dp("_grown", "[0, *e] if dt else [*e, 0]",
                                    "[*e, 0] if dt else [0, *e]"), "tables", 5,
     _fail(_TABLES, 5, 2, _missed("des", 1, 2))),
    ("dp-s-not-carried", _dp("_grown", "key = (this, phase_, s + ds)", "key = (this, phase_, ds)"),
     "tables", 5, _fail(_TABLES, 5, 3, _missed(_PIXDES, 66568, 16779268, _S8))),
    ("dp-pix-rise-up-without-s", _counted("PIX_STEPS", ("rise", "up"), ("rise", 0)),
     "tables", 5, _fail(_TABLES, 5, 2, _missed(_PIXDES, 258, 65538, _S8))),
    ("dp-pix-fall-starts-odd", _counted("PIX_STEPS", ("rise", "down"), ("odd", 0)),
     "tables", 5, _fail(_TABLES, 5, 2, _missed(_PIXDES, 66048, 65538, _S8))),
    ("dp-pix-fall-keeps-parity", _counted("PIX_STEPS", ("even", "down"), ("even", 0)),
     "tables", 5, _fail(_TABLES, 5, 3, _missed(_PIXDES, 16778248, 16779268, _S8))),
    ("dp-pix-odd-fall-ends-without-s", _counted("PIX_STEPS", ("odd", "up"), ("done", 0)),
     "tables", 5, _fail(_TABLES, 5, 4, _missed(_PIXDES, 4296149550, 4296152610, _S8))),
    ("dp-pix-rise-end-without-s", _counted("PIX_END", "rise", 0), "tables", 5,
     _fail(_TABLES, 5, 1, _missed(_PIXDES, 1, 256, _S8))),
    ("dp-pix-odd-end-without-s", _counted("PIX_END", "odd", 0), "tables", 5,
     _fail(_TABLES, 5, 3, _missed(_PIXDES, 16778248, 16779268, _S8))),
    # a defect that removes comparisons: the n they would have reached reads not compared
    ("walk-drops-last-row", WALK_DROPS_LAST_ROW, "tables", 12,
     _fail(_TABLES, 12, 12, "not compared)\n")),
    ("lemma-avoiders-empty", _setattr(verify, "avoiders", lambda *args: []), "lemmas", 9,
     _fail("lemma-structure", 9, 2, "not compared)", low=2)),
    ("no-pattern-sets-counted", NO_PATTERN_SETS, "patterns", 4,
     _fail("pattern-counts", 4, 0, "not compared)")),
    ("no-pattern-sets-judged", NO_PATTERN_SETS, "equidistribution", 6,
     _fail("equidistribution", 6, 0, "not compared)")),
    ("table1-listing-dropped", _setattr(verify, "KNOWN_DESARRANGEMENTS", {
        **verify.KNOWN_DESARRANGEMENTS, 4: verify.KNOWN_DESARRANGEMENTS[4][1:]}),
     "table1", 5, _fail("table1-membership", 5, 4, "enumerated 9 of 8)")),
    ("pixfix-conjecture-without-132,312", _setattr(patterns, "PIXFIX_CONJECTURE_SETS", tuple(
        s for s in patterns.PIXFIX_CONJECTURE_SETS if s != patterns.parse_patterns("132,312"))),
     "equidistribution", 7,
     _fail("equidistribution", 7, 7, "{132,312} pixfix_match=True but conjectured=False)")),
    # below RESOLVED_AT a listed set that differs gets the same note
    ("pixfix-conjecture-with-132", _setattr(patterns, "PIXFIX_CONJECTURE_SETS", (
        *patterns.PIXFIX_CONJECTURE_SETS, frozenset(patterns.parse_patterns("132")))),
     "equidistribution", 6,
     _fail("equidistribution", 6, 6, "{132} pixfix_match=False but conjectured=True)")),
    ("fig2-ambiguous", _spec("fig2", lambda spec: ambiguous_spec()), "run-theorem", 4,
     _fail("run-theorem", 4, 4, "hypothesis violation: composition (1, 1) "
                                "is (1,2)-admissible along multiple paths)\n")),
    # a miscopied spec moves its pipeline and its oracle alike: only the closed form sees it
    ("fig1-loop-t_exp-(1,0)", _spec("fig1", lambda spec: _case(spec, 3, t_exp=(1, 0))),
     "run-theorem", 5, _fail("run-theorem", 5, 4, "fig1 ((1, 3),) + cosh at t=2 s=1: "
                                                  "14 vs derangement_egf 9, known 9)")),
    ("fig2-loop-t_exp-(1,0)", _spec("fig2", lambda spec: _case(spec, 1, t_exp=(1, 0))),
     "run-theorem", 3, _fail("run-theorem", 3, 3, "fig2 ((1, 2),) + one at t=2 s=1: 8 vs des 4)")),
    ("fig3-loop-s_exp-(0,2)", _spec("fig3", lambda spec: _case(spec, 0, s_exp=(0, 2))),
     "run-theorem", 5, _fail("run-theorem", 5, 1, "fig3 ((1, 1), (1, 2)) + none at t=3 s=2: "
                                                  "4 vs joint_pix_des 2)")),
    # parts of size 12 and up dropped: no n <= 11 sees it, and above 9 only the closed forms run
    ("edge-parts-below-12", _setattr(rungraph.Edge, "exponents", lambda self, k,
                                     real=rungraph.Edge.exponents: None if k >= 12 else real(self, k)),
     "run-theorem", 14, _fail("run-theorem", 14, 12, "fig2 ((1, 2),) + one at t=2 s=1: "
                                                    "11704818466 vs des 11704820514)")),
    ("walker-123", _walker("w123 and rest > bit", "w123 and rest > bit << 1"),
     "patterns", 4, _fail("pattern-counts", 4, 4, "{123}: formula 6 vs brute 8)")),
    ("walker-132", _walker("rest & (bit - 1) > low", "rest & ((bit >> 1) - 1) > low"),
     "patterns", 4, _fail("pattern-counts", 4, 4, "{132}: formula 6 vs brute 8)")),
    ("walker-231", _walker("rest & -rest < below", "(rest & -rest) << 1 < below"),
     "patterns", 4, _fail("pattern-counts", 4, 4, "{231}: formula 6 vs brute 7)")),
    ("walker-321", _walker("w321 and rest & (bit - 1)", "w321 and rest & ((bit >> 1) - 1)"),
     "lemmas", 4, _fail("lemma-structure", 4, 4, "321-avoider (3, 2, 4, 1): p2 != 1)", low=2)),
    ("walker-312", _walker("up & -up < used", "(up & -up) << 1 < used"),
     "patterns", 3, _fail("pattern-counts", 3, 3, "{312}: formula 1 vs brute 2)")),
    ("walker-213", _walker("rest > above & -above", "rest > (above & -above) << 1"),
     "patterns", 3, _fail("pattern-counts", 3, 3, "{213}: formula 1 vs brute 2)")),
    ("walker-memo-key-without-ascent-flag",
     _walker("key = (used, last, down)", "key = (used, last)"), "bijections", 7,
     _fail(_BIJ, 7, 4, "213_prepend: 10 images of length 5, class has 11)")),
    ("walker-grouped-tail-counted-once", _walker("entry[0] += 1", "entry[0] = 1", "_keyed"),
     "patterns", 4, _fail("pattern-counts", 4, 4, "{}: formula 9 vs brute 7)")),
    ("catalan-rule+1-at-6", CATALAN_PLUS_ONE, "bijections", 8,
     _fail(_BIJ, 8, 6, "C_6 != d_6(213) + d_7(213)")),
    ("321_insert-on-Av(123)", _record(_AV["321_insert"], domain=patterns._av("123")),
     "bijections", 5, _fail(_BIJ, 5, 3, "321_insert: " + _OUT.format((4, 1, 3, 2)))
     + "\n    n=4: mismatch(321_insert: " + _OUT.format((2, 1, 5, 4, 3)) + "\n    n=5: mismatch("
     "321_insert((4, 5, 1, 2, 3)) raised: input does not avoid 123); mismatch(321_insert: "
     + _OUT.format((2, 1, 6, 5, 4, 3)) + "\n"),
    ("132_231_toggle-on-Av(132)", _record(_AV["132_231_toggle"], domain=patterns._av("132")),
     "bijections", 6, _fail(_BIJ, 6, 3, "132_231_toggle: raised on its own domain: "
                                        "class members carry n at an end)")),
    ("complement-onto-Av(123)", _record(COMPLEMENT, target=patterns._av("123")),
     "bijections", 6, _fail(_BIJ, 6, 3, "complement: " + _OUT.format((1, 2, 3)))),
    ("complement-onto-D(321)", _record(COMPLEMENT, target=patterns._av("321", "desarrangements")),
     "bijections", 6, _fail(_BIJ, 6, 1, "complement: " + _OUT.format((1,)))),
    ("complement-on-Av(123,132)", _record(COMPLEMENT, domain=patterns._av("123,132")),
     "bijections", 6, _fail(_BIJ, 6, 3, "complement: 4 images of length 3, class has 5)")),
    ("complement-shift-1", _record(COMPLEMENT, shifts=(1,)), "bijections", 6,
     _fail(_BIJ, 6, 0, "complement: image () of () has an undeclared length)")),
    ("complement-flips", _record(COMPLEMENT, flips=True), "bijections", 6,
     _fail(_BIJ, 6, 0, "complement: () -> () does not toggle desarrangement-ness)")),
    ("complement-fixes-desarrangements", _record(COMPLEMENT, fixes="desarrangements", n_min=1),
     "bijections", 6, _fail(_BIJ, 6, 2, "complement: not the identity on (2, 1))")),
]
KNOWN_GAPS = [pytest.param(("321-count+1-at-15", _setattr(
    patterns, "closed_form_count", lambda n, p, real=patterns.closed_form_count:
    real(n, p) + (n == 15 and set(p) == {patterns.P321})),
    "patterns", 20, _fail("pattern-counts", 20, 15, "{321}: formula")),
    marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="pattern-counts stops at n = 9"))]


def assert_caught(monkeypatch, capsys, patch, check, n_max, expected):
    """Plant patch, run `verify --only check --n-max n_max`, match expected, return stdout."""
    memos = (perms.census, rungraph.descent_composition_counts, rungraph._exponent_counts)
    sizes = [memo.cache_info().currsize for memo in memos]
    patch(monkeypatch)
    code = cli.main(["verify", "--only", check, "--n-max", str(n_max)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "") and out.startswith(expected), out
    assert out == expected or not expected.endswith("\n"), out
    if perms.CENSUS_MAX < 0:  # no memo keeps what the mutant walk built
        assert [memo.cache_info().currsize for memo in memos] == sizes
    return out


@pytest.mark.parametrize("row", MUTANTS + KNOWN_GAPS, ids=lambda row: row[0])
def test_verify_catches_the_mutant(monkeypatch, capsys, row):
    assert_caught(monkeypatch, capsys, *row[1:])


def test_every_check_has_a_mutant():
    rows = MUTANTS + BRUTE_SIDE_ERRORS + BROKEN_BIJECTIONS
    assert {row[2] for row in rows} == set(verify.CHECKS)


def test_a_sequence_mutant_leaves_no_wrong_term():
    with pytest.MonkeyPatch.context() as mp:
        CATALAN_PLUS_ONE(mp)
        # the wrong C_6 carries into every later C_m, which Fine and a_seq read
        assert [patterns.sequence(tag, n) for tag, n in (
            ("catalan", 6), ("a_seq", 11), ("fine", 11))] == [133, 13126, 7389]
    assert [patterns.sequence(tag, n) for tag, n in (
        ("catalan", 6), ("a_seq", 11), ("fine", 11))] == [132, 13035, 7338]


def test_a_new_bijection_needs_only_its_record(monkeypatch):
    # verify knows the complement map only through its record
    monkeypatch.setitem(patterns.BIJECTIONS, "complement", COMPLEMENT)
    assert verify.check_bijections(6).ok
