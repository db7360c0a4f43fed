import math
import re

import pytest

from desarrange import patterns, perms, rungraph
from desarrange.patterns import (
    BIJECTIONS, DomainError, avoids, bijection, closed_form_count, equidistribution_report,
    parse_patterns, pattern_mask, patterns_label, sequence, all_pattern_sets,
)
from desarrange.perms import (
    CapExceededError, avoiders, class_count, class_predicate, enumerate_class,
    is_desarrangement,
)

from reference_tables import (
    A_SEQUENCE, CATALAN_NUMBERS, DERANGEMENT_NUMBERS, FIBONACCI_NUMBERS,
    FINE_NUMBERS, JACOBSTHAL_NUMBERS,
)
from test_perms import complement


def test_parse_and_label():
    ps = parse_patterns("{213,321}")
    assert ps == frozenset({(2, 1, 3), (3, 2, 1)})
    assert patterns_label(ps) == "213,321"
    assert parse_patterns("") == frozenset()
    for bad in ("12", "1a3"):
        with pytest.raises(ValueError, match=f"^not a length-3 pattern: '{bad}'$"):
            parse_patterns(bad)
    assert pattern_mask(parse_patterns("123,321")) == 0b100001


def test_avoids_examples():
    assert not avoids((2, 1, 5, 3, 6, 4), {(3, 1, 2)})
    assert avoids((4, 3, 2, 6, 5, 1), {(3, 1, 2)})
    assert avoids((), {(1, 2, 3), (3, 2, 1)})
    assert avoids((2, 1), set(patterns.PATTERNS))


def test_count_class_examples():
    assert class_count(5, {(3, 2, 1)}, "desarrangements") == 14
    assert class_count(5, {(1, 3, 2)}, "desarrangements") == 18
    assert class_count(4, {(2, 1, 3)}, "desarrangements") == 4


def test_count_class_matches_direct_loop():
    # the census sum equals the naive filter
    for n in range(7):
        for pats in [frozenset(), parse_patterns("321"), parse_patterns("123,231"),
                     parse_patterns("132,213,321")]:
            for klass in ("all", "desarrangements"):
                direct = sum(1 for p in enumerate_class(n, klass) if avoids(p, pats))
                assert class_count(n, pats, klass) == direct


def test_count_class_above_census_range(monkeypatch):
    # above the census, nonempty sets are counted from their generated avoiders
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    for n in (10, 11):
        for pats in all_pattern_sets():
            if pats:
                assert class_count(n, pats, "desarrangements") == closed_form_count(n, pats), \
                    (n, patterns_label(pats))
    for sigma in patterns.PATTERNS:
        assert class_count(11, {sigma}, "all") == sequence("catalan", 11), sigma


def test_count_class_cap(monkeypatch):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    with pytest.raises(CapExceededError):
        class_count(12, {(3, 2, 1)}, "desarrangements")


# every public entry that reads a capped memo, as a function of n
CAPPED_ENTRIES = {
    "census": lambda n: perms.census(n, "all"),
    "class_count": lambda n: perms.class_count(n, {(3, 2, 1)}, "all"),
    "tally": lambda n: perms.tally(n, (), "desarrangements", perms.des),
    "descent_composition_counts": rungraph.descent_composition_counts,
    "oracle_weight_sum": lambda n: rungraph.oracle_weight_sum(
        rungraph.builtin_spec("fig1"), 1, 3, n),
}


@pytest.mark.parametrize("entry", sorted(CAPPED_ENTRIES))
def test_cap_holds_after_a_warm_memo(monkeypatch, entry):
    monkeypatch.delenv("DESARRANGE_CAP", raising=False)
    call = CAPPED_ENTRIES[entry]
    call(5)  # fills the memos for n = 5
    monkeypatch.setenv("DESARRANGE_CAP", "4")
    with pytest.raises(CapExceededError):
        call(5)


def test_sequences_against_reference():
    assert [sequence("fine", n) for n in range(12)] == FINE_NUMBERS
    assert [sequence("jacobsthal", n) for n in range(12)] == JACOBSTHAL_NUMBERS
    assert [sequence("a_seq", n) for n in range(11)] == A_SEQUENCE[:11]
    assert sequence("a_seq", 11) == 13035  # recurrence value, not the printed 3761
    assert [sequence("catalan", n) for n in range(11)] == CATALAN_NUMBERS
    assert [sequence("fibonacci", n) for n in range(11)] == FIBONACCI_NUMBERS
    assert [sequence("derangement", n) for n in range(12)] == DERANGEMENT_NUMBERS
    with pytest.raises(ValueError):
        sequence("lucas", 3)


def test_fine_and_a_seq_match_a_binomial_reference(monkeypatch):
    # every row of the table against a formula of its own, for n <= 300
    top = 300

    def c(m):
        return math.comb(2 * m, m) // (m + 1)

    def fib(n):  # fast doubling: (F_n, F_(n+1))
        if n == 0:
            return 0, 1
        x, y = fib(n // 2)
        x, y = x * (2 * y - x), x * x + y * y
        return (y, x + y) if n % 2 else (x, y)

    f, a = [0, 1], [1]  # C_m = 2 F_(m+1) + F_m and a_(m+1) = C_m - a_m
    for m in range(1, top):
        f.append((c(m) - f[m]) // 2)
    for m in range(top):
        a.append(c(m) - a[m])
    reference = {
        "catalan": [c(n) for n in range(top + 1)],
        "fine": f,
        "jacobsthal": [(2 ** n - (-1) ** n) // 3 for n in range(top + 1)],
        "fibonacci": [fib(n)[0] for n in range(top + 1)],
        "a_seq": a,
        "derangement": [sum((-1) ** k * math.factorial(n) // math.factorial(k)
                            for k in range(n + 1)) for n in range(top + 1)],
    }
    assert tuple(reference) == patterns.SEQUENCE_IDS
    rows = dict(patterns.SEQUENCES)

    def restart(**first):
        """Every row back to its first two terms (or the given ones)."""
        for tag, (terms, rule) in rows.items():
            monkeypatch.setitem(patterns.SEQUENCES, tag, (first.get(tag, terms[:2]), rule))

    restart()
    for tag, want in reference.items():
        assert [sequence(tag, n) for n in range(top + 1)] == want, tag
    # a repeated call reads the list and computes nothing new
    for tag, (terms, _) in list(patterns.SEQUENCES.items()):
        monkeypatch.setitem(patterns.SEQUENCES, tag, (terms, None))
    for tag, want in reference.items():
        assert [sequence(tag, n) for n in range(top + 1)] == want, tag
    # Fine before any Catalan term past C_0: the rule pulls the C_m it reads
    restart(catalan=[1])
    assert sequence("fine", top) == f[top]
    assert patterns.SEQUENCES["fine"][0] == f
    assert patterns.SEQUENCES["catalan"][0] == reference["catalan"][:top]
    with pytest.raises(ValueError, match="^sequence index must be non-negative$"):
        sequence("fine", -1)
    with pytest.raises(ValueError, match=re.escape(
            f"unknown sequence 'lucas'; have {patterns.SEQUENCE_IDS}")):
        sequence("lucas", 3)


def test_fine_catalan_identity():
    for n in range(1, 21):
        assert sequence("catalan", n) == 2 * sequence("fine", n + 1) + sequence("fine", n)


def test_closed_form_examples():
    assert closed_form_count(6, parse_patterns("123,312")) == 7   # ceil(25/4)
    assert closed_form_count(4, parse_patterns("123,132")) == 3
    assert closed_form_count(7, parse_patterns("213,132")) == 21  # J_6
    assert closed_form_count(0, parse_patterns("123,321")) == 1
    assert closed_form_count(10, parse_patterns("321")) == 4862   # C_9


def test_closed_form_matches_brute_force():
    for n in range(8):
        for pats in all_pattern_sets():
            assert closed_form_count(n, pats) == class_count(n, pats, "desarrangements"), \
                (n, patterns_label(pats))


def test_wilf_symmetry_on_full_group_but_not_desarrangements():
    for n in range(9):
        for pats in all_pattern_sets():
            comp = frozenset(map(complement, pats))
            assert class_count(n, pats, "all") == class_count(n, comp, "all")
    # at least one pattern set separates desarrangement counts from its complement
    witnesses = [
        (n, pats)
        for n in range(7)
        for pats in all_pattern_sets()
        if class_count(n, pats, "desarrangements")
        != class_count(n, frozenset(map(complement, pats)), "desarrangements")
    ]
    assert witnesses


def test_bijection_displayed_images():
    assert bijection("321_insert", (4, 5, 1, 2, 3)) == (5, 1, 6, 2, 3, 4)
    assert bijection("312_prepend", (3, 4, 2, 5, 6, 1)) == (4, 3, 5, 2, 6, 7, 1)
    assert bijection("123_132_213_trim", (6, 4, 5, 3, 2, 1)) == (4, 2, 3, 1)
    assert bijection("123_132_213_trim", (6, 4, 5, 2, 3, 1)) == (5, 3, 4, 1, 2)
    assert bijection("123_132_213_trim", (6, 4, 5, 3, 1, 2)) == (5, 3, 4, 2, 1)
    # displayed inverse values of the same map
    inverse = BIJECTIONS["123_132_213_trim"].inverse
    assert inverse((4, 2, 3, 1), 2) == (6, 4, 5, 3, 2, 1)
    assert inverse((5, 3, 4, 1, 2), 1) == (6, 4, 5, 2, 3, 1)
    assert inverse((5, 3, 4, 2, 1), 1) == (6, 4, 5, 3, 1, 2)


def test_bijection_domain_errors():
    with pytest.raises(DomainError):
        bijection("321_insert", (3, 2, 1))          # contains 321
    with pytest.raises(DomainError):
        bijection("321_insert", ())
    with pytest.raises(DomainError):
        bijection("312_321_strip", (1, 2, 3))       # not a desarrangement
    with pytest.raises(ValueError):
        bijection("no_such_map", (1,))


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_bijection_rejects_inputs_outside_its_row(name):
    # both inputs are derived from the row alone, so the maps need no guards
    b = BIJECTIONS[name]
    (pats, klass), length = b.domain, b.n_min
    member = class_predicate(klass)
    if length > 0:
        # one letter too short, though in the class where the class allows;
        # (1,) for 132_231_toggle, which the map itself would accept
        short = (avoiders(length - 1, pats, klass) or avoiders(length - 1, pats))[0]
        with pytest.raises(DomainError):
            bijection(name, short)
    size = max(length, 3)
    outside = next(p for p in enumerate_class(size) if not (member(p) and avoids(p, pats)))
    with pytest.raises(DomainError):
        bijection(name, outside)
    # a declared member of the same length goes through
    inside = avoiders(size, pats, klass)
    if inside:
        bijection(name, inside[0])


# the id is the one this case had when the table also held inverse cases
@pytest.mark.parametrize("name, p", [
    pytest.param("132_231_toggle", (1,), id="132_231_toggle-p3-forward-None"),  # n_min = 2
])
def test_bijection_rejects_short_inputs_the_maps_accept(name, p):
    assert BIJECTIONS[name].forward(p) is not None   # the bare map takes it
    with pytest.raises(DomainError):
        bijection(name, p)


def test_bijection_roundtrips_small():
    # 321_insert: nonempty 321-avoiders of length n-1 onto D_n(321)
    for n in range(1, 7):
        dom = [p for p in enumerate_class(n, "all") if avoids(p, {patterns.P321})]
        images = set()
        for p in dom:
            q = bijection("321_insert", p)
            assert BIJECTIONS["321_insert"].inverse(q) == p
            assert is_desarrangement(q) and avoids(q, {patterns.P321})
            images.add(q)
        assert len(images) == class_count(n + 1, {patterns.P321}, "desarrangements")


def test_prepend_maps_partition():
    for name, sigma in [("213_prepend", patterns.P213), ("312_prepend", patterns.P312)]:
        for n in range(7):
            dom = [p for p in enumerate_class(n, "all") if avoids(p, {sigma})]
            grown = 0
            for p in dom:
                q = bijection(name, p)
                if is_desarrangement(p):
                    assert q == p
                else:
                    assert len(q) == n + 1 and is_desarrangement(q)
                    assert BIJECTIONS[name].inverse(q) == p
                    grown += 1
            assert grown == class_count(n + 1, {sigma}, "desarrangements")
            # the cardinality identity these maps prove
            assert sequence("catalan", n) == (
                class_count(n, {sigma}, "desarrangements")
                + class_count(n + 1, {sigma}, "desarrangements"))


def test_involutions_toggle():
    for name, pats in [("132_231_toggle", parse_patterns("132,231")),
                       ("231_321_swap", parse_patterns("231,321"))]:
        for n in range(2, 7):
            for p in enumerate_class(n, "all"):
                if not avoids(p, pats):
                    continue
                q = bijection(name, p)
                assert avoids(q, pats)
                assert is_desarrangement(q) != is_desarrangement(p)
                assert bijection(name, q) == p


def test_strip_and_trim_roundtrips():
    for n in range(2, 8):
        pats = parse_patterns("312,321")
        dom = [p for p in enumerate_class(n, "desarrangements") if avoids(p, pats)]
        for p in dom:
            q = bijection("312_321_strip", p)
            assert avoids(q, pats) and len(q) == n - 2
            assert BIJECTIONS["312_321_strip"].inverse(q) == p
    for name, label in [("123_132_213_trim", "123,132,213"),
                        ("231_312_321_trim", "231,312,321")]:
        pats = parse_patterns(label)
        for n in range(3, 8):
            for p in enumerate_class(n, "desarrangements"):
                if not avoids(p, pats):
                    continue
                q = bijection(name, p)
                grow = n - len(q)
                assert grow in (1, 2)
                assert is_desarrangement(q) and avoids(q, pats)
                assert BIJECTIONS[name].inverse(q, grow) == p


def test_simion_schmidt():
    name = "simion_schmidt(all)"
    assert bijection(name, (2, 1, 3)) == (2, 1, 3)
    dec = (5, 4, 3, 2, 1)
    assert bijection(name, dec) == dec
    with pytest.raises(DomainError):
        bijection(name, (1, 2, 3))
    for n in range(7):
        images = set()
        for p in enumerate_class(n, "all"):
            if not avoids(p, {patterns.P123}):
                continue
            q = bijection(name, p)
            assert avoids(q, {patterns.P132})
            assert BIJECTIONS[name].inverse(q) == p
            # the map preserves being a desarrangement (checked exhaustively)
            assert is_desarrangement(q) == is_desarrangement(p)
            images.add(q)
        assert len(images) == class_count(n, {patterns.P132}, "all")


def test_equidistribution_report():
    report = equidistribution_report(6)
    assert len(report.entries) == 41
    by_label = {e.patterns: e for e in report.entries}
    e132 = by_label["132"]
    assert e132.counts_match and not e132.pixfix_match
    both = by_label["132,312"]
    assert both.counts_match and both.pixfix_match
    e321 = by_label["321"]
    assert not e321.counts_match
    # at n_max=6 one unlisted set has not yet diverged from the count list
    assert report.pixfix_list_exact
    data = report.to_json()
    assert data["n_max"] == 6 and len(data["entries"]) == 41


def test_all_pattern_sets():
    sets = list(all_pattern_sets())
    assert len(sets) == 64
    assert sets[0] == frozenset()
    assert len(sets[-1]) == 6
