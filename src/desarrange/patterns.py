"""
Pattern avoidance in desarrangements: brute-force class counts, closed-form
counts for every subset of the six length-3 patterns, the classical
sequences those counts realize, and the bijections that prove them.

Pattern sets are frozensets of length-3 patterns written as tuples; the
canonical listing order is 123, 132, 213, 231, 312, 321.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .oracle import marginal
from .perms import (  # pattern_mask is re-exported
    PATTERNS, Perm, class_predicate, contains_pattern, fix, is_desarrangement,
    pattern_mask, pix, standardize, tally,
)

P123, P132, P213, P231, P312, P321 = PATTERNS


class DomainError(ValueError):
    """Input outside a bijection's stated domain."""


def pattern_name(sigma) -> str:
    return "".join(str(v) for v in sigma)


def parse_patterns(text: str) -> frozenset[Perm]:
    """Parse "213,321" (or "{213,321}") into a pattern set."""
    text = text.strip().strip("{}")
    if not text:
        return frozenset()
    by_name = {pattern_name(sigma): sigma for sigma in PATTERNS}
    out = set()
    for chunk in text.split(","):
        sigma = by_name.get(chunk.strip())
        if sigma is None:
            raise ValueError(f"not a length-3 pattern: {chunk.strip()!r}")
        out.add(sigma)
    return frozenset(out)


def patterns_label(patterns) -> str:
    return ",".join(pattern_name(s) for s in sorted(patterns))


def all_pattern_sets():
    """All 64 subsets, ordered by size then canonical pattern order."""
    for r in range(7):
        for combo in itertools.combinations(PATTERNS, r):
            yield frozenset(combo)


def avoids(p, patterns) -> bool:
    """True iff no subsequence of p standardizes to a pattern in the set."""
    return all(not contains_pattern(p, sigma) for sigma in patterns)


# --- classical sequences (indexing pinned to the tables in use) ---
#
# Each row is (terms, rule): terms starts as the sequence's first terms, and
# rule(m, terms) gives term m from the terms before it.  sequence() extends
# the list in place, so each term is computed once per process.

SEQUENCES = {
    "catalan": ([1], lambda m, c: c[m - 1] * 2 * (2 * m - 1) // (m + 1)),
    # F_0 = 0, F_1 = 1, F_2 = 0, ... by C_m = 2 F_(m+1) + F_m
    "fine": ([0, 1], lambda m, f: (sequence("catalan", m - 1) - f[m - 1]) // 2),
    "jacobsthal": ([0, 1], lambda m, j: j[m - 1] + 2 * j[m - 2]),
    "fibonacci": ([0, 1], lambda m, f: f[m - 1] + f[m - 2]),
    # a_(m+1) = C_m - a_m gives a_11 = 13035; a printed table elsewhere
    # repeats 3761 at index 11, which the recurrence (and brute force over
    # the 213-avoiding desarrangements of length 11) contradicts
    "a_seq": ([1], lambda m, a: sequence("catalan", m - 1) - a[m - 1]),
    "derangement": ([1], lambda m, d: m * d[m - 1] + (-1) ** m),
}
SEQUENCE_IDS = tuple(SEQUENCES)


def sequence(tag: str, n: int) -> int:
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    if tag not in SEQUENCES:
        raise ValueError(f"unknown sequence {tag!r}; have {SEQUENCE_IDS}")
    terms, rule = SEQUENCES[tag]
    while len(terms) <= n:
        terms.append(rule(len(terms), terms))
    return terms[n]


# --- closed-form counts for all 64 pattern subsets ---
#
# Values at n <= 2 are 1, 0, 1 for every subset (the only permutations are
# too short to contain a length-3 pattern, and 21 is a desarrangement).
# The dispatch below applies for n >= 3.  The handful of subsets containing
# {123, 321} that no other rule covers die out at n >= 5; their n = 3, 4
# values were computed by brute force once and are frozen here.

_EXPLICIT_FORMULAS = {
    frozenset(): lambda n: sequence("derangement", n),
    frozenset({P123}): lambda n: sequence("fine", n + 1),
    frozenset({P132}): lambda n: sequence("fine", n + 1),
    frozenset({P231}): lambda n: sequence("fine", n + 1),
    frozenset({P213}): lambda n: sequence("a_seq", n),
    frozenset({P312}): lambda n: sequence("a_seq", n),
    frozenset({P321}): lambda n: sequence("catalan", n - 1),
    frozenset({P132, P321}): lambda n: n - 1,
    frozenset({P132, P231, P321}): lambda n: n - 1,
    frozenset({P132, P231}): lambda n: 2 ** (n - 2),
    frozenset({P231, P321}): lambda n: 2 ** (n - 2),
    frozenset({P312, P321}): lambda n: 2 ** (n - 3),
    frozenset({P123, P213}): lambda n: sequence("jacobsthal", n - 1),
    frozenset({P132, P213}): lambda n: sequence("jacobsthal", n - 1),
    frozenset({P213, P231}): lambda n: sequence("jacobsthal", n - 1),
    frozenset({P132, P312}): lambda n: sequence("jacobsthal", n - 1),
    frozenset({P231, P312}): lambda n: sequence("jacobsthal", n - 1),
    frozenset({P123, P132}): lambda n: (2 ** (n + 1) + (7 - 3 * n) * (-1) ** n) // 9,
    frozenset({P123, P231}): lambda n: (2 * n * (n - 1) + (5 - 2 * n) * (-1) ** n + 3) // 8,
    frozenset({P123, P312}): lambda n: ((n - 1) ** 2 + 3) // 4,  # ceil((n-1)^2 / 4)
    frozenset({P123, P132, P231}): lambda n: n - 1 if n % 2 else 1,
    frozenset({P123, P132, P312}): lambda n: n // 2,
    frozenset({P123, P231, P312}): lambda n: n // 2,
    frozenset({P123, P213, P231}): lambda n: n // 2,
    frozenset({P132, P213, P231}): lambda n: n // 2,
    frozenset({P132, P231, P312}): lambda n: n // 2,
    frozenset({P123, P132, P213}): lambda n: sequence("fibonacci", n - 1),
    frozenset({P231, P312, P321}): lambda n: sequence("fibonacci", n - 1),
    # one element for every n >= 3: the decreasing permutation when n is
    # even, and n(n-1)...312 resp. (n-1)...21n when n is odd
    frozenset({P123, P132, P231, P213}): lambda n: 1,
    frozenset({P123, P132, P231, P312}): lambda n: 1,
}

_ERDOS_SZEKERES_SMALL = {
    # subsets containing {123, 321} not covered elsewhere: (value at n=3, at n=4)
    frozenset({P123, P321}): (2, 2),
    frozenset({P123, P132, P321}): (2, 0),
    frozenset({P123, P231, P321}): (2, 1),
    frozenset({P123, P312, P321}): (1, 1),
    frozenset({P123, P132, P231, P321}): (2, 0),
    frozenset({P123, P231, P312, P321}): (1, 1),
}


def closed_form_count(n: int, patterns) -> int:
    """d_n of the avoidance class, by formula dispatch (no enumeration)."""
    patterns = frozenset(patterns)
    pattern_mask(patterns)  # rejects anything but length-3 patterns
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 2:
        return (1, 0, 1)[n]
    if patterns in _EXPLICIT_FORMULAS:
        return _EXPLICIT_FORMULAS[patterns](n)
    if {P213, P312} <= patterns:
        # only the decreasing permutation survives, on even lengths
        return 1 if n % 2 == 0 and P321 not in patterns else 0
    if {P213, P321} <= patterns:
        # only n12...(n-1) survives; it contains 312 always, and 123 once n >= 4
        return 1 if P312 not in patterns and (P123 not in patterns or n == 3) else 0
    if {P132, P312, P321} <= patterns:
        # only 2134...n survives; it contains 213 always, and 123 once n >= 4
        return 1 if P213 not in patterns and (P123 not in patterns or n == 3) else 0
    small = _ERDOS_SZEKERES_SMALL[patterns]
    return small[n - 3] if n <= 4 else 0


# --- proof bijections ---
# bijection() checks each map's input against the domain its row declares;
# the guards left in the maps pick a branch or protect an index.

def _require(cond: bool, message: str):
    if not cond:
        raise DomainError(message)


def _insert_one_forward(p):
    lifted = [v + 1 for v in p]
    return (lifted[0], 1, *lifted[1:])


def _insert_one_inverse(q):
    return tuple(v - 1 for v in q if v != 1)


def _prepend_max_forward(p):
    if is_desarrangement(p):
        return tuple(p)
    return (len(p) + 1, *p)


def _prepend_max_inverse(q):
    return q[1:]


def _prepend_lift_forward(p):
    if is_desarrangement(p):
        return tuple(p)
    head = p[0]
    lifted = tuple(v + 1 if v > head else v for v in p)
    return (head + 1, *lifted)


def _prepend_lift_inverse(q):
    pivot = q[1]
    return tuple(v - 1 if v > pivot else v for v in q[1:])


def _toggle_max(p):
    n = len(p)
    if p[0] == n:
        return (*p[1:], p[0])
    _require(p[-1] == n, "class members carry n at an end")
    return (p[-1], *p[:-1])


def _swap_first_two(p):
    return (p[1], p[0], *p[2:])


def _strip_21_forward(p):
    return standardize(p[2:])


def _strip_21_inverse(q):
    return (2, 1, *(v + 2 for v in q))


def _fib_left_trim_forward(p):
    if p[-2:] == (2, 1):
        return standardize(p[:-2])
    return standardize(p[:-1])


def _fib_left_trim_inverse(q, grow: int):
    if grow == 2:
        return (*(v + 2 for v in q), 2, 1)
    if q[-2] == 1:
        return (*(v + 1 for v in q), 1)
    _require(q[-1] == 1, "class members carry 1 in one of the last two positions")
    return (*(v + 1 if v >= 2 else v for v in q), 2)


def _fib_right_trim_forward(p):
    n = len(p)
    if p[-2:] == (n, n - 1):
        return p[:-2]
    _require(p[-1] == n, "class members end with n or n(n-1)")
    return p[:-1]


def _fib_right_trim_inverse(q, grow: int):
    m = len(q)
    if grow == 2:
        return (*q, m + 2, m + 1)
    return (*q, m + 1)


def _simion_schmidt(largest: bool):
    """The Simion-Schmidt fill: left-to-right minima stay put, and every other
    position receives the smallest unused value exceeding the running minimum
    (123-avoiders onto 132-avoiders) or, with largest, the largest unused
    value (the inverse)."""
    def fill(p) -> Perm:
        n = len(p)
        used = set()
        out = []
        cur_min = n + 1
        for v in p:
            if v < cur_min:
                cur_min = c = v
            else:
                c, step = (n, -1) if largest else (cur_min + 1, 1)
                while c in used:
                    c += step
            out.append(c)
            used.add(c)
        return tuple(out)
    return fill


def _av(labels: str, klass: str = "all") -> tuple[frozenset[Perm], str]:
    """An avoidance class: the members of klass avoiding the listed patterns."""
    return parse_patterns(labels), klass


class Bijection(namedtuple("Bijection", "name forward inverse domain target shifts "
                                       "n_min fixes flips",
                           defaults=(0, None, False))):
    """A proof bijection and the class identity it proves.

    Domain and target are (pattern set, class) pairs.  On each length
    n >= n_min, forward maps the domain one-to-one onto the target, and
    len(image) - len(preimage) is one of the shifts; so |domain_n| is the
    sum over the shifts of |target_{n+shift}|.  Domain members in the class
    `fixes` map to themselves instead and stay out of that sum; `flips`
    says the map toggles desarrangement membership.

    The row is the only statement of the domain: bijection() rejects
    inputs outside it, and verify compares the images at each shift with
    the generated target class of length n + shift.  The inverse takes
    grow = -shift when the map is graded.
    """
    __slots__ = ()

    @property
    def graded(self) -> bool:
        """True when images come in several lengths, so the inverse needs grow."""
        return len(self.shifts) > 1


BIJECTIONS = {
    b.name: b for b in [
        # lift letters by 1 and insert 1 after the first letter: 321-avoiders
        # of length n-1 onto 321-avoiding desarrangements
        Bijection("321_insert", _insert_one_forward, _insert_one_inverse,
                  _av("321"), _av("321", "desarrangements"), (1,), n_min=1),
        # prepend n+1 to non-desarrangements; the inverse strips the leading maximum
        Bijection("213_prepend", _prepend_max_forward, _prepend_max_inverse,
                  _av("213"), _av("213", "desarrangements"), (1,),
                  fixes="desarrangements"),
        # lift letters above p1 and prepend p1+1 to non-desarrangements; the
        # inverse undoes the lift
        Bijection("312_prepend", _prepend_lift_forward, _prepend_lift_inverse,
                  _av("312"), _av("312", "desarrangements"), (1,),
                  fixes="desarrangements"),
        # move n between the ends
        Bijection("132_231_toggle", _toggle_max, _toggle_max,
                  _av("132,231"), _av("132,231"), (0,), n_min=2, flips=True),
        # swap the first two letters
        Bijection("231_321_swap", _swap_first_two, _swap_first_two,
                  _av("231,321"), _av("231,321"), (0,), n_min=2, flips=True),
        # drop the forced 21 prefix and standardize
        Bijection("312_321_strip", _strip_21_forward, _strip_21_inverse,
                  _av("312,321", "desarrangements"), _av("312,321"), (-2,), n_min=2),
        # drop the final letter, or the final 21, and standardize
        Bijection("123_132_213_trim", _fib_left_trim_forward, _fib_left_trim_inverse,
                  _av("123,132,213", "desarrangements"),
                  _av("123,132,213", "desarrangements"), (-1, -2), n_min=3),
        # drop a final n, or a final n(n-1)
        Bijection("231_312_321_trim", _fib_right_trim_forward, _fib_right_trim_inverse,
                  _av("231,312,321", "desarrangements"),
                  _av("231,312,321", "desarrangements"), (-1, -2), n_min=3),
        # Simion-Schmidt, keeping the left-to-right minima, over S_n and
        # restricted to the desarrangements, where every length up from 2
        # has members (D_1 is empty)
        *(Bijection(f"simion_schmidt({klass})", _simion_schmidt(False), _simion_schmidt(True),
                    _av("123", klass), _av("132", klass), (0,), n_min=n_min)
          for klass, n_min in (("all", 0), ("desarrangements", 2))),
    ]
}


def bijection(name: str, p) -> Perm:
    """Apply a named proof bijection to a member of its declared domain:
    length n_min or more, in the class, avoiding the patterns.  Anything
    else raises DomainError.

    >>> bijection("simion_schmidt(all)", (2, 1, 4, 3))
    (2, 1, 3, 4)
    >>> bijection("simion_schmidt(all)", (1, 2, 3))
    Traceback (most recent call last):
        ...
    desarrange.patterns.DomainError: input does not avoid 123
    """
    if name not in BIJECTIONS:
        raise ValueError(f"unknown bijection {name!r}; have {sorted(BIJECTIONS)}")
    b = BIJECTIONS[name]
    p = tuple(p)
    pats, klass = b.domain
    _require(len(p) >= b.n_min, f"input needs length >= {b.n_min}")
    _require(class_predicate(klass)(p), f"input lies outside the {klass}")
    _require(avoids(p, pats), f"input does not avoid {patterns_label(pats)}")
    return b.forward(p)


# --- derangement comparison and the pix/fix conjecture ---

COUNTS_THEOREM_SETS = tuple(frozenset(parse_patterns(s)) for s in (
    "132", "132,312", "132,321", "213,231", "123,132,312", "123,213,231",
    "123,312,321", "132,312,321", "213,231,312", "213,231,321",
))

PIXFIX_CONJECTURE_SETS = tuple(s for s in COUNTS_THEOREM_SETS
                               if s != frozenset({P132}))


class PatternSetEvidence(namedtuple("PatternSetEvidence",
                                    "patterns counts_match pixfix_match "
                                    "in_counts_theorem in_pixfix_conjecture")):
    """One pattern set's verdicts: counts_match says d_n equals the derangement
    count for all checked n, pixfix_match that the pix and fix distributions
    agree on S_n(Pi)."""
    __slots__ = ()


class EquidistributionReport(namedtuple("EquidistributionReport", "n_max entries")):
    """The PatternSetEvidence of every set of 1 to 3 patterns, by size, then canonically."""
    __slots__ = ()

    RESOLVED_AT = 7  # smallest n_max distinguishing every unlisted set

    def failures(self) -> list[str]:
        """Notes on the sets that contradict the count list or the conjecture.

        A listed set must agree at every n_max.  Below RESOLVED_AT several
        unlisted sets have not yet diverged, so only from there on must the
        lists be exact.
        """
        notes = []
        for e in self.entries:
            if self.n_max >= self.RESOLVED_AT:
                if e.counts_match != e.in_counts_theorem:
                    notes.append(f"{{{e.patterns}}} counts_match={e.counts_match} "
                                 f"but listed={e.in_counts_theorem}")
                if e.pixfix_match != e.in_pixfix_conjecture:
                    notes.append(f"{{{e.patterns}}} pixfix_match={e.pixfix_match} "
                                 f"but conjectured={e.in_pixfix_conjecture}")
            else:
                if e.in_counts_theorem and not e.counts_match:
                    notes.append(f"{{{e.patterns}}} is in the count list but differs")
                if e.in_pixfix_conjecture and not e.pixfix_match:
                    notes.append(f"{{{e.patterns}}} is conjectured but differs")
        return notes

    @property
    def counts_list_exact(self) -> bool:
        return all(e.counts_match == e.in_counts_theorem for e in self.entries)

    @property
    def pixfix_list_exact(self) -> bool:
        return all(e.pixfix_match == e.in_pixfix_conjecture for e in self.entries)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "counts_list_exact": self.counts_list_exact,
            "pixfix_list_exact": self.pixfix_list_exact,
            "entries": [e._asdict() for e in self.entries],
        }


def equidistribution_report(n_max: int = 8) -> EquidistributionReport:
    """Evidence for the derangement-count theorem and the pix/fix conjecture.

    For every pattern set with 1 <= |Pi| <= 3, checks for all n <= n_max
    whether desarrangement and derangement avoidance counts agree, and
    whether the pix and fix distributions over S_n(Pi) agree.  Evidence
    only: agreement up to n_max proves nothing beyond it.
    """
    entries = []
    pix_by_descents = {}  # pix reads only n and the descent set, which the 41 sets share

    def fix_pix(p):
        key = (len(p), *map(operator.gt, p, p[1:]))
        px = pix_by_descents.get(key)
        if px is None:
            px = pix_by_descents[key] = pix(p)
        return fix(p), px

    for pats in all_pattern_sets():
        if not 1 <= len(pats) <= 3:
            continue
        counts_ok = True
        pixfix_ok = True
        for n in range(n_max + 1):
            joint = tally(n, pats, "all", fix_pix)
            fix_dist, pix_dist = marginal(joint, 0), marginal(joint, 1)
            # derangements have no fixed point, desarrangements no pixed point
            if fix_dist.get(0) != pix_dist.get(0):
                counts_ok = False
            if fix_dist != pix_dist:
                pixfix_ok = False
        entries.append(PatternSetEvidence(
            patterns=patterns_label(pats),
            counts_match=counts_ok,
            pixfix_match=pixfix_ok,
            in_counts_theorem=pats in COUNTS_THEOREM_SETS,
            in_pixfix_conjecture=pats in PIXFIX_CONJECTURE_SETS,
        ))
    return EquidistributionReport(n_max, entries)
