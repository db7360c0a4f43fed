"""
Brute-force distributions by full enumeration.

This module deliberately depends only on the permutation core (plus the
standard library), never on the generating-function or run-theorem layers,
so a transcription bug over there cannot leak into the reference counts
used to check them.
"""
from __future__ import annotations

from collections import Counter

from .perms import (
    CENSUS_MAX, STAT_FUNCTIONS, census, class_predicate, contains_pattern, enumerate_class,
    pattern_mask,
)


def distribution(n: int, stats, klass: str = "desarrangements", restrict=None):
    """Exact joint counts of the named statistics over a permutation class.

    stats is a list of names from STAT_FUNCTIONS.  With one statistic the
    keys are plain values, otherwise tuples in the order given.  restrict,
    when present, is a set of length-3 patterns the permutations must avoid.

    Up to CENSUS_MAX the statistics are evaluated once per census key, on
    its stored member, and weighted by the key's count: fix is part of the
    key and every other statistic depends only on the descent set.  Above
    it every permutation of the class is visited.
    """
    fns = []
    for name in stats:
        if name not in STAT_FUNCTIONS:
            raise ValueError(f"unknown statistic {name!r}")
        fns.append(STAT_FUNCTIONS[name])
    value = fns[0] if len(fns) == 1 else lambda p: tuple(f(p) for f in fns)
    restrict = tuple(restrict) if restrict else ()
    counts = Counter()
    if n <= CENSUS_MAX:
        forbid = pattern_mask(restrict)
        member = class_predicate(klass)
        for (mask, _, _), (count, p) in census(n).items():
            if not mask & forbid and member(p):
                counts[value(p)] += count
        return dict(counts)
    for p in enumerate_class(n, klass):
        if restrict and any(contains_pattern(p, sigma) for sigma in restrict):
            continue
        counts[value(p)] += 1
    return dict(counts)


def marginal(joint: dict, index: int) -> dict:
    """Collapse a tuple-keyed joint distribution onto one coordinate."""
    out = Counter()
    for key, c in joint.items():
        out[key[index]] += c
    return dict(out)


def class_size(n: int, klass: str = "desarrangements") -> int:
    return sum(1 for _ in enumerate_class(n, klass))
