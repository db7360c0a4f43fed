"""
Brute-force distributions by full enumeration.

This module deliberately depends only on the permutation core (plus the
standard library), never on the generating-function or run-theorem layers,
so a transcription bug over there cannot leak into the reference counts
used to check them.  Every count here is one perms.tally.
"""
from __future__ import annotations

from collections import Counter

from .perms import STAT_FUNCTIONS, tally


def distribution(n: int, stats, klass: str = "desarrangements"):
    """Exact joint counts of the named statistics over a permutation class.

    stats is a list of names from STAT_FUNCTIONS.  With one statistic the
    keys are plain values, otherwise tuples in the order given; they ascend.
    Every statistic depends only on the descent set and the fixed points, as
    perms.tally requires.
    """
    fns = []
    for name in stats:
        if name not in STAT_FUNCTIONS:
            raise ValueError(f"unknown statistic {name!r}")
        fns.append(STAT_FUNCTIONS[name])
    value = fns[0] if len(fns) == 1 else lambda p: tuple(f(p) for f in fns)
    return tally(n, (), klass, value)


def marginal(joint: dict, *indices: int) -> dict:
    """Collapse a tuple-keyed joint distribution onto the given coordinates:
    plain keys for one, tuples in the order given for several; keys ascend."""
    out = Counter()
    for key, c in joint.items():
        out[key[indices[0]] if len(indices) == 1 else tuple(key[i] for i in indices)] += c
    return dict(sorted(out.items()))
