"""
Distribution tables counted by a dynamic program over the rank of the last
letter: the route the generating functions are checked against.

A permutation of length k + 1 is one of length k with a letter appended
in gap g (0..k) of the values so far: it takes rank g + 1, and the step is
up iff g >= r, the rank of the old last letter.  So each state keeps a
list over r of polynomials in t (lists of counts by t-exponent), and the
entry at rank g + 1 after an up step is the prefix sum over r <= g, after
a down step the total minus it.  A state is (last step, phase, s-exponent),
the phase being (no ascent yet, pix phase).  Over the desarrangements the
first up step after k letters puts the first ascent at k, which must be
even, and a word with no ascent at length n counts iff n is even.  Each
statistic in INCREMENTS adds one at each letter whose (previous step, this
step) ends with its word.

A row has the shape perms.tally returns: a count map with ascending keys,
{t-exponent: count}, or {(s-exponent, t-exponent): count} for a joint
table.  The module imports only the standard library, so no defect in the
formulas or the series can reach it.
"""
from __future__ import annotations

from collections import Counter
from operator import add, sub

# statistic -> the steps ending at a letter that it counts, previous step first
INCREMENTS = {
    "des": ("down",), "pk": ("up", "down"), "val": ("down", "up"),
    "dasc": ("up", "up"), "ddes": ("down", "down"),
}

# pix over S_n is m - 1 or m, with m the length of the first increasing run,
# as the decreasing run from its last letter on has even or odd length.  The
# phases: "rise" in the first run, carrying s^(m-1); "even" or "odd" in the
# decreasing run, by its parity; "done" once pix is settled.
# (phase, step) -> (phase, s-exponent added) ...
PIX_STEPS = {
    ("rise", "up"): ("rise", 1), ("rise", "down"): ("even", 0),
    ("even", "down"): ("odd", 0), ("odd", "down"): ("even", 0),
    ("even", "up"): ("done", 0), ("odd", "up"): ("done", 1),
    ("done", "up"): ("done", 0), ("done", "down"): ("done", 0),
}
# ... and phase -> the s-exponent added where the word ends
PIX_END = {"rise": 1, "even": 0, "odd": 1, "done": 0}

# table -> (class, statistic of t, statistic of s or None): the one statement
# of each counted table.  A table's tag names the formula it meets in
# formulas.FORMULAS.
TABLES = {
    "eulerian": ("all", "des", None),
    **{stat: ("desarrangements", stat, None) for stat in INCREMENTS},
    "joint_pk_des": ("desarrangements", "des", "pk"),
    "joint_pix_des": ("all", "des", "pix"),
}


def rows(tag: str, n_max: int) -> dict:
    """Rows 0..n_max of the named table, as {n: row}."""
    klass, t_stat, s_stat = TABLES[tag]
    t_word, s_word = INCREMENTS[t_stat], INCREMENTS.get(s_stat, ())

    def step(k, phase, prev, this):
        fresh, run = phase
        if fresh and this == "up":  # the first ascent, at position k
            if k % 2:
                return None
            fresh = False
        steps = (prev, this)
        ds = s_word != () and steps[2 - len(s_word):] == s_word
        if s_stat == "pix":
            run, ds = PIX_STEPS[run, this]
        return (fresh, run), ds, steps[2 - len(t_word):] == t_word

    def final(n, phase):
        fresh, run = phase
        if fresh and n % 2:
            return None
        return PIX_END[run] if s_stat == "pix" else 0

    table = walk(n_max, (klass == "desarrangements", "rise"), step, final)
    if s_stat:
        return table
    return {n: {j: c for (_, j), c in row.items()} for n, row in table.items()}


def walk(n_max: int, start, step, final) -> dict:
    """Rows 0..n_max of the words the rules keep, as {n: {(s, t): count}}
    with ascending keys; the empty word is row 0.

    The first letter has the phase start.  step(k, phase, prev, this) rules
    on a letter appended to k letters with step this ("up" or "down") after
    prev (None at k = 1): (phase, s-exponent added, t-exponent added), or
    None when no such word counts.  final(n, phase) is the s-exponent that
    ending at length n adds, or None when the word does not count.
    """
    states = {(None, start, 0): [[1]]}
    table = {0: {(0, 0): 1}}
    for n in range(1, n_max + 1):
        if n > 1:
            states = _grown(states, n - 1, step)
        counts = Counter()
        for (_, phase, s), ranks in states.items():
            ds = final(n, phase)
            if ds is not None:
                for j, c in enumerate(map(sum, zip(*ranks))):
                    if c:
                        counts[s + ds, j] += c
        table[n] = dict(sorted(counts.items()))
    return table


def _grown(states: dict, k: int, step) -> dict:
    """The states after k + 1 letters, from those after k: each polynomial
    gains one place for the t-exponent the new letter may add."""
    out = {}
    for (prev, phase, s), ranks in states.items():
        up = [[0] * k]  # up[g]: the entries at ranks 1..g
        for entry in ranks:
            up.append(list(map(add, up[-1], entry)))
        down = [list(map(sub, up[-1], below)) for below in up]
        for this, entries in (("up", up), ("down", down)):
            rule = step(k, phase, prev, this)
            if rule is None:
                continue
            phase_, ds, dt = rule
            entries = [[0, *e] if dt else [*e, 0] for e in entries]
            key = (this, phase_, s + ds)
            have = out.get(key)
            out[key] = entries if have is None else [
                list(map(add, a, b)) for a, b in zip(have, entries)]
    return out
