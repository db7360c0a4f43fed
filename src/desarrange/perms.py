"""
Permutations in one-line notation and the statistics defined on them.

Permutations are plain tuples of the values 1..n; the empty tuple is the
(unique) permutation of length 0.  All positions and values are 1-based.

Convention warning: an *ascent* of a length-n permutation is any position
i in [n] that is not a descent -- so the last position is always an
ascent.  Most other libraries do not count position n; everything in this
package (most importantly the notion of a desarrangement, a permutation
whose first ascent is even) depends on this convention.
"""
from __future__ import annotations

import functools
import itertools
import os
from collections import Counter, defaultdict, namedtuple
from types import MappingProxyType

Perm = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 11
CAP_ENV_VAR = "DESARRANGE_CAP"


class CapExceededError(Exception):
    """Enumeration request above the configured length cap."""


class InvariantError(AssertionError):
    """An internal structural invariant failed; signals a bug."""


class CapSettingError(ValueError):
    """DESARRANGE_CAP holds something other than a non-negative integer."""


def standardize(word) -> Perm:
    """Replace the smallest letter by 1, the next smallest by 2, and so on.

    >>> standardize((3, 6, 8, 1, 5))
    (2, 4, 5, 1, 3)
    >>> standardize(())
    ()
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError(f"letters must be distinct: {word}")
    rank = {v: i for i, v in enumerate(sorted(word), 1)}
    return tuple(rank[v] for v in word)


def first_ascent(p) -> int | None:
    """Smallest ascent position (position n counts), or None when p is empty.

    >>> first_ascent((4, 3, 2, 1))
    4
    >>> first_ascent((2, 1, 3))
    2
    """
    n = len(p)
    if n == 0:
        return None
    i = 0
    while i < n - 1 and p[i] > p[i + 1]:
        i += 1
    return i + 1


def is_desarrangement(p) -> bool:
    """True iff the first ascent of p is even; the empty permutation counts.

    >>> is_desarrangement((2, 1, 3))
    True
    >>> is_desarrangement((1, 2, 3))
    False
    >>> is_desarrangement(())
    True
    """
    fa = first_ascent(p)
    return fa is None or fa % 2 == 0


def des(p) -> int:
    """Number of positions i < n with p_i > p_{i+1}."""
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def pk(p) -> int:
    """Number of interior positions with p_{i-1} < p_i > p_{i+1}."""
    return sum(1 for i in range(1, len(p) - 1) if p[i - 1] < p[i] > p[i + 1])


def val(p) -> int:
    """Number of interior positions with p_{i-1} > p_i < p_{i+1}."""
    return sum(1 for i in range(1, len(p) - 1) if p[i - 1] > p[i] < p[i + 1])


def dasc(p) -> int:
    """Number of interior positions with p_{i-1} < p_i < p_{i+1}."""
    return sum(1 for i in range(1, len(p) - 1) if p[i - 1] < p[i] < p[i + 1])


def ddes(p) -> int:
    """Number of interior positions with p_{i-1} > p_i > p_{i+1}."""
    return sum(1 for i in range(1, len(p) - 1) if p[i - 1] > p[i] > p[i + 1])


def rval(p) -> int:
    """Number of right valleys: valleys, plus position n when p ends with a descent."""
    n = len(p)
    r = val(p)
    if n >= 2 and p[n - 2] > p[n - 1]:
        r += 1
    return r


def fix(p) -> int:
    """Number of fixed points."""
    return sum(1 for i, v in enumerate(p, 1) if v == i)


def descent_composition(p) -> tuple[int, ...]:
    """Lengths of the maximal increasing runs of p, in order.

    >>> descent_composition((3, 1, 7, 5, 4, 2, 6, 8, 9))
    (1, 2, 1, 1, 4)
    >>> descent_composition(())
    ()
    """
    n = len(p)
    if n == 0:
        return ()
    parts = []
    run = 1
    for i in range(n - 1):
        if p[i] < p[i + 1]:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return tuple(parts)


class PixedFactorization(namedtuple("PixedFactorization", "iota_len delta")):
    """The unique split p = iota . delta with iota increasing and delta a desarrangement.

    delta holds the literal suffix letters (not standardized).
    """
    __slots__ = ()


def pixed_factorization(p) -> PixedFactorization:
    """Split p into its increasing prefix iota and desarrangement suffix delta.

    Scans every prefix length from 0 up to the maximal increasing prefix and
    requires exactly one candidate to leave a desarrangement suffix; no
    closed-form rule for the winning length is assumed.

    >>> pixed_factorization((4, 6, 7, 8, 5, 2, 1, 3))
    PixedFactorization(iota_len=3, delta=(8, 5, 2, 1, 3))
    """
    p = tuple(p)
    n = len(p)
    m = 0
    while m < n - 1 and p[m] < p[m + 1]:
        m += 1
    if n:
        m += 1  # maximal increasing prefix length
    # first-ascent parity depends only on relative order, so a suffix needs
    # no standardization
    valid = [k for k in range(m + 1) if is_desarrangement(p[k:])]
    if len(valid) != 1:
        raise InvariantError(f"pixed factorization not unique for {p}: splits {valid}")
    k = valid[0]
    return PixedFactorization(iota_len=k, delta=p[k:])


def pix(p) -> int:
    """Number of pixed points: the length of the increasing factor."""
    return pixed_factorization(p).iota_len


STAT_FUNCTIONS = {
    "des": des, "pk": pk, "val": val, "dasc": dasc,
    "ddes": ddes, "rval": rval, "fix": fix, "pix": pix,
}


_CLASS_TESTS = {
    "all": lambda p: True,
    "desarrangements": is_desarrangement,
}
CLASSES = tuple(_CLASS_TESTS)


def check_cap(n: int):
    """Raise ValueError for a negative n, and CapExceededError above the
    enumeration cap: the DESARRANGE_CAP environment variable, else the default."""
    if n < 0:
        raise ValueError("n must be non-negative")
    raw = os.environ.get(CAP_ENV_VAR) or str(DEFAULT_ENUMERATION_CAP)
    try:
        limit = int(raw)
    except ValueError:
        limit = -1  # not an integer: refused with the negative ones
    if limit < 0:
        raise CapSettingError(f"{CAP_ENV_VAR} must be a non-negative integer, got {raw!r}")
    if n > limit:
        raise CapExceededError(f"n={n} exceeds enumeration cap {limit}")


def capped(fn):
    """Memoize fn(n, ...) and check n against the enumeration cap before every
    lookup, so an answer computed under one cap cannot escape a lower cap set
    later.  cache_info is the memo's."""
    memo = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def lookup(n, *args):
        check_cap(n)
        return memo(n, *args)

    lookup.cache_info = memo.cache_info
    return lookup


def class_predicate(klass: str):
    """Membership test of one of the CLASSES, as a function of a permutation."""
    if klass not in CLASSES:
        raise ValueError(f"unknown class {klass!r}; expected one of {CLASSES}")
    return _CLASS_TESTS[klass]


def enumerate_class(n: int, klass: str = "all"):
    """Yield the permutations of 1..n in the given class, in lexicographic order.

    klass is "all" or "desarrangements".  Lengths above the enumeration cap
    (default 11, override via the DESARRANGE_CAP environment variable) raise
    CapExceededError.
    """
    member = class_predicate(klass)
    check_cap(n)
    perms = itertools.permutations(range(1, n + 1))
    yield from perms if klass == "all" else filter(member, perms)


# --- pattern primitives (length-3 patterns only) ---

# The six length-3 patterns in lexicographic (canonical) order; bit k of a
# pattern mask stands for PATTERNS[k].
PATTERNS: tuple[Perm, ...] = tuple(itertools.permutations((1, 2, 3)))


def _pattern(sigma) -> Perm:
    """sigma as a tuple; ValueError unless it is one of the PATTERNS."""
    sigma = tuple(sigma)
    if sigma not in PATTERNS:
        raise ValueError(f"not a length-3 pattern: {sigma}")
    return sigma


def pattern_mask(patterns) -> int:
    """Bitmask over PATTERNS of a set of length-3 patterns.

    >>> pattern_mask({(1, 2, 3), (3, 2, 1)})
    33
    """
    mask = 0
    for sigma in patterns:
        mask |= 1 << PATTERNS.index(_pattern(sigma))
    return mask


def triple_pattern(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Standardization of three distinct letters, as a length-3 pattern.

    >>> triple_pattern(5, 3, 4)
    (3, 1, 2)
    """
    return (1 + (a > b) + (a > c), 1 + (b > a) + (b > c), 1 + (c > a) + (c > b))


def contains_pattern(p, sigma) -> bool:
    """True iff some subsequence of p standardizes to the length-3 pattern sigma."""
    sigma = _pattern(sigma)
    n = len(p)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if triple_pattern(p[i], p[j], p[k]) == sigma:
                    return True
    return False


# --- prefix walker: the S_n census and generated avoiders ---

CENSUS_MAX = 9  # tally reads the census up to this length and walks the class above it

# Every walker state with at most TAIL letters left gets its table of
# completions once, and each prefix with TAIL letters left replays its
# state's table; 0 turns the memo off, so every prefix runs to its end.
# At 4 census(9) takes 0.09 s, census(10) 0.72 s and the empty-set tally
# walk of S_10 0.49 s, and the n = 9 census walk peaks at 3.5 MB.  At 5
# census(9) takes as long and the S_10 walks are faster (0.44 and 0.30 s),
# but the n = 9 walk peaks at 8.6 MB; at 3 census(9) takes 0.16 s (best of
# 3-5, one process, tracemalloc peak, Python 3.11, shared 2-CPU host).
TAIL = 4

_NO_TAIL = ((0, 0, 0, ()),)  # the one empty completion of a full-length prefix


def _walk(n: int, track: int, forbid: int, klass: str, fold, visit):
    """Call visit(prefix, mask, descent word, fix, fold(tails)) on the class,
    in lexicographic order; a prefix with no tail is skipped.

    Each tail (mask bits, descent bits, fixed points, letters) completes the
    prefix to one member, with mask | bits, descent word | bits (the word
    comes shifted past the tail) and fix + fixed points.  The tails come in
    lexicographic order, and a full-length prefix comes with the one empty
    tail.

    The walk appends the unused values in increasing order, so every value
    still unused is placed later, and a pattern is certain from the step
    that gives it a completion value among the unused ones.  With U the used
    values and c the appended letter: some u in U below c makes 123
    complete on (c, n], 132 on (min U, c) and 231 on [1, max(U below c));
    some u in U above c makes 321 complete on [1, c), 312 on (c, max U) and
    213 on (min(U above c), n].  Every occurrence of a pattern is found
    this way at its middle letter, so the step that places c settles each
    pattern in O(1), and nothing about patterns is carried forward.

    The mask holds the patterns of track (bitmask over PATTERNS) that each
    member contains: the census tracks all six, an avoider walk none.  A
    prefix that makes a pattern of forbid certain is dropped, and so is one
    that can no longer end in the class, so the work grows with the number
    of permutations reached rather than with n!.

    Below a prefix the walk reads only its used values, its last letter and
    whether it has an ascent yet.  So each such state with at most TAIL
    letters left gets its table of tails once, in a memo keyed by exactly
    that state, and builds it from the tables of the states it leads to:
    for each letter it may append, in increasing order, each tail of the
    next state with the letter prepended, its pattern bits ORed in, its
    descent bit set and its fixed point added.  The prefixes with TAIL
    letters left read their state's table, and fold runs once per state
    there: the census groups the table, the avoiders keep its letters.
    """
    class_predicate(klass)  # rejects an unknown class
    check_cap(n)
    full = (1 << (n + 1)) - 2  # bits 1..n, one per value
    desarr = klass == "desarrangements"
    # the patterns each step settles
    w123, w132, w213, w231, w312, w321 = ((track | forbid) >> k & 1 for k in range(6))
    cut = max(n - TAIL, 0)  # the length that reads the memo
    memo = {}
    shared = {}  # one copy of each distinct folded table
    prefix = []

    def moves(k, used, last, down):
        # (c, its bit, no ascent yet, pattern bits) for each letter c that a
        # state with k letters placed may append, in increasing order
        unused = full & ~used
        free = unused
        low = used & -used  # the bit of min U
        out = []
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            d = down
            if down and last < c and k:  # the first ascent is at position k
                if desarr and k % 2:
                    continue
                d = False
            # the rules above, each asking whether an unused value lies in
            # the completion set; a bit set compares above a single bit not
            # in it iff it holds a higher bit
            rest = unused ^ bit  # empty at the last letter, which settles nothing
            hit = 0
            below = used & (bit - 1)
            if below and rest:
                if w123 and rest > bit:  # an unused value above c
                    hit = 1
                if w132 and rest & (bit - 1) > low:  # one in (min U, c)
                    hit |= 2
                if w231 and rest & -rest < below:  # the least one below max(U below c)
                    hit |= 8
            if used > bit:  # some used value above c
                if w321 and rest & (bit - 1):  # an unused value below c
                    hit |= 32
                if w312:  # the least unused value above c is below max U
                    up = rest & -bit
                    if up and up & -up < used:
                        hit |= 16
                if w213:  # an unused value above min(U above c)
                    above = used & -bit
                    if rest > above & -above:
                        hit |= 4
            if not hit & forbid:
                out.append((c, bit, d, hit))
        return out

    def table(k, used, last, down):
        # the tails below a state with k letters placed, folded at the cut
        key = (used, last, down)
        tails = memo.get(key)
        if tails is None:
            if k == n:  # a desarrangement of odd length has its first ascent before n
                tails = () if desarr and down and n % 2 else _NO_TAIL
            else:
                shift = n - k - 1  # the descent bit of the letter placed next
                pos = k + 1
                tails = []
                for c, bit, d, hit in moves(k, used, last, down):
                    descent = (c < last) << shift
                    fixed = c == pos
                    for bits, dbits, fbits, letters in table(pos, used | bit, c, d):
                        tails.append((hit | bits, descent | dbits, fixed + fbits, (c,) + letters))
                tails = tuple(tails)
            if k == cut:
                tails = fold(tails)
                tails = shared.setdefault(tails, tails)
            memo[key] = tails
        return tails

    def step(k, used, last, mask, dw, fx, down):
        # k letters placed; down: no ascent yet
        if k == cut:
            tails = table(k, used, last, down)
            if tails:
                visit(prefix, mask, dw << n - k, fx, tails)
            return
        for c, bit, d, hit in moves(k, used, last, down):
            prefix.append(c)
            step(k + 1, used | bit, c, mask | hit, dw << 1 | (c < last), fx + (c == k + 1), d)
            prefix.pop()

    step(0, 0, 0, 0, 0, 0, True)
    # step and table refer to themselves; emptying their cells lets reference
    # counting free the memo and the visitor as soon as the walk returns
    del step, table


def _keyed(n: int, forbid: int, klass: str, track: int = 0) -> dict:
    """{pattern mask: {(descent word, fix): [count, first member]}} over the
    members of the class that avoid forbid, each in lexicographic order of
    first members.

    The mask holds only the tracked patterns: all six in the census, and
    none in tally's walk, where every member falls in group 0.  Each tail
    table is grouped once by (mask bits, descent bits, fixed points), each
    group keeping its count and first tail, in the order of first tails,
    and every prefix that reads the table replays the groups.  A key is
    packed in one int, (mask << n | descent word) << width | fix.
    """
    width = n.bit_length()  # fix <= n
    out = {}

    def fold(tails):
        groups = {}
        for bits, dbits, fbits, letters in tails:
            key = (bits << n | dbits) << width | fbits
            entry = groups.get(key)
            if entry is None:
                groups[key] = [1, letters]
            else:
                entry[0] += 1
        return tuple((key, count, letters) for key, (count, letters) in groups.items())

    def visit(prefix, mask, dw, fx, groups):
        high = (mask << n | dw) << width
        for key, count, letters in groups:
            key = (high | key) + fx  # fx + fixed points < 2**width
            try:
                out[key][0] += count
            except KeyError:
                out[key] = [count, tuple(prefix) + letters]

    _walk(n, track, forbid, klass, fold, visit)
    keyed = defaultdict(dict)
    for key, entry in out.items():
        keyed[key >> width >> n][key >> width & (1 << n) - 1, key & (1 << width) - 1] = entry
    return dict(keyed)


@capped
def census(n: int, klass: str):
    """The members of the class in S_n grouped by pattern mask, then keyed
    (descent word, fix); read by tally.

    Each key maps to (count, first member in lexicographic order).  The
    descent word is the int whose binary digits, most significant first,
    flag the descents at positions 1..n-1.  S_n is walked once; a class is
    its cut to the members, without the masks left empty.  Built on first
    use and cached per (n, class); lengths above the enumeration cap raise
    CapExceededError.

    >>> census(3, "all")[1]
    {(0, 3): (1, (1, 2, 3))}
    """
    member = class_predicate(klass)
    if klass == "all":
        return MappingProxyType({mask: {key: tuple(entry) for key, entry in group.items()}
                                 for mask, group in _keyed(n, 0, "all", 63).items()})
    cut = {}
    for mask, group in census(n, "all").items():
        members = {key: entry for key, entry in group.items() if member(entry[1])}
        if members:
            cut[mask] = members
    return MappingProxyType(cut)


def tally(n: int, patterns, klass: str, value) -> dict:
    """Counts of value(p) over the members of the class avoiding every given pattern.

    Contract: value(p) may depend only on the descent set of p and its
    number of fixed points, as every statistic in STAT_FUNCTIONS,
    descent_composition, is_desarrangement and pix do.
    Class membership depends on them too, so any member of a (descent
    word, fix) group stands for all of it.  Up to CENSUS_MAX, tally merges
    the groups of census(n, klass) whose mask misses the forbidden set by
    (descent word, fix); above it, it walks only the class members that
    avoid the patterns (all of them for the empty set), which come as the
    one group.  value is evaluated once per group, on one member.  Keys
    ascend.  Lengths above the enumeration cap raise CapExceededError.

    >>> tally(4, (), "desarrangements", des)
    {1: 3, 2: 5, 3: 1}
    >>> tally(5, {(1, 2, 3), (1, 3, 2)}, "all", fix)
    {0: 10, 1: 6}
    """
    forbid = pattern_mask(patterns)
    keyed = census(n, klass) if n <= CENSUS_MAX else _keyed(n, forbid, klass)
    groups = {}
    for mask, group in keyed.items():
        if not mask & forbid:
            for key, (count, p) in group.items():
                entry = groups.get(key)
                if entry is None:
                    groups[key] = [count, p]
                else:
                    entry[0] += count
    out = Counter()
    for count, p in groups.values():
        out[value(p)] += count
    return dict(sorted(out.items()))


def class_count(n: int, patterns, klass: str) -> int:
    """Number of members of the class avoiding every given pattern: the
    total of a tally with the same arguments.  Lengths above the
    enumeration cap raise CapExceededError.

    >>> class_count(5, {(3, 2, 1)}, "desarrangements")
    14
    """
    return sum(tally(n, patterns, klass, lambda p: None).values())


def avoiders(n: int, patterns, klass: str = "all") -> list[Perm]:
    """The members of the class that avoid every given length-3 pattern, in
    lexicographic order, built by extending prefixes (Simion-Schmidt).

    >>> avoiders(4, {(1, 2, 3), (1, 3, 2)}, "desarrangements")
    [(3, 2, 4, 1), (4, 2, 3, 1), (4, 3, 2, 1)]
    """
    forbid = pattern_mask(patterns)
    out = []

    def visit(prefix, mask, dw, fx, tails):
        head = tuple(prefix)
        out.extend(head + letters for letters in tails)

    _walk(n, 0, forbid, klass, lambda tails: tuple(tail[3] for tail in tails), visit)
    return out


# --- serialization ---

def perm_to_str(p) -> str:
    """Digit string for n <= 9, comma-separated otherwise; empty is "e".

    >>> perm_to_str((3, 1, 2, 5, 4))
    '31254'
    >>> perm_to_str(())
    'e'
    """
    if not p:
        return "e"
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)
