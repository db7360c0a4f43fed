import itertools

import pytest
from hypothesis import given, settings, strategies as st

from desarrange import perms
from desarrange.oracle import marginal
from desarrange.perms import (
    CapExceededError, InvariantError, descent_composition,
    enumerate_class, first_ascent, is_desarrangement,
    perm_to_str, pixed_factorization, standardize,
)

from reference_tables import DERANGEMENT_NUMBERS


def complement(p):
    """Replace each value v by n+1-v.

    >>> complement((3, 1, 2, 5, 4))
    (3, 5, 4, 1, 2)
    """
    n = len(p)
    return tuple(n + 1 - v for v in p)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def test_standardize():
    assert standardize((3, 6, 8, 1, 5)) == (2, 4, 5, 1, 3)
    assert standardize(()) == ()
    assert standardize((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(ValueError):
        standardize((1, 1, 2))


def test_complement():
    assert complement((3, 1, 2, 5, 4)) == (3, 5, 4, 1, 2)
    assert complement(()) == ()
    assert complement((2, 1)) == (1, 2)
    for n in range(7):
        for p in all_perms(n):
            assert complement(complement(p)) == p


def test_statistics_examples():
    stat = perms.STAT_FUNCTIONS
    assert stat["des"]((3, 1, 2, 5, 4)) == 2
    p = (2, 1, 4, 5, 7, 3, 6, 8, 9)
    assert [stat[k](p) for k in ("pk", "val", "dasc", "ddes")] == [1, 2, 4, 0]
    assert first_ascent((4, 3, 2, 1)) == 4
    assert stat["des"]((4, 3, 2, 1)) == 3
    assert first_ascent(()) is None
    assert [f(()) for f in stat.values()] == [0] * len(stat)


def test_is_desarrangement():
    assert is_desarrangement((2, 1, 3))
    assert not is_desarrangement((1, 2, 3))
    assert is_desarrangement(())
    assert not is_desarrangement((1,))
    assert is_desarrangement((4, 3, 2, 1))
    assert not is_desarrangement((5, 4, 3, 2, 1))


def test_descent_composition():
    assert descent_composition((3, 1, 7, 5, 4, 2, 6, 8, 9)) == (1, 2, 1, 1, 4)
    assert descent_composition((1, 2, 3, 4, 5)) == (5,)
    assert descent_composition((5, 4, 3, 2, 1)) == (1, 1, 1, 1, 1)
    assert descent_composition(()) == ()
    for n in range(7):
        for p in all_perms(n):
            assert sum(descent_composition(p)) == n


def test_pixed_factorization_examples():
    f = pixed_factorization((4, 6, 7, 8, 5, 2, 1, 3))
    assert f.iota_len == 3 and f.delta == (8, 5, 2, 1, 3)
    f = pixed_factorization((2, 1, 3))
    assert f.iota_len == 0 and f.delta == (2, 1, 3)
    f = pixed_factorization((1, 2, 3))
    assert f.iota_len == 3 and f.delta == ()
    assert pixed_factorization(()).iota_len == 0


def test_pixed_factorization_roundtrip_and_uniqueness():
    # the constructor itself asserts uniqueness; this is exhaustive n <= 8
    for n in range(9):
        for p in all_perms(n):
            f = pixed_factorization(p)
            assert p[: f.iota_len] + f.delta == p
            assert all(v < w for v, w in zip(p[: f.iota_len], p[1: f.iota_len]))
            assert is_desarrangement(f.delta)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_pixed_factorization_property(p):
    # beyond the exhaustive n <= 8: iota . delta recomposes p, iota is
    # increasing, delta is a desarrangement, and no other length splits p so
    p = tuple(p)
    f = pixed_factorization(p)
    k = f.iota_len
    assert p[:k] + f.delta == p
    assert all(v < w for v, w in zip(p[:k], p[1:k]))
    assert is_desarrangement(f.delta)
    splits = [j for j in range(len(p) + 1)
              if all(v < w for v, w in zip(p[:j], p[1:j])) and is_desarrangement(p[j:])]
    assert splits == [k]


def test_statistic_identities():
    for n in range(8):
        for p in all_perms(n):
            assert perms.pk(p) == perms.val(complement(p))
            if n and is_desarrangement(p):
                assert perms.rval(p) == perms.pk(p) + 1
            assert (perms.pix(p) == 0) == is_desarrangement(p)


def test_pix_fix_equidistributed():
    from collections import Counter
    for n in range(10):
        fixes = Counter(perms.fix(p) for p in all_perms(n))
        pixes = Counter(perms.pix(p) for p in all_perms(n))
        assert fixes == pixes


def test_enumerate_counts():
    for n in range(8):
        des_count = sum(1 for _ in enumerate_class(n, "desarrangements"))
        assert des_count == DERANGEMENT_NUMBERS[n]


def test_enumerate_examples():
    d4 = list(enumerate_class(4, "desarrangements"))
    assert len(d4) == 9 and d4[0] == (2, 1, 3, 4)
    assert d4 == sorted(d4)
    assert list(enumerate_class(1, "desarrangements")) == []
    assert list(enumerate_class(0, "all")) == [()]


def test_enumeration_cap(monkeypatch):
    monkeypatch.delenv(perms.CAP_ENV_VAR, raising=False)
    with pytest.raises(CapExceededError):
        next(enumerate_class(12, "all"))
    monkeypatch.setenv(perms.CAP_ENV_VAR, "12")
    assert next(enumerate_class(12, "all")) == tuple(range(1, 13))
    monkeypatch.setenv(perms.CAP_ENV_VAR, "3")
    with pytest.raises(CapExceededError):
        next(enumerate_class(4, "all"))


def test_pattern_primitives():
    assert perms.triple_pattern(5, 3, 4) == (3, 1, 2)
    assert perms.contains_pattern((2, 1, 5, 3, 6, 4), (3, 1, 2))  # 534 inside
    assert not perms.contains_pattern((4, 3, 2, 6, 5, 1), (3, 1, 2))
    assert not perms.contains_pattern((), (1, 2, 3))
    with pytest.raises(ValueError):
        perms.contains_pattern((1, 2, 3), (1, 2))


def test_serialization():
    assert perm_to_str((3, 1, 2, 5, 4)) == "31254"
    assert perm_to_str(()) == "e"
    long = tuple(range(10, 0, -1))
    assert perm_to_str(long) == "10,9,8,7,6,5,4,3,2,1"


def test_invariant_error_is_assertion():
    assert issubclass(InvariantError, AssertionError)


def test_first_ascent_range():
    for n in range(1, 8):
        for p in all_perms(n):
            assert 1 <= first_ascent(p) <= n


# --- the census and the generated avoiders, against per-permutation references ---

def contains_mask(p):
    """Bitmask over perms.PATTERNS of the patterns occurring in p, by testing
    every triple of positions (the O(n^3) differential reference)."""
    mask = 0
    for i, j, k in itertools.combinations(range(len(p)), 3):
        mask |= 1 << perms.PATTERNS.index(perms.triple_pattern(p[i], p[j], p[k]))
    return mask


def descent_word(p):
    word = 0
    for a, b in zip(p, p[1:]):
        word = word << 1 | (a > b)
    return word


def test_contains_mask_reference_agrees_with_contains_pattern():
    for n in range(7):
        for p in all_perms(n):
            mask = contains_mask(p)
            for k, sigma in enumerate(perms.PATTERNS):
                assert bool(mask >> k & 1) == perms.contains_pattern(p, sigma), (p, sigma)


def as_items(keyed):
    """A {mask: {key: entry}} table as nested item lists, so that == compares
    the order of the masks and of each group's keys too."""
    return [(mask, list(group.items())) for mask, group in keyed.items()]


def test_census_matches_per_permutation_counter():
    from collections import Counter
    for n in range(9):
        counts, first = Counter(), {}
        for p in enumerate_class(n):
            key = (contains_mask(p), descent_word(p), perms.fix(p))
            counts[key] += 1
            first.setdefault(key, p)
        want = {}
        for (mask, dw, fx), c in counts.items():
            want.setdefault(mask, []).append(((dw, fx), (c, first[mask, dw, fx])))
        assert as_items(perms.census(n, "all")) == list(want.items()), n


def test_tail_memo_changes_no_walk(monkeypatch):
    # TAIL = 0 walks every prefix; the memo must give the same keys, counts,
    # first members and members, in the same order, for the census walk
    # (all six patterns tracked) and for the walks that track none
    memo_tail = perms.TAIL
    assert memo_tail > 0
    cases = [(n, forbid) for n in range(9) for forbid in range(64)]
    cases += [(9, forbid) for forbid in (1, 18, 32, 56)]  # 123; 132,312; 321; 231,312,321
    cases += [(10, forbid) for forbid in (2, 32, 56)]  # 132; 321; 231,312,321
    for n, forbid in cases:
        pats = [sigma for k, sigma in enumerate(perms.PATTERNS) if forbid >> k & 1]
        tracks = (0,) if forbid else (0, 63)
        for klass in perms.CLASSES:
            got = []
            for tail in (memo_tail, 0):
                monkeypatch.setattr(perms, "TAIL", tail)
                got.append(([as_items(perms._keyed(n, forbid, klass, track))
                             for track in tracks], perms.avoiders(n, pats, klass)))
            assert got[0] == got[1], (n, forbid, klass)
    # the composed tables and their grouped replay at the length verify
    # reads, with all six patterns tracked
    for klass in perms.CLASSES:
        got = []
        for tail in (memo_tail, 0):
            monkeypatch.setattr(perms, "TAIL", tail)
            got.append(as_items(perms._keyed(9, 0, klass, 63)))
        assert got[0] == got[1], klass


def _by_descent_word_and_fix(census, forbid, member):
    """[((descent word, fix), [count, first member])] over the census members
    of the class that avoid forbid, in the order of their first members."""
    groups = {}
    for mask, group in census.items():
        for key, (count, p) in group.items():
            if not mask & forbid and member(p):
                entry = groups.setdefault(key, [0, p])
                entry[0] += count
                entry[1] = min(entry[1], p)
    return sorted(groups.items(), key=lambda item: item[1][1])


def test_avoider_walks_regroup_to_the_census():
    # tally's walk tracks no pattern, so it has the one group of mask 0, for
    # the empty set too; that group must give the census's counts, first
    # members and order over the avoiders in the class
    for n in range(9):
        census = perms.census(n, "all")
        for forbid in range(64):
            for klass in perms.CLASSES:
                walked = perms._keyed(n, forbid, klass)
                assert set(walked) <= {0}, (n, forbid, klass)
                want = _by_descent_word_and_fix(census, forbid, perms.class_predicate(klass))
                assert list(walked.get(0, {}).items()) == want, (n, forbid, klass)


def test_a_walk_leaves_nothing_for_the_cycle_collector():
    # the walk's memo, tail tables, visitor and output are freed by
    # reference counting as soon as the caller drops the result
    import gc
    gc.collect()
    gc.disable()
    try:
        perms.avoiders(8, {(1, 3, 2)}, "desarrangements")
        perms._keyed(8, 2, "all")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_cap(monkeypatch):
    monkeypatch.delenv(perms.CAP_ENV_VAR, raising=False)
    with pytest.raises(CapExceededError):
        perms.census(12, "all")
    with pytest.raises(CapExceededError):
        perms.avoiders(12, {(3, 2, 1)})
    monkeypatch.setenv(perms.CAP_ENV_VAR, "3")
    with pytest.raises(CapExceededError):
        perms.census(4, "all")
    with pytest.raises(CapExceededError):
        perms.avoiders(4, {(3, 2, 1)})
    assert sum(c for group in perms.census(3, "all").values() for c, _ in group.values()) == 6


def test_class_census_is_the_census_cut_to_the_class(monkeypatch):
    # each class's table is S_n's cut to its members, masks and keys in S_n's
    # order; both are read-only, and the two classes at one n share one walk
    real, walks = perms._keyed, []
    monkeypatch.setattr(perms, "_keyed", lambda n, *args: walks.append(n) or real(n, *args))
    for n in range(9):
        for klass in perms.CLASSES:
            perms.tally(n, (), klass, perms.des)
        assert walks.count(n) <= 1, n  # none when an earlier test built census(n, "all")
        full, desarr = perms.census(n, "all"), perms.census(n, "desarrangements")
        want = [(mask, [item for item in group.items() if is_desarrangement(item[1][1])])
                for mask, group in full.items()]
        assert as_items(desarr) == [(mask, items) for mask, items in want if items], n
        for table in (full, desarr):
            with pytest.raises(TypeError):
                table[0] = {}
    with pytest.raises(ValueError):
        perms.census(3, "involutions")


def test_avoiders_match_filtered_enumeration():
    # all 64 pattern sets, each class, in enumeration order
    for n in range(8):
        masks = {p: contains_mask(p) for p in enumerate_class(n)}
        for r in range(7):
            for pats in itertools.combinations(perms.PATTERNS, r):
                forbid = perms.pattern_mask(pats)
                for klass in perms.CLASSES:
                    want = [p for p in enumerate_class(n, klass) if not masks[p] & forbid]
                    assert perms.avoiders(n, pats, klass) == want, (n, pats, klass)


def test_avoiders_and_pattern_mask_reject_bad_input():
    assert perms.pattern_mask([]) == 0
    assert perms.pattern_mask([(3, 2, 1)]) == 32
    with pytest.raises(ValueError):
        perms.pattern_mask([(1, 2)])
    with pytest.raises(ValueError):
        perms.avoiders(3, [(1, 2, 4)])
    with pytest.raises(ValueError):
        perms.avoiders(3, [], "involutions")
    with pytest.raises(ValueError):
        perms.avoiders(3, [], "derangements")


TALLY_VALUES = {
    "des": perms.des,
    "pk,des": lambda p: (perms.pk(p), perms.des(p)),
    "fix": perms.fix,
    "pix": perms.pix,
    "descent_composition": descent_composition,
    "constant": lambda p: None,
}
TALLY_SETS = [(), ((3, 2, 1),), ((1, 3, 2), (2, 1, 3)), ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
TALLY_CASES = list(itertools.product(range(8), TALLY_SETS, perms.CLASSES, TALLY_VALUES))


def test_tally_walk_matches_the_census(monkeypatch):
    # with CENSUS_MAX lowered to 4, lengths 5..7 take the walk, which for
    # the empty set covers every member of the class; tally never streams
    want = {case: perms.tally(case[0], case[1], case[2], TALLY_VALUES[case[3]])
            for case in TALLY_CASES}
    built = perms.census.cache_info().misses
    monkeypatch.setattr(perms, "CENSUS_MAX", 4)

    def no_stream(*args, **kwargs):
        raise AssertionError("tally streamed enumerate_class")

    monkeypatch.setattr(perms, "enumerate_class", no_stream)
    for case in TALLY_CASES:
        n, pats, klass, name = case
        assert perms.tally(n, pats, klass, TALLY_VALUES[name]) == want[case], case
    assert perms.census.cache_info().misses == built  # no census above the patched limit


def test_tally_rows_have_ascending_keys_on_both_paths(monkeypatch):
    # the row shape of the formula side: keys ascend, on the census path and
    # on the walk (CENSUS_MAX lowered to 4) alike, and so do the marginals
    rows = {case: perms.tally(*case[:3], TALLY_VALUES[case[3]]) for case in TALLY_CASES}
    monkeypatch.setattr(perms, "CENSUS_MAX", 4)
    for case, row in rows.items():
        assert list(row) == sorted(row), case
        walked = perms.tally(*case[:3], TALLY_VALUES[case[3]])
        assert list(walked.items()) == list(row.items()), case
        if case[3] == "pk,des":
            for index in (0, 1):
                assert list(marginal(row, index)) == sorted(marginal(row, index)), case
