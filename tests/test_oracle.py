import ast
import inspect

import pytest

from desarrange import oracle, perms

from reference_tables import DERANGEMENT_NUMBERS


def test_distribution_examples():
    assert oracle.distribution(4, ["des"], "desarrangements") == {1: 3, 2: 5, 3: 1}
    assert oracle.distribution(5, ["pk"], "desarrangements") == {0: 8, 1: 36}
    assert oracle.distribution(5, ["val"], "desarrangements") == {1: 28, 2: 16}
    assert oracle.distribution(0, ["des"], "all") == {0: 1}
    assert oracle.distribution(1, ["des"], "desarrangements") == {}


def test_joint_distribution_and_marginal():
    joint = oracle.distribution(4, ["pk", "des"], "desarrangements")
    assert joint == {(0, 1): 3, (1, 2): 5, (0, 3): 1}
    assert oracle.marginal(joint, 0) == {0: 4, 1: 5}
    assert oracle.marginal(joint, 1) == {1: 3, 2: 5, 3: 1}
    # several coordinates give tuple keys in the order asked for, ascending
    assert oracle.marginal(joint, 1, 0) == {(1, 0): 3, (2, 1): 5, (3, 0): 1}
    triple = oracle.distribution(4, ["des", "pk", "val"], "desarrangements")
    assert oracle.marginal(triple, 1, 0) == joint


def test_distribution_with_restriction():
    row = perms.tally(4, {(3, 2, 1)}, "desarrangements", perms.des)
    # D_4(321) = {2134, 2143, 3142, 3124, 4123}: descents 1,2,2,1,1
    assert sum(row.values()) == 5
    assert row == {1: 3, 2: 2}


def test_class_sizes():
    for n in range(8):
        assert perms.class_count(n, (), "desarrangements") == DERANGEMENT_NUMBERS[n]


def test_unknown_statistic():
    with pytest.raises(ValueError):
        oracle.distribution(3, ["maj"], "all")


def test_restricted_distribution_matches_pattern_counts():
    from desarrange import patterns
    for n in range(6):
        for label in ("321", "123,231", "132,213,321"):
            pats = patterns.parse_patterns(label)
            for klass in ("all", "desarrangements"):
                row = perms.tally(n, pats, klass, perms.des)
                assert sum(row.values()) == perms.class_count(n, pats, klass)


def test_oracle_imports_only_perm_core():
    # layering guard: the brute-force side must not see formulas/run-theorem
    tree = ast.parse(inspect.getsource(oracle))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    allowed = {"collections", "perms", "__future__"}
    assert modules <= allowed, modules


def direct_distribution(n, stats, klass, restrict=()):
    """One pass over the class, every statistic evaluated on every permutation."""
    from collections import Counter

    from desarrange.perms import STAT_FUNCTIONS, contains_pattern, enumerate_class
    counts = Counter()
    for p in enumerate_class(n, klass):
        if any(contains_pattern(p, sigma) for sigma in restrict):
            continue
        values = tuple(STAT_FUNCTIONS[s](p) for s in stats)
        counts[values[0] if len(stats) == 1 else values] += 1
    return dict(counts)


def test_census_distribution_matches_direct_loop():
    # the census path evaluates statistics once per (descent word, fix)
    # group; this guards the claim that nothing else matters
    from desarrange.perms import CLASSES, STAT_FUNCTIONS
    stat_lists = [[name] for name in STAT_FUNCTIONS] + [["pk", "des"]]
    for n in range(8):
        for klass in CLASSES:
            for stats in stat_lists:
                assert oracle.distribution(n, stats, klass) == \
                    direct_distribution(n, stats, klass), (n, klass, stats)
            for restrict in ({(3, 2, 1)}, {(1, 3, 2), (2, 1, 3)}):
                for stats, value in ((["pk", "des"], lambda p: (perms.pk(p), perms.des(p))),
                                     (["fix"], perms.fix), (["pix"], perms.pix)):
                    assert perms.tally(n, restrict, klass, value) == \
                        direct_distribution(n, stats, klass, restrict), \
                        (n, klass, stats, restrict)
