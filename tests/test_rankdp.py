import ast
import inspect
import math
import sys

from desarrange import oracle, perms, rankdp


def test_rankdp_imports_only_the_standard_library():
    # layering guard: the counted rows must not see formulas, series or the
    # brute-force walker; of the package only the perms constants may enter
    tree = ast.parse(inspect.getsource(rankdp))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
            assert all(name in sys.stdlib_module_names for name in names), names
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "perms", node.module
                assert all(a.name.isupper() and not callable(getattr(perms, a.name))
                           for a in node.names), [a.name for a in node.names]
            else:
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module


def test_rows_equal_brute_force():
    for tag, (klass, t_stat, s_stat) in rankdp.TABLES.items():
        stats = [t_stat] if s_stat is None else [s_stat, t_stat]
        rows = rankdp.rows(tag, 7)
        for n in range(8):
            assert rows[n] == oracle.distribution(n, stats, klass), (tag, n)
            assert list(rows[n]) == sorted(rows[n]), (tag, n)


def test_walk_without_rules_counts_every_permutation():
    table = rankdp.walk(9, None, lambda k, phase, prev, this: (phase, 0, 0),
                       lambda n, phase: 0)
    assert table == {n: {(0, 0): math.factorial(n)} for n in range(10)}
    # an s-exponent per letter and a t-exponent per down step: n letters, Eulerian rows
    table = rankdp.walk(4, None, lambda k, phase, prev, this: (phase, 1, this == "down"),
                        lambda n, phase: 1)
    assert table[4] == {(4, 0): 1, (4, 1): 11, (4, 2): 11, (4, 3): 1}
    assert rankdp.rows("des", 0) == {0: {0: 1}} and rankdp.rows("des", 1) == {0: {0: 1}, 1: {}}
