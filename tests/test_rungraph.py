import glob
import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desarrange import rungraph
from desarrange.formulas import evaluate_formula
from desarrange.rungraph import (
    AdmissibilityReport, Edge, HypothesisViolationError, PartSet, RunGraphSpec,
    SpecFormatError, WeightCase, builtin_spec, oracle_weight_sum,
    run_theorem_egf, spec_from_json, validate_unique_admissibility,
)
from desarrange.series import cosh_even

from reference_tables import DERANGEMENT_NUMBERS, derangement_numbers


def unit_case(progressions=(), extras=()):
    return WeightCase(PartSet.make(progressions, extras), (0, 0), (0, 0))


def ambiguous_spec():
    # (1,1) is (1,2)-admissible along 1-2-2 and along 1-3-2
    return RunGraphSpec("ambiguous", 3, (
        Edge(1, 2, (unit_case(extras=[1]),)),
        Edge(1, 3, (unit_case(extras=[1]),)),
        Edge(2, 2, (unit_case(extras=[1]),)),
        Edge(3, 2, (unit_case(extras=[1]),)),
    ))


def test_part_set_membership():
    ps = PartSet.make([(2, 2)], [7])
    assert 2 in ps and 4 in ps and 100 in ps and 7 in ps
    assert 1 not in ps and 3 not in ps and 9 not in ps
    assert [k for k in range(1, 9) if k in ps] == [2, 4, 6, 7, 8]


def test_spec_validation():
    with pytest.raises(SpecFormatError):
        RunGraphSpec("bad", 1, (Edge(1, 2, (unit_case(extras=[1]),)),))
    with pytest.raises(SpecFormatError):
        RunGraphSpec("dup", 2, (Edge(1, 2, (unit_case(extras=[1]),)),
                                Edge(1, 2, (unit_case(extras=[2]),))))
    with pytest.raises(SpecFormatError):  # overlapping case guards
        Edge(1, 2, (unit_case([(1, 1)]), unit_case(extras=[3])))
    with pytest.raises(SpecFormatError, match="k=1000000000001"):  # steps with lcm ~ 10^12
        Edge(1, 1, (unit_case([(1, 1000000)]), unit_case([(2, 1000001)])))
    with pytest.raises(SpecFormatError):  # negative exponent on the guard
        Edge(1, 2, (WeightCase(PartSet.make([(1, 1)], []), (1, -2), (0, 0)),))
    with pytest.raises(SpecFormatError):  # negative slope over an infinite guard
        Edge(1, 2, (WeightCase(PartSet.make([(1, 1)], []), (-1, 10), (0, 0)),))


def test_admissibility_examples():
    fig1 = builtin_spec("fig1")
    assert naive_path_weights(fig1, 1, 3, (1, 1, 1, 3, 4, 1, 2), 1, 1) == [1]
    assert naive_path_weights(fig1, 1, 3, (2, 1, 1, 4, 3), 1, 1) == []
    assert naive_path_weights(fig1, 1, 1, (), 1, 1) == [1]
    assert naive_path_weights(fig1, 1, 3, (), 1, 1) == []
    # multiplicative along concatenation of admissible halves (1->2, 2->3)
    [w1] = naive_path_weights(fig1, 1, 2, (1,), 1, 1)
    [w2] = naive_path_weights(fig1, 2, 3, (2, 5), 1, 1)
    assert naive_path_weights(fig1, 1, 3, (1, 2, 5), 1, 1) == [w1 * w2] == [1]
    assert rungraph._path_exponents(fig1, 1, 3, (1, 2, 5)) == (0, 0)


def test_weighted_composition_weight():
    fig2 = builtin_spec("fig2")
    # composition (2, 1, 4): weight t^(2-1) * t^(1-1) * t^(4-1) = t^4
    assert rungraph._path_exponents(fig2, 1, 2, (2, 1, 4)) == (4, 0)
    assert naive_path_weights(fig2, 1, 2, (2, 1, 4), 3, 1) == [3 ** 4]
    assert rungraph._path_exponents(fig2, 1, 2, (3, 1)) is None  # odd first part
    assert naive_path_weights(fig2, 1, 2, (3, 1), 3, 1) == []


def test_validate_unique_admissibility():
    for name in rungraph.BUILTIN_SPECS:
        report = validate_unique_admissibility(builtin_spec(name), 12)
        assert report.ok, report
    report = validate_unique_admissibility(ambiguous_spec(), 6)
    assert not report.ok
    comp, i, j = report.violation
    assert comp == (1, 1) and (i, j) == (1, 2)


def _compositions_of(total: int):
    """Compositions of total, largest first part first, then largest second part..."""
    if total == 0:
        yield ()
        return
    for cuts in itertools.product((0, 1), repeat=total - 1):
        parts = []
        run = 1
        for c in cuts:
            if c:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def exhaustive_admissibility(spec, max_size):
    """Reference check: every composition of every size <= max_size from every start."""
    for total in range(1, max_size + 1):
        for comp in _compositions_of(total):
            for i in range(1, spec.dim + 1):
                state = rungraph._path_dp(spec, i, comp)
                for j, (cnt, _) in state.items():
                    if cnt > 1:
                        return AdmissibilityReport(False, max_size, (comp, i, j))
    return AdmissibilityReport(True, max_size, None)


def test_admissibility_matches_exhaustive_reference():
    specs = [builtin_spec(name) for name in rungraph.BUILTIN_SPECS]
    specs += [ambiguous_spec(), double_ascent_spec(), double_descent_spec(),
              peak_descent_spec()]
    for spec in specs:
        for max_size in range(13):
            assert (validate_unique_admissibility(spec, max_size)
                    == exhaustive_admissibility(spec, max_size)), (spec.name, max_size)


exponent_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def random_specs(draw):
    """Specs on 1..3 vertices, each edge one case with non-negative exponents."""
    dim = draw(st.integers(1, 3))
    edges = []
    for u in range(1, dim + 1):
        for v in range(1, dim + 1):
            if draw(st.booleans()):
                progressions = draw(st.lists(
                    st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=2))
                extras = draw(st.lists(st.integers(1, 6), max_size=3))
                edges.append(Edge(u, v, (WeightCase(PartSet.make(progressions, extras),
                                                    draw(exponent_pairs),
                                                    draw(exponent_pairs)),)))
    return RunGraphSpec("random", dim, tuple(edges))


part_sets = st.builds(PartSet.make, st.lists(st.tuples(st.integers(1, 8), st.integers(1, 6)),
                                               max_size=2),
                      st.lists(st.integers(1, 12), max_size=3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(part_sets, part_sets)
def test_guard_overlap_is_the_smallest_common_part(a, b):
    # progressions meet below their later start (<= 8) plus the lcm of their steps (<= 30)
    common = [k for k in range(1, 40) if k in a and k in b]
    assert rungraph._guard_overlap(a, b) == (common[0] if common else None)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_specs(), st.integers(0, 10))
def test_admissibility_matches_exhaustive_on_random_specs(spec, max_size):
    assert (validate_unique_admissibility(spec, max_size)
            == exhaustive_admissibility(spec, max_size))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_specs(), st.sampled_from([(1, 1), (2, 1), (3, 2), (Fraction(1, 2), 3)]))
def test_pipeline_matches_oracle_on_random_weighted_specs(spec, point):
    # the matrix builder reads every edge's exponents; the oracle reads them per path
    assume(validate_unique_admissibility(spec, 6).ok)
    t, s = point
    for i, j in itertools.product(range(1, spec.dim + 1), repeat=2):
        egf = run_theorem_egf(spec, i, j, t, s, order=6)
        for n in range(7):
            assert egf.egf_coeff(n) == oracle_weight_sum(spec, i, j, n, t, s), (i, j, n)


def test_hypothesis_violation_raised():
    spec = ambiguous_spec()
    with pytest.raises(HypothesisViolationError):
        rungraph._path_exponents(spec, 1, 2, (1, 1))
    with pytest.raises(HypothesisViolationError):
        run_theorem_egf(spec, 1, 2, order=4)


def test_run_theorem_worked_example_fig1():
    egf = run_theorem_egf(builtin_spec("fig1"), 1, 3, order=8)
    with_correction = egf + cosh_even(4, 8)
    assert [with_correction.egf_coeff(n) for n in range(9)] == DERANGEMENT_NUMBERS[:9]


def test_run_theorem_worked_example_fig2():
    fig2 = builtin_spec("fig2")
    for t in (2, 3, 5):
        egf = run_theorem_egf(fig2, 1, 2, t=t, order=8) + 1
        assert egf == evaluate_formula("des", t=t, order=8)
    # t = 1 collapses the weights to 1 and recovers the derangement numbers
    egf = run_theorem_egf(fig2, 1, 2, t=1, order=8) + 1
    assert [egf.egf_coeff(n) for n in range(9)] == DERANGEMENT_NUMBERS[:9]


def test_run_theorem_high_order():
    # beyond the order 22 the exhaustive check could reach; the references
    # are the derangement recurrence and the closed-form descent EGF
    egf = run_theorem_egf(builtin_spec("fig1"), 1, 3, order=30) + cosh_even(4, 30)
    assert [egf.egf_coeff(n) for n in range(31)] == derangement_numbers(30)
    egf = run_theorem_egf(builtin_spec("fig1"), 1, 3, order=60) + cosh_even(4, 60)
    assert [egf.egf_coeff(n) for n in range(61)] == derangement_numbers(60)
    egf = run_theorem_egf(builtin_spec("fig2"), 1, 2, t=2, order=24) + 1
    assert egf == evaluate_formula("des", t=2, order=24)


def test_run_theorem_worked_example_fig3():
    fig3 = builtin_spec("fig3")
    total = (run_theorem_egf(fig3, 1, 1, t=2, s=1, order=7)
             + run_theorem_egf(fig3, 1, 2, t=2, s=1, order=7))
    assert total == evaluate_formula("eulerian", t=2, order=7)
    total = (run_theorem_egf(fig3, 1, 1, t=3, s=2, order=7)
             + run_theorem_egf(fig3, 1, 2, t=3, s=2, order=7))
    assert total == evaluate_formula("joint_pix_des", t=3, s=2, order=7)


def test_oracle_weight_sum_examples():
    fig1 = builtin_spec("fig1")
    assert oracle_weight_sum(fig1, 1, 3, 4) == 8  # 9 desarrangements minus 4321
    assert oracle_weight_sum(fig1, 1, 1, 0) == 1
    assert oracle_weight_sum(fig1, 1, 3, 0) == 0
    fig2 = builtin_spec("fig2")
    assert oracle_weight_sum(fig2, 1, 2, 3, t=1) == 2  # d_3


def naive_path_weights(spec, i, j, parts, t, s):
    """All admissible-path weights by explicit recursion (DP cross-check)."""
    t, s = Fraction(t), Fraction(s)

    def rec(v, idx):
        if idx == len(parts):
            return [Fraction(1)] if v == j else []
        out = []
        for e in spec.edges_from(v):
            ex = e.exponents(parts[idx])
            if ex is not None:
                out.extend(t ** ex[0] * s ** ex[1] * tail for tail in rec(e.dst, idx + 1))
        return out

    return rec(i, 0)


def all_compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in all_compositions(total - first):
            yield (first, *rest)


def test_composition_weight_against_naive_enumeration():
    t, s = Fraction(2), Fraction(3)
    for name in rungraph.BUILTIN_SPECS:
        spec = builtin_spec(name)
        for total in range(8):
            for comp in all_compositions(total):
                for i in range(1, spec.dim + 1):
                    for j in range(1, spec.dim + 1):
                        weights = naive_path_weights(spec, i, j, comp, t, s)
                        assert len(weights) <= 1, (name, comp, i, j)
                        ex = rungraph._path_exponents(spec, i, j, comp)
                        assert weights == ([] if ex is None else [t ** ex[0] * s ** ex[1]])
    spec = ambiguous_spec()
    assert len(naive_path_weights(spec, 1, 2, (1, 1), 1, 1)) == 2


def test_oracle_matches_pipeline():
    for name, i, j, pts in [
        ("fig1", 1, 3, [(1, 1)]),
        ("fig2", 1, 2, [(2, 1), (7, 1)]),
        ("fig3", 1, 2, [(2, 3), (3, 2)]),
        ("fig3", 1, 1, [(2, 3)]),
    ]:
        spec = builtin_spec(name)
        for t, s in pts:
            egf = run_theorem_egf(spec, i, j, t=t, s=s, order=7)
            for n in range(8):
                assert egf.egf_coeff(n) == oracle_weight_sum(spec, i, j, n, t=t, s=s)


def reference_weight_sum(spec, i, j, n, t, s):
    """The oracle as the naive path weights of each descent composition of S_n."""
    total = Fraction(0)
    for comp, count in rungraph.descent_composition_counts(n).items():
        total += count * sum(naive_path_weights(spec, i, j, comp, t, s))
    return total


def test_oracle_weight_sum_matches_per_composition_weights():
    # the (t, s) points of verify's run-theorem check
    points = [(1, 1), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 5)]
    for name in rungraph.BUILTIN_SPECS:
        spec = builtin_spec(name)
        for i, j in itertools.product(range(1, spec.dim + 1), repeat=2):
            for t, s in points:
                for n in range(9):
                    assert (oracle_weight_sum(spec, i, j, n, t=t, s=s)
                            == reference_weight_sum(spec, i, j, n, Fraction(t), Fraction(s))), \
                        (name, i, j, t, s, n)


def test_oracle_weight_sum_rejects_an_ambiguous_spec():
    with pytest.raises(HypothesisViolationError):
        oracle_weight_sum(ambiguous_spec(), 1, 2, 2)


def case(progressions=(), extras=(), t_exp=(0, 0), s_exp=(0, 0)):
    return WeightCase(PartSet.make(progressions, extras), t_exp, s_exp)


def double_ascent_spec():
    # three-vertex desarrangement graph, runs of length k >= 2 weighted t^(k-2)
    return RunGraphSpec("dasc", 3, (
        Edge(1, 2, (case(extras=[1]),)),
        Edge(2, 1, (case(extras=[1]),)),
        Edge(2, 3, (case([(2, 1)], t_exp=(1, -2)),)),
        Edge(3, 3, (case(extras=[1]), case([(2, 1)], t_exp=(1, -2)))),
    ))


def double_descent_spec():
    # complement graph, even first run t^(k-2), later runs t^(k-2) except length 1
    return RunGraphSpec("ddes", 2, (
        Edge(1, 2, (case([(2, 2)], t_exp=(1, -2)),)),
        Edge(2, 2, (case(extras=[1]), case([(2, 1)], t_exp=(1, -2)))),
    ))


def peak_descent_spec():
    # complement graph, descents weighted t, non-initial long runs weighted s
    return RunGraphSpec("pkdes", 2, (
        Edge(1, 2, (case([(2, 2)], t_exp=(1, -1)),)),
        Edge(2, 2, (case(extras=[1]), case([(2, 1)], t_exp=(1, -1), s_exp=(0, 1)))),
    ))


def test_double_ascent_derivation():
    spec = double_ascent_spec()
    assert validate_unique_admissibility(spec, 10).ok
    for t in (2, 3, 7):
        egf = run_theorem_egf(spec, 1, 3, t=t, order=8)
        assert egf + cosh_even(4, 8) == evaluate_formula("dasc", t=t, order=8)


def test_double_descent_derivation():
    spec = double_descent_spec()
    for t in (2, 5):
        egf = run_theorem_egf(spec, 1, 2, t=t, order=8)
        assert egf + 1 == evaluate_formula("ddes", t=t, order=8)
        for n in range(8):
            assert egf.egf_coeff(n) == oracle_weight_sum(spec, 1, 2, n, t=t)


def test_peak_descent_derivation():
    spec = peak_descent_spec()
    for s, t in [(2, 3), (3, 2), (5, 2)]:
        egf = run_theorem_egf(spec, 1, 2, t=t, s=s, order=8)
        assert egf + 1 == evaluate_formula("joint_pk_des", t=t, s=s, order=8)


def test_json_round_trip():
    # specs are only read from JSON; a spec without edges is malformed, and so
    # is one with a vertex that no edge touches, however many vertices it claims
    with pytest.raises(SpecFormatError):
        spec_from_json({"name": "x", "dim": 2})
    with pytest.raises(SpecFormatError, match="vertex 1 has no edge"):
        spec_from_json({"name": "x", "dim": 10 ** 9, "edges": []})


# the JSON of every shipped spec, the seeds of the fuzz test below
SHIPPED_SPEC_PATHS = sorted(glob.glob(
    os.path.join(os.path.dirname(rungraph.__file__), "specs", "*.json")))


_SPEC_KEYS = ("name", "dim", "edges", "from", "to", "cases", "parts", "progressions",
              "extras", "t_exp", "s_exp")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=2),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_SPEC_KEYS), inner, max_size=5)),
    max_leaves=12)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


@st.composite
def broken_specs(draw):
    """A shipped spec's JSON with one node replaced by an arbitrary JSON value."""
    with open(draw(st.sampled_from(SHIPPED_SPEC_PATHS)), encoding="utf-8") as fh:
        data = json.load(fh)
    path = draw(st.sampled_from(list(_json_paths(data))))
    value = draw(_json_values)
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(broken_specs())
def test_spec_from_json_raises_only_spec_format_error(data):
    try:
        spec_from_json(data)
    except SpecFormatError:
        pass


def test_unknown_builtin():
    with pytest.raises(SpecFormatError):
        builtin_spec("fig9")
