import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desarrange import rungraph
from desarrange.formulas import evaluate_formula
from desarrange.rungraph import (
    AdmissibilityReport, Edge, HypothesisViolationError, PartSet, RunGraphSpec,
    SpecFormatError, WeightCase, builtin_spec, composition_weight, oracle_weight_sum,
    run_theorem_egf, spec_from_json, spec_to_json, validate_unique_admissibility,
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
    assert ps.values_up_to(8) == [2, 4, 6, 7, 8]
    assert PartSet.make([], []).min_value() is None


def test_spec_validation():
    with pytest.raises(SpecFormatError):
        RunGraphSpec("bad", 1, (Edge(1, 2, (unit_case(extras=[1]),)),))
    with pytest.raises(SpecFormatError):
        RunGraphSpec("dup", 2, (Edge(1, 2, (unit_case(extras=[1]),)),
                                Edge(1, 2, (unit_case(extras=[2]),))))
    with pytest.raises(SpecFormatError):  # overlapping case guards
        Edge(1, 2, (unit_case([(1, 1)]), unit_case(extras=[3])))
    with pytest.raises(SpecFormatError):  # negative exponent on the guard
        Edge(1, 2, (WeightCase(PartSet.make([(1, 1)], []), (1, -2), (0, 0)),))
    with pytest.raises(SpecFormatError):  # negative slope over an infinite guard
        Edge(1, 2, (WeightCase(PartSet.make([(1, 1)], []), (-1, 10), (0, 0)),))


def test_admissibility_examples():
    fig1 = builtin_spec("fig1")
    assert composition_weight(fig1, 1, 3, (1, 1, 1, 3, 4, 1, 2)) == 1
    assert composition_weight(fig1, 1, 3, (2, 1, 1, 4, 3)) == 0
    assert composition_weight(fig1, 1, 1, ()) == 1
    assert composition_weight(fig1, 1, 3, ()) == 0
    # multiplicative along concatenation of admissible halves (1->2, 2->... )
    w1 = composition_weight(fig1, 1, 2, (1,))
    w2 = composition_weight(fig1, 2, 3, (2, 5))
    assert composition_weight(fig1, 1, 3, (1, 2, 5)) == w1 * w2 == 1


def test_weighted_composition_weight():
    fig2 = builtin_spec("fig2")
    t = Fraction(3)
    # composition (2, 1, 4): weight t^(2-1) * t^(1-1) * t^(4-1) = t^4
    assert composition_weight(fig2, 1, 2, (2, 1, 4), t=t) == t ** 4
    assert composition_weight(fig2, 1, 2, (3, 1), t=t) == 0  # odd first part


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
                state = rungraph._weighted_dp(spec, i, comp, Fraction(1), Fraction(1))
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


@st.composite
def random_specs(draw):
    dim = draw(st.integers(1, 3))
    edges = []
    for u in range(1, dim + 1):
        for v in range(1, dim + 1):
            if draw(st.booleans()):
                progressions = draw(st.lists(
                    st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=2))
                extras = draw(st.lists(st.integers(1, 6), max_size=3))
                edges.append(Edge(u, v, (unit_case(progressions, extras),)))
    return RunGraphSpec("random", dim, tuple(edges))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_specs(), st.integers(0, 10))
def test_admissibility_matches_exhaustive_on_random_specs(spec, max_size):
    assert (validate_unique_admissibility(spec, max_size)
            == exhaustive_admissibility(spec, max_size))


def test_hypothesis_violation_raised():
    spec = ambiguous_spec()
    with pytest.raises(HypothesisViolationError):
        composition_weight(spec, 1, 2, (1, 1))
    with pytest.raises(HypothesisViolationError):
        run_theorem_egf(spec, 1, 2, order=4)


def test_run_theorem_worked_example_fig1():
    egf = run_theorem_egf(builtin_spec("fig1"), 1, 3, order=8)
    with_correction = egf + cosh_even(4, 8)
    assert with_correction.egf_coeffs() == DERANGEMENT_NUMBERS[:9]


def test_run_theorem_worked_example_fig2():
    fig2 = builtin_spec("fig2")
    for t in (2, 3, 5):
        egf = run_theorem_egf(fig2, 1, 2, t=t, order=8) + 1
        assert egf == evaluate_formula("des", t=t, order=8)
    # t = 1 collapses the weights to 1 and recovers the derangement numbers
    egf = run_theorem_egf(fig2, 1, 2, t=1, order=8) + 1
    assert egf.egf_coeffs() == DERANGEMENT_NUMBERS[:9]


def test_run_theorem_high_order():
    # beyond the order 22 the exhaustive check could reach; the references
    # are the derangement recurrence and the closed-form descent EGF
    egf = run_theorem_egf(builtin_spec("fig1"), 1, 3, order=30) + cosh_even(4, 30)
    assert egf.egf_coeffs() == derangement_numbers(30)
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
            w = e.weight(parts[idx], t, s)
            if w is not None:
                out.extend(w * tail for tail in rec(e.dst, idx + 1))
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
                        want = weights[0] if weights else Fraction(0)
                        assert composition_weight(spec, i, j, comp, t, s) == want
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


def test_json_round_trip(tmp_path):
    for name in rungraph.BUILTIN_SPECS:
        spec = builtin_spec(name)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        assert rungraph.load_spec(str(path)) == spec
    with pytest.raises(SpecFormatError):
        spec_from_json({"name": "x", "dim": 2})


def test_repo_spec_files_match_builtins():
    import pathlib
    repo_specs = pathlib.Path(__file__).resolve().parent.parent / "specs"
    for name in rungraph.BUILTIN_SPECS:
        data = json.loads((repo_specs / f"{name}.json").read_text())
        assert spec_from_json(data) == builtin_spec(name)


def test_unknown_builtin():
    with pytest.raises(SpecFormatError):
        builtin_spec("fig9")
