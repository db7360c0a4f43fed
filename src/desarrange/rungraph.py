"""
Weighted digraph specs and the generalized run-theorem pipeline.

A spec is a directed graph on vertices 1..m where each edge carries a set
of admissible part sizes and a piecewise weight rule t^(a*k+b) * s^(c*k+d).
A composition is (i,j)-admissible when its parts can be read off a path
from i to j; the pipeline demands that no composition be admissible along
two different paths.  Under that hypothesis, building

    B = I + [sum_k w_k^(u,v) x^k],   A = B^-1,

and inverting the coefficientwise-EGF image of A gives, at entry (i,j),
the exponential generating function of sum over permutations of the weight
of their descent composition.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .perms import descent_composition, enumerate_class
from .series import SeriesMatrix, TruncSeries, hat_transform

BUILTIN_SPECS = ("fig1", "fig2", "fig3")


class SpecFormatError(ValueError):
    """Malformed graph-spec data."""


class HypothesisViolationError(Exception):
    """Some composition is admissible along more than one path."""

    def __init__(self, composition, i, j):
        self.composition = tuple(composition)
        self.pair = (i, j)
        super().__init__(
            f"composition {self.composition} is ({i},{j})-admissible along multiple paths")


@dataclass(frozen=True)
class PartSet:
    """Set of positive integers: arithmetic progressions plus finitely many extras."""
    progressions: tuple[tuple[int, int], ...]  # (start k0 >= 1, step >= 1)
    extras: frozenset[int]

    @classmethod
    def make(cls, progressions=(), extras=()) -> "PartSet":
        progs = tuple(sorted((int(k0), int(m)) for k0, m in progressions))
        ext = frozenset(int(k) for k in extras)
        for k0, m in progs:
            if k0 < 1 or m < 1:
                raise SpecFormatError(f"bad progression ({k0}, {m})")
        if any(k < 1 for k in ext):
            raise SpecFormatError("part values must be positive")
        return cls(progs, ext)

    def __contains__(self, k: int) -> bool:
        if k in self.extras:
            return True
        return any(k >= k0 and (k - k0) % m == 0 for k0, m in self.progressions)

    def min_value(self) -> int | None:
        vals = [k0 for k0, _ in self.progressions] + list(self.extras)
        return min(vals) if vals else None

    def is_finite(self) -> bool:
        return not self.progressions

    def values_up_to(self, bound: int):
        return [k for k in range(1, bound + 1) if k in self]


@dataclass(frozen=True)
class WeightCase:
    """On its guard, the part weight is t^(a*k+b) * s^(c*k+d)."""
    guard: PartSet
    t_exp: tuple[int, int]  # (a, b)
    s_exp: tuple[int, int]  # (c, d)

    def exponents(self, k: int) -> tuple[int, int]:
        a, b = self.t_exp
        c, d = self.s_exp
        return a * k + b, c * k + d


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    cases: tuple[WeightCase, ...]

    def __post_init__(self):
        _check_cases(self)

    def admits(self, k: int) -> bool:
        return any(k in case.guard for case in self.cases)

    def weight(self, k: int, t: Fraction, s: Fraction) -> Fraction | None:
        """Weight of part k, or None when k is not an admissible part here."""
        for case in self.cases:
            if k in case.guard:
                et, es = case.exponents(k)
                return Fraction(t) ** et * Fraction(s) ** es
        return None


@dataclass(frozen=True)
class RunGraphSpec:
    name: str
    dim: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if not (1 <= e.src <= self.dim and 1 <= e.dst <= self.dim):
                raise SpecFormatError(f"edge ({e.src},{e.dst}) outside 1..{self.dim}")
            if (e.src, e.dst) in seen:
                raise SpecFormatError(f"duplicate edge ({e.src},{e.dst})")
            seen.add((e.src, e.dst))

    def edges_from(self, v: int):
        return [e for e in self.edges if e.src == v]


def _check_cases(edge: Edge):
    # guards must be pairwise disjoint, and exponents must stay non-negative
    for ca, cb in itertools.combinations(edge.cases, 2):
        k = _guard_overlap(ca.guard, cb.guard)
        if k is not None:
            raise SpecFormatError(
                f"edge ({edge.src},{edge.dst}): case guards overlap at k={k}")
    for case in edge.cases:
        for (a, b), label in ((case.t_exp, "t"), (case.s_exp, "s")):
            if a < 0 and not case.guard.is_finite():
                raise SpecFormatError(f"{label}-exponent slope {a} negative on infinite guard")
            ks = list(case.guard.extras) + [k0 for k0, _ in case.guard.progressions]
            for k in ks:
                if a * k + b < 0:
                    raise SpecFormatError(f"{label}-exponent {a}*{k}+{b} negative")


def _guard_overlap(a: PartSet, b: PartSet) -> int | None:
    """Smallest element in both part sets, or None when they are disjoint.

    Two arithmetic progressions intersect, if at all, within one lcm of
    their steps past the later start, so the scan below is complete.
    """
    for k in sorted(a.extras):
        if k in b:
            return k
    for k in sorted(b.extras):
        if k in a:
            return k
    for k0a, ma in a.progressions:
        for k0b, mb in b.progressions:
            start = max(k0a, k0b)
            for k in range(start, start + math.lcm(ma, mb)):
                if k in a and k in b:
                    return k
    return None


# --- admissibility ---

def _weighted_dp(spec: RunGraphSpec, i: int, parts, t: Fraction, s: Fraction):
    """Dynamic program over the parts: vertex -> (path count, product weight).

    The weight slot is None as soon as two paths merge; it only matters if
    the multiplicity survives to the queried end vertex, which would violate
    the run-theorem hypothesis anyway.
    """
    state: dict[int, tuple[int, Fraction | None]] = {i: (1, Fraction(1))}
    for k in parts:
        nxt: dict[int, tuple[int, Fraction | None]] = {}
        for v, (cnt, w) in state.items():
            for e in spec.edges_from(v):
                wk = e.weight(k, t, s)
                if wk is None:
                    continue
                new_w = None if w is None else w * wk
                if e.dst in nxt:
                    c0, _ = nxt[e.dst]
                    nxt[e.dst] = (c0 + cnt, None)
                else:
                    nxt[e.dst] = (cnt, new_w)
        if not nxt:
            return {}
        state = nxt
    return state


def composition_weight(spec: RunGraphSpec, i: int, j: int, composition,
                       t=1, s=1) -> Fraction:
    """Weight of the unique (i,j)-admissible path realizing the composition, else 0.

    Raises HypothesisViolationError when the composition is admissible along
    more than one path from i to j.
    """
    parts = tuple(composition)
    if not parts:
        return Fraction(1) if i == j else Fraction(0)
    state = _weighted_dp(spec, i, parts, Fraction(t), Fraction(s))
    if j not in state:
        return Fraction(0)
    cnt, w = state[j]
    if cnt > 1:
        raise HypothesisViolationError(parts, i, j)
    assert w is not None
    return w


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    max_size: int
    violation: tuple[tuple[int, ...], int, int] | None  # (composition, i, j)


def _step(states, moves):
    """Read one part on both sides of the self-product: every pair of moves."""
    return {(u2, v2, d or u2 != v2)
            for u, v, d in states for u2 in moves[u] for v2 in moves[v]}


def validate_unique_admissibility(spec: RunGraphSpec, max_size: int) -> AdmissibilityReport:
    """Decide whether some composition of size <= max_size is admissible along two paths.

    Runs the ambiguity test on the self-product automaton (Weber & Seidl
    1991; Allauzen, Mohri & Rastogi 2008).  A state (u, v, diverged) follows
    two paths at once, both reading the same part k along an edge that admits
    it; diverged records whether the two paths ever stood at different
    vertices (a spec has at most one edge per vertex pair, so two paths
    differ iff their vertices do).  Two paths from some i meet again at some
    j iff a state (j, j, True) is reachable from some (i, i, False), so a DP
    over the total part size s = 0..max_size finds the smallest violating
    size.  The start vertex need not be part of the state: the union over
    all i is reachable exactly when one of them is.  The weights are never
    read.  Cost: O(max_size^2 * dim^2 * out-degree^2).

    The report is the one the exhaustive search would return, which tries
    sizes in increasing order, then the compositions of one size with the
    largest first part first, then the largest second part and so on, then
    start vertices i in increasing order, then end vertices j in the dict
    order of _weighted_dp.  The witness composition is rebuilt greedily,
    largest part first, keeping only states from which a violation can be
    finished with exactly the size that remains; i and j are then picked by
    running _weighted_dp on it.
    """
    # moves[k][u]: the ends of the edges out of u whose guards admit part k
    moves = [None] + [
        {u: [e.dst for e in spec.edges_from(u) if e.admits(k)]
         for u in range(1, spec.dim + 1)}
        for k in range(1, max_size + 1)]
    reach = [{(i, i, False) for i in range(1, spec.dim + 1)}]  # by total size
    for total in range(1, max_size + 1):
        reach.append(set().union(*(_step(reach[total - k], moves[k])
                                   for k in range(1, total + 1))))
        if any(u == v and d for u, v, d in reach[total]):
            comp = _first_violating_composition(spec, moves, total)
            for i in range(1, spec.dim + 1):
                state = _weighted_dp(spec, i, comp, Fraction(1), Fraction(1))
                for j, (cnt, _) in state.items():
                    if cnt > 1:
                        return AdmissibilityReport(False, max_size, (comp, i, j))
            raise AssertionError(f"{comp} reaches a violation but none is found")
    return AdmissibilityReport(True, max_size, None)


def _first_violating_composition(spec: RunGraphSpec, moves, total: int) -> tuple[int, ...]:
    """The violating composition of the given size with the largest parts first."""
    states = [(u, v, d) for u in range(1, spec.dim + 1)
              for v in range(1, spec.dim + 1) for d in (False, True)]
    # finish[r]: the states from which exactly r more reach some (j, j, True)
    finish = [{(j, j, True) for j in range(1, spec.dim + 1)}]
    for r in range(1, total + 1):
        finish.append({st for st in states
                       if any(_step((st,), moves[k]) & finish[r - k]
                              for k in range(1, r + 1))})
    front = {(i, i, False) for i in range(1, spec.dim + 1)}
    parts = []
    left = total
    while left:
        for k in range(left, 0, -1):
            nxt = _step(front, moves[k]) & finish[left - k]
            if nxt:
                break
        parts.append(k)
        front = nxt
        left -= k
    return tuple(parts)


# --- the pipeline ---

def weight_series_matrix(spec: RunGraphSpec, t, s, order: int) -> SeriesMatrix:
    """B = I_m + [sum_k w_k^(u,v) x^k] truncated at the given order."""
    t, s = Fraction(t), Fraction(s)
    rows = []
    for u in range(1, spec.dim + 1):
        row = []
        for v in range(1, spec.dim + 1):
            coeffs = [Fraction(1 if u == v else 0)]
            edge = next((e for e in spec.edges if e.src == u and e.dst == v), None)
            for k in range(1, order + 1):
                wk = edge.weight(k, t, s) if edge is not None else None
                coeffs.append(wk if wk is not None else Fraction(0))
            row.append(TruncSeries(coeffs, order))
        rows.append(row)
    return SeriesMatrix(rows)


def run_theorem_egf(spec: RunGraphSpec, i: int, j: int, t=1, s=1,
                    order: int = 8) -> TruncSeries:
    """Entry (i,j) of (hat(B^-1))^-1; fails fast if the hypothesis breaks.

    No correction terms are applied here (the empty permutation or the
    decreasing desarrangements are accounted for by callers when a worked
    example needs them).
    """
    if not (1 <= i <= spec.dim and 1 <= j <= spec.dim):
        raise ValueError(f"entry ({i},{j}) outside 1..{spec.dim}")
    report = validate_unique_admissibility(spec, order)
    if not report.ok:
        comp, vi, vj = report.violation
        raise HypothesisViolationError(comp, vi, vj)
    b = weight_series_matrix(spec, t, s, order)
    a = b.inverse()
    return hat_transform(a).inverse().entry(i, j)


@functools.lru_cache(maxsize=None)
def descent_composition_counts(n: int) -> dict[tuple[int, ...], int]:
    """How many permutations of 1..n have each descent composition."""
    counts = Counter()
    for p in enumerate_class(n, "all"):
        counts[descent_composition(p)] += 1
    return dict(counts)


def oracle_weight_sum(spec: RunGraphSpec, i: int, j: int, n: int, t=1, s=1) -> Fraction:
    """Sum of composition_weight over the descent compositions of all of S_n.

    Independent of the matrix pipeline; must equal n! times the x^n
    coefficient of run_theorem_egf.
    """
    t, s = Fraction(t), Fraction(s)
    total = Fraction(0)
    for comp, count in descent_composition_counts(n).items():
        w = composition_weight(spec, i, j, comp, t, s)
        if w:
            total += count * w
    return total


# --- JSON schema ---

def spec_to_json(spec: RunGraphSpec) -> dict:
    return {
        "name": spec.name,
        "dim": spec.dim,
        "edges": [
            {
                "from": e.src,
                "to": e.dst,
                "cases": [
                    {
                        "parts": {
                            "progressions": [list(pr) for pr in c.guard.progressions],
                            "extras": sorted(c.guard.extras),
                        },
                        "t_exp": list(c.t_exp),
                        "s_exp": list(c.s_exp),
                    }
                    for c in e.cases
                ],
            }
            for e in spec.edges
        ],
    }


def spec_from_json(data: dict) -> RunGraphSpec:
    try:
        edges = []
        for ed in data["edges"]:
            cases = []
            for c in ed["cases"]:
                guard = PartSet.make(c["parts"].get("progressions", ()),
                                     c["parts"].get("extras", ()))
                cases.append(WeightCase(guard,
                                        tuple(int(x) for x in c["t_exp"]),
                                        tuple(int(x) for x in c["s_exp"])))
            edges.append(Edge(int(ed["from"]), int(ed["to"]), tuple(cases)))
        return RunGraphSpec(str(data["name"]), int(data["dim"]), tuple(edges))
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed spec JSON: {exc}") from exc


def load_spec(path: str) -> RunGraphSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def builtin_spec(name: str) -> RunGraphSpec:
    """One of the shipped specs: fig1 (unit weights on the desarrangement
    graph), fig2 (t-weights on the complement graph), fig3 (s,t-weights on
    the pixed-point graph)."""
    if name not in BUILTIN_SPECS:
        raise SpecFormatError(f"unknown builtin spec {name!r}; have {BUILTIN_SPECS}")
    data = resources.files("desarrange").joinpath(f"specs/{name}.json").read_text("utf-8")
    return spec_from_json(json.loads(data))
