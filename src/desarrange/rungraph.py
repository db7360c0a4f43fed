"""
Weighted digraph specs and the generalized run-theorem pipeline.

A spec is a directed graph on vertices 1..m where each edge carries a set
of admissible part sizes and a piecewise weight rule t^(a*k+b) * s^(c*k+d);
in a spec read from JSON, every vertex must touch an edge.
A composition is (i,j)-admissible when its parts can be read off a path
from i to j; the pipeline demands that no composition be admissible along
two different paths.  Under that hypothesis, building

    B = I + [sum_k w_k^(u,v) x^k],   A = B^-1,

and inverting the coefficientwise-EGF image of A gives, at entry (i,j),
the exponential generating function of sum over permutations of the weight
of their descent composition.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter, namedtuple
from fractions import Fraction

from .perms import capped, descent_composition, tally
from .series import SeriesMatrix, TruncSeries, hat_transform

BUILTIN_SPECS = ("fig1", "fig2", "fig3")


class SpecFormatError(ValueError):
    """Malformed graph-spec data."""


class EntryError(ValueError):
    """A requested matrix entry (i,j) outside 1..dim."""


class HypothesisViolationError(Exception):
    """Some composition is admissible along more than one path."""

    def __init__(self, composition, i, j):
        self.composition = tuple(composition)
        self.pair = (i, j)
        super().__init__(
            f"composition {self.composition} is ({i},{j})-admissible along multiple paths")


class PartSet(namedtuple("PartSet", "progressions extras")):
    """Set of positive integers: arithmetic progressions plus finitely many extras.

    progressions is a tuple of (start k0 >= 1, step >= 1) pairs and extras
    a frozenset of ints.
    """
    __slots__ = ()

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


class WeightCase(namedtuple("WeightCase", "guard t_exp s_exp")):
    """On its guard (a PartSet), the part weight is t^(a*k+b) * s^(c*k+d),
    with t_exp = (a, b) and s_exp = (c, d)."""
    __slots__ = ()

    def exponents(self, k: int) -> tuple[int, int]:
        a, b = self.t_exp
        c, d = self.s_exp
        return a * k + b, c * k + d


class Edge(namedtuple("Edge", "src dst cases")):
    """The edge src -> dst, weighted by a tuple of WeightCases with disjoint guards."""
    __slots__ = ()

    def __new__(cls, src: int, dst: int, cases):
        self = super().__new__(cls, src, dst, cases)
        _check_cases(self)
        return self

    def exponents(self, k: int) -> tuple[int, int] | None:
        """(t-exponent, s-exponent) of part k, or None when k is not an admissible part here.

        The one statement of the part rule: the weight of part k is
        t^(t-exponent) * s^(s-exponent)."""
        for case in self.cases:
            if k in case.guard:
                return case.exponents(k)
        return None


class RunGraphSpec(namedtuple("RunGraphSpec", "name dim edges")):
    """A named graph on vertices 1..dim with a tuple of Edges, at most one per pair."""
    __slots__ = ()

    def __new__(cls, name: str, dim: int, edges):
        self = super().__new__(cls, name, dim, edges)
        seen = set()
        for e in edges:
            if not (1 <= e.src <= dim and 1 <= e.dst <= dim):
                raise SpecFormatError(f"edge ({e.src},{e.dst}) outside 1..{dim}")
            if (e.src, e.dst) in seen:
                raise SpecFormatError(f"duplicate edge ({e.src},{e.dst})")
            seen.add((e.src, e.dst))
        return self

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
            if a < 0 and case.guard.progressions:
                raise SpecFormatError(f"{label}-exponent slope {a} negative on infinite guard")
            ks = list(case.guard.extras) + [k0 for k0, _ in case.guard.progressions]
            for k in ks:
                if a * k + b < 0:
                    raise SpecFormatError(f"{label}-exponent {a}*{k}+{b} negative")


def _guard_overlap(a: PartSet, b: PartSet) -> int | None:
    """Smallest element in both part sets, or None when they are disjoint.

    Two arithmetic progressions k0a + ma*x and k0b + mb*y meet iff
    gcd(ma, mb) divides k0b - k0a, and then in one residue class modulo
    lcm(ma, mb), which the Chinese remainder theorem gives; its first
    member from the later start on is their smallest common element.
    """
    common = [k for k in a.extras if k in b] + [k for k in b.extras if k in a]
    for k0a, ma in a.progressions:
        for k0b, mb in b.progressions:
            g = math.gcd(ma, mb)
            if (k0b - k0a) % g:
                continue
            step = mb // g  # k0a + ma*x hits k0b mod mb iff x is one residue mod step
            x = (k0b - k0a) // g * pow(ma // g, -1, step) % step
            start, lcm = max(k0a, k0b), ma * step
            common.append(start + (k0a + ma * x - start) % lcm)
    return min(common, default=None)


# --- admissibility ---

def _path_dp(spec: RunGraphSpec, i: int, parts):
    """Dynamic program over the parts: vertex -> (path count, (t-exponent, s-exponent)).

    The exponent slot is None as soon as two paths merge; it only matters if
    the multiplicity survives to the queried end vertex, which would violate
    the run-theorem hypothesis anyway.
    """
    state: dict[int, tuple[int, tuple[int, int] | None]] = {i: (1, (0, 0))}
    for k in parts:
        nxt: dict[int, tuple[int, tuple[int, int] | None]] = {}
        for v, (cnt, ex) in state.items():
            for e in spec.edges_from(v):
                ek = e.exponents(k)
                if ek is None:
                    continue
                if e.dst in nxt:
                    c0, _ = nxt[e.dst]
                    nxt[e.dst] = (c0 + cnt, None)
                else:
                    nxt[e.dst] = (cnt, None if ex is None else (ex[0] + ek[0], ex[1] + ek[1]))
        if not nxt:
            return {}
        state = nxt
    return state


def _path_exponents(spec: RunGraphSpec, i: int, j: int, parts) -> tuple[int, int] | None:
    """Exponents of the unique (i,j)-admissible path reading the parts, or None.

    Raises HypothesisViolationError when there is more than one such path.
    """
    state = _path_dp(spec, i, parts)
    if j not in state:
        return None
    cnt, ex = state[j]
    if cnt > 1:
        raise HypothesisViolationError(parts, i, j)
    return ex


class AdmissibilityReport(namedtuple("AdmissibilityReport", "ok max_size violation")):
    """violation is (composition, i, j) for the first ambiguous composition, else None."""
    __slots__ = ()


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
    order of _path_dp.  The witness composition is rebuilt greedily,
    largest part first, keeping only states from which a violation can be
    finished with exactly the size that remains; i and j are then picked by
    running _path_dp on it.
    """
    # moves[k][u]: the ends of the edges out of u whose guards admit part k
    moves = [None] + [
        {u: [e.dst for e in spec.edges_from(u) if e.exponents(k) is not None]
         for u in range(1, spec.dim + 1)}
        for k in range(1, max_size + 1)]
    reach = [{(i, i, False) for i in range(1, spec.dim + 1)}]  # by total size
    for total in range(1, max_size + 1):
        reach.append(set().union(*(_step(reach[total - k], moves[k])
                                   for k in range(1, total + 1))))
        if any(u == v and d for u, v, d in reach[total]):
            comp = _first_violating_composition(spec, moves, total)
            for i in range(1, spec.dim + 1):
                state = _path_dp(spec, i, comp)
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
    coeffs = [[[Fraction(u == v)] + [Fraction(0)] * order for v in range(spec.dim)]
              for u in range(spec.dim)]
    for e in spec.edges:
        entry = coeffs[e.src - 1][e.dst - 1]
        for k in range(1, order + 1):
            ex = e.exponents(k)
            if ex is not None:
                entry[k] = t ** ex[0] * s ** ex[1]
    return SeriesMatrix([[TruncSeries(c, order) for c in row] for row in coeffs])


def run_theorem_egf(spec: RunGraphSpec, i: int, j: int, t=1, s=1,
                    order: int = 8) -> TruncSeries:
    """Entry (i,j) of (hat(B^-1))^-1; fails fast if the hypothesis breaks.

    No correction terms are applied here (the empty permutation or the
    decreasing desarrangements are accounted for by callers when a worked
    example needs them).
    """
    if not (1 <= i <= spec.dim and 1 <= j <= spec.dim):
        raise EntryError(f"entry ({i},{j}) outside 1..{spec.dim}")
    report = validate_unique_admissibility(spec, order)
    if not report.ok:
        comp, vi, vj = report.violation
        raise HypothesisViolationError(comp, vi, vj)
    b = weight_series_matrix(spec, t, s, order)
    a = b.inverse()
    return hat_transform(a).inverse().entry(i, j)


@capped
def descent_composition_counts(n: int) -> dict[tuple[int, ...], int]:
    """How many permutations of 1..n have each descent composition."""
    return tally(n, (), "all", descent_composition)


def oracle_weight_sum(spec: RunGraphSpec, i: int, j: int, n: int, t=1, s=1) -> Fraction:
    """Sum over S_n of the weight of each descent composition's (i,j)-admissible path.

    Independent of the matrix pipeline; must equal n! times the x^n
    coefficient of run_theorem_egf.  A composition's weight is t^a * s^b
    for the exponents (a, b) of its one path, and 0 without one, so S_n is
    grouped by (a, b) once per (n, spec, i, j) and only the groups see t and s.
    """
    t, s = Fraction(t), Fraction(s)
    total = Fraction(0)
    for (a, b), count in _exponent_counts(n, spec, i, j).items():
        total += count * t ** a * s ** b
    return total


@capped
def _exponent_counts(n: int, spec: RunGraphSpec, i: int, j: int) -> dict[tuple[int, int], int]:
    """How many permutations of 1..n have an (i,j) path of each exponent pair."""
    out = Counter()
    for comp, count in descent_composition_counts(n).items():
        ex = _path_exponents(spec, i, j, comp)
        if ex is not None:
            out[ex] += count
    return dict(out)


# --- JSON schema ---

_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _expect(value, kind, what: str):
    """value itself, once it is known to be a JSON value of the given kind."""
    if not isinstance(value, kind) or isinstance(value, bool):  # JSON true is no integer
        raise SpecFormatError(f"malformed spec JSON: {what} must be {_JSON_KINDS[kind]}, "
                              f"got {value!r}")
    return value


def _member(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SpecFormatError(f"malformed spec JSON: {where} has no {key!r}")
    return _expect(obj[key], kind, f"{where} {key!r}")


def _int_pair(value, what: str) -> tuple[int, int]:
    pair = _expect(value, list, what)
    if len(pair) != 2:
        raise SpecFormatError(f"malformed spec JSON: {what} must have two entries, got {value!r}")
    return tuple(_expect(x, int, what) for x in pair)


def spec_from_json(data) -> RunGraphSpec:
    """Parse a spec; any shape or type error, or a vertex that no edge
    touches, raises SpecFormatError."""
    _expect(data, dict, "the spec")
    edges = []
    for ed in _member(data, "edges", list, "the spec"):
        _expect(ed, dict, "an edge")
        cases = []
        for c in _member(ed, "cases", list, "an edge"):
            _expect(c, dict, "a case")
            parts = _member(c, "parts", dict, "a case")
            progressions = [_int_pair(pr, "a progression")
                            for pr in _expect(parts.get("progressions", []), list,
                                              "'progressions'")]
            extras = [_expect(k, int, "an extra part")
                      for k in _expect(parts.get("extras", []), list, "'extras'")]
            cases.append(WeightCase(PartSet.make(progressions, extras),
                                    _int_pair(_member(c, "t_exp", list, "a case"), "'t_exp'"),
                                    _int_pair(_member(c, "s_exp", list, "a case"), "'s_exp'")))
        edges.append(Edge(_member(ed, "from", int, "an edge"), _member(ed, "to", int, "an edge"),
                          tuple(cases)))
    spec = RunGraphSpec(_member(data, "name", str, "the spec"),
                        _member(data, "dim", int, "the spec"), tuple(edges))
    # every edge end lies in 1..dim, so each vertex touches an edge iff
    # there are dim distinct ends; a loop over 1..dim could take forever
    ends = sorted({v for e in edges for v in (e.src, e.dst)})
    if len(ends) < spec.dim:
        k = next((v for v, end in enumerate(ends, 1) if v != end), len(ends) + 1)
        raise SpecFormatError(f"malformed spec JSON: vertex {k} has no edge")
    return spec


def load_spec(path: str) -> RunGraphSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise SpecFormatError("malformed spec JSON: nested too deeply") from None
    return spec_from_json(data)


def builtin_spec(name: str) -> RunGraphSpec:
    """One of the shipped specs: fig1 (unit weights on the desarrangement
    graph), fig2 (t-weights on the complement graph), fig3 (s,t-weights on
    the pixed-point graph)."""
    if name not in BUILTIN_SPECS:
        raise SpecFormatError(f"unknown builtin spec {name!r}; have {BUILTIN_SPECS}")
    return load_spec(os.path.join(os.path.dirname(__file__), "specs", f"{name}.json"))
