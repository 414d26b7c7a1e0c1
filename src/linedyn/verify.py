"""Exhaustive checks of the structure theorems on small windows.

Each suite enumerates a full corpus (all continuous self-maps of a window, or
all interval-valued multivalued maps on all windows up to a size) and counts
violations, which must be zero.  The per-map checks recompute what they test
with plain dict walks where possible, independent of the richer library
classes, so they double as oracles for the test suite.  The Lefschetz sweep
decides the Vietoris condition from the endpoints of the value intervals with
the library's local check, and cross-checks a sample against the global one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InternalConsistencyError, SizeGuardError
from .line import LineWindow, build_line_window, interval_indices
from .multimaps import (
    MultiMap,
    _cover_witness,
    graph_poset,
    is_vietoris_like_map,
    lefschetz_number,
)
from .singlemaps import enumerate_continuous_selfmaps, image_of_interval, period_two_set

MAX_VIOLATIONS_KEPT = 5


@dataclass(frozen=True)
class VerifyResult:
    theorem: str
    corpus_size: int
    checks: int
    violations: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "corpus_size": self.corpus_size,
            "checks": self.checks,
            "violations": [repr(v) for v in self.violations],
            "passed": self.passed,
            "details": self.details,
        }


def _functional_cycle_lengths(values: dict[int, int]) -> set[int]:
    """Cycle lengths of a total function on a finite index set."""
    state: dict[int, int] = {}
    lengths: set[int] = set()
    for start in values:
        if state.get(start):
            continue
        path = []
        cur = start
        while not state.get(cur):
            state[cur] = 1
            path.append(cur)
            cur = values[cur]
        if state[cur] == 1:
            lengths.add(len(path) - path.index(cur))
        for node in path:
            state[node] = 2
    return lengths


def verify_no_high_periods(window: LineWindow, force: bool = False) -> VerifyResult:
    """No continuous self-map of the window has minimal period three or more."""
    corpus = 0
    violations = []
    for f in enumerate_continuous_selfmaps(window, force=force):
        corpus += 1
        bad = {n for n in _functional_cycle_lengths(f.values) if n >= 3}
        if bad and len(violations) < MAX_VIOLATIONS_KEPT:
            violations.append((tuple(f.values[i] for i in window.indices), sorted(bad)))
    return VerifyResult(
        theorem="no-period-3",
        corpus_size=corpus,
        checks=corpus,
        violations=tuple(violations),
    )


def verify_period_two_structure(window: LineWindow, force: bool = False) -> VerifyResult:
    """Every map with a two-cycle has one fixed point z, its period-(<= 2)
    point set is an interval containing z, and every point lands in that set
    within window-size steps."""
    corpus = 0
    with_two_cycle = 0
    checks = 0
    violations = []

    def record(f, reason):
        if len(violations) < MAX_VIOLATIONS_KEPT:
            violations.append((tuple(f.values[i] for i in window.indices), reason))

    for f in enumerate_continuous_selfmaps(window, force=force):
        corpus += 1
        if 2 not in _functional_cycle_lengths(f.values):
            continue
        with_two_cycle += 1
        v = f.values
        p2 = {x for x in window.indices if v[v[x]] == x}
        fixed = sorted(x for x in window.indices if v[x] == x)
        checks += 1
        if len(fixed) != 1:
            record(f, f"{len(fixed)} fixed points")
            continue
        z = fixed[0]
        span = set(range(min(p2), max(p2) + 1))
        if p2 != span:
            record(f, "period-two set is not an interval")
            continue
        if z not in p2:
            record(f, "fixed point outside the period-two set")
            continue
        if period_two_set(f).point_set != frozenset(p2):
            record(f, "period_two_set disagrees with the direct recomputation")
            continue
        for x in window.indices:
            cur = x
            for _ in range(window.size):
                if cur in p2:
                    break
                cur = v[cur]
            if cur not in p2:
                record(f, f"x_{x} does not reach the period-two set in time")
                break
    return VerifyResult(
        theorem="period-2-structure",
        corpus_size=corpus,
        checks=checks,
        violations=tuple(violations),
        details={"maps_with_two_cycle": with_two_cycle},
    )


def verify_interval_lemma(window: LineWindow, force: bool = False) -> VerifyResult:
    """Interval images contain the endpoint interval, with the cardinality
    chain |[a,b]| >= |f([a,b])| >= |[f(a),f(b)]|."""
    corpus = 0
    checks = 0
    violations = []
    pairs = [
        (a, b)
        for a in window.indices
        for b in window.indices
        if a <= b
    ]
    for f in enumerate_continuous_selfmaps(window, force=force):
        corpus += 1
        v = f.values
        for a, b in pairs:
            checks += 1
            image = image_of_interval(f, a, b)
            endpoint_span = set(interval_indices(v[a], v[b]))
            ok = (
                endpoint_span <= image
                and b - a + 1 >= len(image) >= len(endpoint_span)
            )
            if not ok and len(violations) < MAX_VIOLATIONS_KEPT:
                violations.append(
                    (tuple(v[i] for i in window.indices), (a, b))
                )
    return VerifyResult(
        theorem="interval-lemma",
        corpus_size=corpus,
        checks=checks,
        violations=tuple(violations),
        details={"pairs_per_map": len(pairs)},
    )


# -- the Lefschetz sweep over small multivalued maps ---------------------


def _interval_multimap(window: LineWindow, assignment: tuple) -> MultiMap:
    """The map sending x_i to the run [a, b] given for it, in window order."""
    return MultiMap(
        window, {i: range(a, b + 1) for i, (a, b) in zip(window.indices, assignment)}
    )


def verify_lefschetz_fixed_points(
    max_size: int = 5, crosscheck_stride: int = 997
) -> VerifyResult:
    """A non-zero Lefschetz number forces a fixed point, across ALL
    interval-valued multivalued maps on windows of up to max_size points.

    A map with a fixed point satisfies the implication outright, so the
    sweep enumerates exactly the fixed-point-free assignments (every point's
    value interval avoids the point) and demands that each one either fails
    the Vietoris condition or has Lefschetz number zero.  An assignment is a
    tuple of value intervals (a, b); the Vietoris condition is decided from
    these endpoints by the library's cover check, since every interval passes
    the point check.  Every crosscheck_stride-th assignment is re-decided by
    the global check on the graph poset, verdict and witness both.
    """
    total_maps = 0
    fp_free = 0
    vietoris_fp_free = 0
    crosschecked = 0
    violations = []
    per_window: dict[str, int] = {}
    for lo in (0, 1):
        for size in range(1, max_size + 1):
            window = build_line_window(lo, lo + size - 1)
            intervals = [(a, b) for a in window.indices for b in window.indices if a <= b]
            total_maps += len(intervals) ** size
            avoiding = [
                [(a, b) for a, b in intervals if not a <= i <= b] for i in window.indices
            ]
            count_here = 0
            for assignment in itertools.product(*avoiding):
                fp_free += 1
                count_here += 1
                witness = _cover_witness(lo, assignment)
                if fp_free % crosscheck_stride == 0:
                    crosschecked += 1
                    gp = graph_poset(_interval_multimap(window, assignment))
                    expected = is_vietoris_like_map(gp.p, gp.poset, window.poset)
                    if expected != (witness is None, witness):
                        raise InternalConsistencyError(
                            f"local Vietoris check disagrees with the global one on {assignment!r}"
                        )
                if witness is not None:
                    continue
                vietoris_fp_free += 1
                try:
                    bad = lefschetz_number(_interval_multimap(window, assignment)).lambda_ != 0
                except InternalConsistencyError:
                    bad = True
                if bad and len(violations) < MAX_VIOLATIONS_KEPT:
                    violations.append(((window.lo, window.hi), assignment))
            per_window[f"[{window.lo},{window.hi}]"] = count_here
    return VerifyResult(
        theorem="lefschetz",
        corpus_size=total_maps,
        checks=fp_free,
        violations=tuple(violations),
        details={
            "fixed_point_free_maps": fp_free,
            "fixed_point_free_by_window": per_window,
            "vietoris_like_fixed_point_free": vietoris_fp_free,
            "crosschecked": crosschecked,
            "note": "maps with a fixed point satisfy the claim outright and are counted in corpus_size only",
        },
    )


THEOREM_SUITES = {
    "no-period-3": verify_no_high_periods,
    "period-2-structure": verify_period_two_structure,
    "interval-lemma": verify_interval_lemma,
    "lefschetz": verify_lefschetz_fixed_points,
}


def run_theorem_suite(
    name: str, halfwidth: int | None, force: bool = False
) -> VerifyResult:
    """CLI entry: run one suite on the symmetric window [-n, n]."""
    if name not in THEOREM_SUITES:
        raise ValueError(f"unknown theorem {name!r}")
    if name == "lefschetz":
        # fixed sweep over all windows of up to five points
        return verify_lefschetz_fixed_points()
    if halfwidth is None:
        raise SizeGuardError("this suite needs --window to pick [-n, n]")
    window = build_line_window(-halfwidth, halfwidth)
    return THEOREM_SUITES[name](window, force=force)
