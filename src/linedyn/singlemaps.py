"""Single-valued continuous dynamics on line windows.

A SelfMap stores explicit values on a window plus tail rules for the rest of
the line.  Continuity is order-preservation, checked on the window's cover
pairs and on the two seam pairs at the window boundary; each tail rule is
order-preserving on its own, so those checks suffice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import (
    InconclusiveDynamicsError,
    InternalConsistencyError,
    NoPeriodTwoError,
    NotContinuousError,
    NotFoundError,
    OutOfWindowError,
    SizeGuardError,
)
from .homology import lefschetz_number_of_map
from .line import (
    Direction,
    Interval,
    LineWindow,
    NoTail,
    Shift,
    TailRule,
    interval_indices,
    line_leq,
    tends_to,
)

ENUMERATION_GUARD = 13


class SelfMap:
    """Total map on a window's indices, with tail rules for the outside."""

    __slots__ = ("window", "values", "left_tail", "right_tail")

    def __init__(
        self,
        window: LineWindow,
        values: Mapping[int, int],
        left_tail: TailRule | None = None,
        right_tail: TailRule | None = None,
    ):
        self.window = window
        self.values = {int(i): int(v) for i, v in values.items()}
        missing = [i for i in window.indices if i not in self.values]
        if missing:
            raise NotFoundError(f"no value for x_{missing[0]}")
        extra = [i for i in self.values if i not in window]
        if extra:
            raise NotFoundError(f"value given for x_{extra[0]} outside the window")
        self.left_tail = window.left_tail if left_tail is None else left_tail
        self.right_tail = window.right_tail if right_tail is None else right_tail
        if (self.left_tail, self.right_tail) != (window.left_tail, window.right_tail):
            self.window = window.with_tails(self.left_tail, self.right_tail)

    def value(self, i: int) -> int | None:
        """Image index of x_i, or None where no tail rule applies."""
        if i in self.window:
            return self.values[i]
        if i < self.window.lo:
            return self.left_tail.apply(i)
        return self.right_tail.apply(i)

    def __call__(self, i: int) -> int | None:
        return self.value(i)

    @property
    def maps_into_window(self) -> bool:
        return all(v in self.window for v in self.values.values())

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i in self.window.indices if self.values[i] == i)

    def check_continuity(self) -> tuple[bool, tuple[int, int] | None]:
        return is_order_preserving_line(self)

    def to_json(self) -> dict:
        return {
            "kind": "selfmap",
            "window": [self.window.lo, self.window.hi],
            "values": {str(i): self.values[i] for i in self.window.indices},
            "left_tail": self.left_tail.to_json(),
            "right_tail": self.right_tail.to_json(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelfMap):
            return NotImplemented
        return (
            self.window == other.window
            and self.values == other.values
            and self.left_tail == other.left_tail
            and self.right_tail == other.right_tail
        )

    def __hash__(self) -> int:
        return hash(
            (self.window, tuple(sorted(self.values.items())), self.left_tail, self.right_tail)
        )

    def __repr__(self) -> str:
        return f"SelfMap({self.window!r}, {len(self.values)} values)"


def is_order_preserving_line(f: SelfMap) -> tuple[bool, tuple[int, int] | None]:
    """Continuity of a window map with tails.

    Checks every in-window cover pair, then the seam pairs (lo-1, lo) and
    (hi, hi+1) using tail values.  Tail rules are order-preserving on their
    own (even shifts and the reflection preserve the cover pattern, constants
    trivially), so violations can only occur at covers the check visits.
    Returns (ok, witness) where the witness pair is ordered (lower, upper).
    """
    w = f.window
    values = f.values
    for i in w.indices:
        if i % 2 == 1:
            # odd index below its even neighbours
            for j in (i - 1, i + 1):
                if j in w and not line_leq(values[i], values[j]):
                    return False, (i, j)
    for outside, inside, rule in (
        (w.lo - 1, w.lo, f.left_tail),
        (w.hi + 1, w.hi, f.right_tail),
    ):
        tail_val = rule.apply(outside)
        if tail_val is None:
            continue
        if outside % 2 == 1:
            if not line_leq(tail_val, values[inside]):
                return False, (outside, inside)
        else:
            if not line_leq(values[inside], tail_val):
                return False, (inside, outside)
    return True, None


# -- interval images ----------------------------------------------------


def image_of_interval(f: SelfMap, a: int, b: int) -> frozenset[int]:
    """f([a, b]) as a point set; every image must stay inside the window."""
    f.window.check_member(a)
    f.window.check_member(b)
    out = set()
    for i in interval_indices(a, b):
        v = f.values[i]
        if v not in f.window:
            raise OutOfWindowError(
                f"f(x_{i}) = x_{v} leaves window [{f.window.lo}, {f.window.hi}]"
            )
        out.add(v)
    return frozenset(out)


def contains_interval_check(f: SelfMap, a: int, b: int) -> bool:
    """Whether [f(a), f(b)] is contained in f([a, b]); holds for every
    continuous map."""
    image = image_of_interval(f, a, b)
    return all(i in image for i in interval_indices(f.values[a], f.values[b]))


# -- orbits -------------------------------------------------------------


class OrbitStatus(enum.Enum):
    PERIODIC = "Periodic"
    LEFT_WINDOW = "LeftWindow"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class OrbitRecord:
    start: int
    points: tuple[int, ...]
    status: OrbitStatus
    period: int | None = None
    preperiod: int | None = None
    direction: Direction | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        out = {
            "start": self.start,
            "points": list(self.points),
            "status": self.status.value,
        }
        if self.status is OrbitStatus.PERIODIC:
            out["period"] = self.period
            out["preperiod"] = self.preperiod
        if self.direction is not None:
            out["direction"] = self.direction.value
        if self.reason:
            out["reason"] = self.reason
        return out


def iterate(f: SelfMap, x: int, max_steps: int = 1000) -> OrbitRecord:
    """Forward orbit of x until repetition, divergence, or the step budget.

    A shift tail pointing away from the window settles divergence
    symbolically; any other tail keeps the orbit on a bounded index set, so
    repetition detection decides.
    """
    f.window.check_member(x)
    w = f.window
    seen: dict[int, int] = {}
    points: list[int] = []
    cur = x
    while True:
        if cur in seen:
            k = seen[cur]
            return OrbitRecord(
                start=x,
                points=tuple(points),
                status=OrbitStatus.PERIODIC,
                period=len(points) - k,
                preperiod=k,
            )
        seen[cur] = len(points)
        points.append(cur)
        if len(points) > max_steps:
            return OrbitRecord(
                start=x,
                points=tuple(points),
                status=OrbitStatus.INCONCLUSIVE,
                reason="step budget exhausted",
            )
        if cur in w:
            cur = f.values[cur]
            continue
        rule = f.left_tail if cur < w.lo else f.right_tail
        if isinstance(rule, NoTail):
            return OrbitRecord(
                start=x,
                points=tuple(points),
                status=OrbitStatus.INCONCLUSIVE,
                reason="orbit left the window and no tail rule applies",
            )
        if isinstance(rule, Shift):
            outward = rule.offset > 0 if cur > w.hi else rule.offset < 0
            if outward:
                return OrbitRecord(
                    start=x,
                    points=tuple(points),
                    status=OrbitStatus.LEFT_WINDOW,
                    direction=tends_to(rule),
                )
        cur = rule.apply(cur)


def periodic_points(
    f: SelfMap, max_period: int | None = None, max_steps: int | None = None
) -> dict[int, frozenset[int]]:
    """Window points on periodic orbits, grouped by minimal period.

    For a continuous map no period of three or more can occur; finding one
    anyway means the library itself is broken, so that case raises instead of
    returning.
    """
    w = f.window
    if max_period is None:
        max_period = w.size
    if max_steps is None:
        max_steps = 4 * w.size + 64
    found: dict[int, set[int]] = {}
    for x in w.indices:
        rec = iterate(f, x, max_steps)
        if rec.status is OrbitStatus.PERIODIC and rec.preperiod == 0:
            if rec.period <= max_period:
                found.setdefault(rec.period, set()).add(x)
    if any(p >= 3 for p in found) and f.check_continuity()[0]:
        raise InternalConsistencyError(
            f"continuous map produced a period {max(found)} point; this is a bug"
        )
    return {p: frozenset(s) for p, s in sorted(found.items())}


# -- exhaustive enumeration ---------------------------------------------


def enumerate_value_tuples(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All order-preserving self-maps of the window as value tuples, indexed
    lo..hi, in lexicographic order of values.

    Only the constraint between consecutive indices matters: the odd one of
    the pair must map below the even one's image.  Allowed successors depend
    only on the previous value, so they are tabulated once.
    """
    n = hi - lo + 1
    candidates = range(lo, hi + 1)
    # values below v (v even keeps its odd neighbours) and above v
    below = {
        v: [u for u in candidates if u == v or (abs(u - v) == 1 and u % 2 == 1)]
        for v in candidates
    }
    above = {
        v: [u for u in candidates if u == v or (abs(u - v) == 1 and v % 2 == 1)]
        for v in candidates
    }
    acc: list[int] = []

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(acc)
            return
        i = lo + pos
        if pos == 0:
            allowed = list(candidates)
        elif i % 2 == 1:
            # x_i below x_{i-1}: need f(i) <= f(i-1)
            allowed = below[acc[-1]]
        else:
            # x_{i-1} below x_i: need f(i-1) <= f(i)
            allowed = above[acc[-1]]
        for v in allowed:
            acc.append(v)
            yield from extend(pos + 1)
            acc.pop()

    yield from extend(0)


def enumerate_continuous_selfmaps(w: LineWindow, force: bool = False) -> Iterator[SelfMap]:
    """Every order-preserving self-map of the window, tails left undefined,
    in a fixed order.  Guarded against windows above 13 elements."""
    if w.size > ENUMERATION_GUARD and not force:
        raise SizeGuardError(
            f"window has {w.size} elements, above the enumeration guard "
            f"{ENUMERATION_GUARD}; pass force=True to run anyway"
        )
    bare = LineWindow(w.lo, w.hi)
    for tup in enumerate_value_tuples(w.lo, w.hi):
        yield SelfMap(bare, dict(zip(bare.indices, tup)))


def count_continuous_selfmaps(w: LineWindow, force: bool = False) -> int:
    if w.size > ENUMERATION_GUARD and not force:
        raise SizeGuardError(f"window has {w.size} elements, above the guard")
    return sum(1 for _ in enumerate_value_tuples(w.lo, w.hi))


# -- the period-two set and classification ------------------------------


def period_two_set(f: SelfMap) -> Interval:
    """The points swapped in pairs by the map, together with the unique fixed
    point; always a single interval when the map is continuous."""
    w = f.window
    swapped = []
    for s in w.indices:
        v = f.values[s]
        if v == s:
            continue
        back = f.value(v)
        if back == s:
            swapped.append(s)
    if not swapped:
        raise NoPeriodTwoError("map has no period-two point")
    fixed = sorted(f.fixed_points())
    if len(fixed) != 1:
        raise InternalConsistencyError(
            f"map with period-two points has {len(fixed)} fixed points, expected one"
        )
    members = sorted(swapped + fixed)
    span = range(members[0], members[-1] + 1)
    if len(members) != len(span) or any(m != s for m, s in zip(members, span)):
        raise InternalConsistencyError("period-two set is not an interval")
    return Interval(members[0], members[-1])


class DynamicsTag(enum.Enum):
    IDENTITY = "Identity"
    EVENTUALLY_FIXED_INTERVAL = "EventuallyFixedInterval"
    PERIOD_TWO_HOMEOMORPHISM = "PeriodTwoHomeomorphism"
    PERIOD_TWO_ATTRACTOR = "PeriodTwoAttractor"
    DRIFT_RIGHT = "DriftRight"
    DRIFT_LEFT = "DriftLeft"


@dataclass(frozen=True)
class DynamicsClass:
    tag: DynamicsTag
    fixed_point: int | None = None
    interval: Interval | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag.value}
        if self.fixed_point is not None:
            out["fixed_point"] = self.fixed_point
        if self.interval is not None:
            out["interval"] = [self.interval.lo, self.interval.hi]
        if self.details:
            out["details"] = self.details
        return out


def _absorption_steps(f: SelfMap, target: frozenset[int], max_steps: int) -> int:
    """Largest number of applications needed to put a window point inside the
    target set; raises when some orbit cannot be confirmed to arrive."""
    worst = 0
    for x in f.window.indices:
        cur = x
        for step in range(max_steps + 1):
            if cur in target:
                worst = max(worst, step)
                break
            nxt = f.value(cur)
            if nxt is None:
                raise InconclusiveDynamicsError(
                    f"orbit of x_{x} leaves the window with no tail rule"
                )
            cur = nxt
        else:
            raise InternalConsistencyError(
                f"orbit of x_{x} did not reach the expected absorbing set"
            )
    return worst


def classify_dynamics(f: SelfMap) -> DynamicsClass:
    """Exactly one behaviour tag for a continuous map on a window.

    Periodic behaviour splits by whether a period-two point exists and, if
    so, whether the map permutes the window; fixed-point behaviour splits
    identity from absorption into the fixed interval; with no periodic points
    at all, orbits must drift off one end.
    """
    ok, witness = f.check_continuity()
    if not ok:
        raise NotContinuousError(f"map is not continuous at pair {witness!r}")
    w = f.window
    pp = periodic_points(f)
    fixed = pp.get(1, frozenset())
    p2 = pp.get(2, frozenset())
    if p2:
        z = min(fixed) if fixed else None
        if len(fixed) != 1:
            raise InternalConsistencyError(
                f"period-two map with {len(fixed)} fixed points"
            )
        p2_interval = period_two_set(f)
        is_permutation = sorted(f.values.values()) == list(w.indices)
        if is_permutation:
            return DynamicsClass(
                tag=DynamicsTag.PERIOD_TWO_HOMEOMORPHISM, fixed_point=z, interval=p2_interval
            )
        steps = _absorption_steps(f, p2_interval.point_set, 4 * w.size + 64)
        return DynamicsClass(
            tag=DynamicsTag.PERIOD_TWO_ATTRACTOR,
            fixed_point=z,
            interval=p2_interval,
            details={"absorption_steps": steps},
        )
    if fixed:
        if all(f.values[i] == i for i in w.indices) and (
            isinstance(f.left_tail, NoTail) or f.left_tail == Shift(0)
        ) and (isinstance(f.right_tail, NoTail) or f.right_tail == Shift(0)):
            return DynamicsClass(tag=DynamicsTag.IDENTITY)
        members = sorted(fixed)
        span = range(members[0], members[-1] + 1)
        if len(members) != len(span):
            raise InternalConsistencyError("fixed point set is not an interval")
        steps = _absorption_steps(f, frozenset(span), 4 * w.size + 64)
        return DynamicsClass(
            tag=DynamicsTag.EVENTUALLY_FIXED_INTERVAL,
            fixed_point=members[0],
            interval=Interval(members[0], members[-1]),
            details={"absorption_steps": steps},
        )
    # no periodic point inside the window
    directions: set[Direction] = set()
    outside_landings: set[int] = set()
    for x in w.indices:
        rec = iterate(f, x, 4 * w.size + 64)
        if rec.status is OrbitStatus.LEFT_WINDOW:
            directions.add(rec.direction)
        elif rec.status is OrbitStatus.PERIODIC:
            if rec.period == 1:
                outside_landings.add(rec.points[rec.preperiod])
            else:
                raise InconclusiveDynamicsError(
                    "orbits cycle outside the window; widen the window to classify"
                )
        else:
            raise InconclusiveDynamicsError(rec.reason or "orbit analysis inconclusive")
    if outside_landings and not directions:
        lo, hi = min(outside_landings), max(outside_landings)
        return DynamicsClass(
            tag=DynamicsTag.EVENTUALLY_FIXED_INTERVAL,
            fixed_point=lo,
            interval=Interval(lo, hi),
            details={"fixed_outside_window": True},
        )
    if directions == {Direction.PLUS_INFINITY}:
        return DynamicsClass(tag=DynamicsTag.DRIFT_RIGHT)
    if directions == {Direction.MINUS_INFINITY}:
        return DynamicsClass(tag=DynamicsTag.DRIFT_LEFT)
    raise InternalConsistencyError(
        f"continuous map produced mixed escape directions {sorted(d.value for d in directions)}"
    )


def selfmap_lefschetz(f: SelfMap) -> Fraction:
    """Lefschetz number of a window self-map: the Euler characteristic of the
    order complex of its fixed points (see ``lefschetz_number_of_map``)."""
    if not f.maps_into_window:
        raise OutOfWindowError("Lefschetz number needs a self-map of the window")
    return lefschetz_number_of_map(dict(f.values), f.window.poset)
