"""The combinatorial line and its finite windows.

The line is the poset with elements indexed by the integers in which each odd
index sits below its two even neighbours:

    ... x_{-1} < x_0 > x_1 < x_2 > x_3 ...

Odd indices are minimal (height 0), even indices maximal (height 1).  A window
is the induced subposet on an index range [lo, hi], optionally annotated with
tail rules that describe a self-map's values outside the window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import InvalidRangeError, InvalidTailError, NotFoundError
from .posets import Poset


def line_leq(i: int, j: int) -> bool:
    """Order of the full line: x_i <= x_j iff i == j, or they are adjacent
    and i is odd."""
    return i == j or (abs(i - j) == 1 and i % 2 == 1)


def is_minimal_index(i: int) -> bool:
    return i % 2 == 1


def is_maximal_index(i: int) -> bool:
    return i % 2 == 0


# -- tail rules ---------------------------------------------------------


class Direction(enum.Enum):
    """Limit behaviour of an index sequence."""

    PLUS_INFINITY = "PlusInfinity"
    MINUS_INFINITY = "MinusInfinity"
    NEITHER = "Neither"


class TailRule:
    """Behaviour of a self-map outside a window.  Immutable."""

    kind: str

    def apply(self, i: int) -> int | None:
        """Image index of x_i under the rule, or None if undefined."""
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class NoTail(TailRule):
    """The map is undefined outside the window; analyses that need a value
    there come back inconclusive."""

    kind: str = "none"

    def apply(self, i: int) -> int | None:
        return None


@dataclass(frozen=True)
class Shift(TailRule):
    """x_i maps to x_{i+offset}; the offset must be even to preserve parity."""

    offset: int
    kind: str = "shift"

    def __post_init__(self) -> None:
        if self.offset % 2 != 0:
            raise InvalidTailError(f"shift offset must be even, got {self.offset}")

    def apply(self, i: int) -> int | None:
        return i + self.offset

    def to_json(self) -> dict:
        return {"kind": "shift", "offset": self.offset}


@dataclass(frozen=True)
class Collapse(TailRule):
    """Every outside index maps to one fixed target index."""

    target: int
    kind: str = "collapse"

    def apply(self, i: int) -> int | None:
        return self.target

    def to_json(self) -> dict:
        return {"kind": "collapse", "target": self.target}


@dataclass(frozen=True)
class Mirror(TailRule):
    """x_i maps to x_{-i}; the finite description of the reflection map."""

    kind: str = "mirror"

    def apply(self, i: int) -> int | None:
        return -i


NO_TAIL = NoTail()
MIRROR = Mirror()


def _tail_index(obj: dict, key: str) -> int:
    """An integer field of a tail rule; JSON booleans are not integers."""
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidTailError(f'{obj["kind"]} tail needs an integer "{key}", got {value!r}')
    return value


def tail_from_json(obj: dict | None) -> TailRule:
    if obj is None:
        return NO_TAIL
    if not isinstance(obj, dict):
        raise InvalidTailError(f"tail rule must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "none":
        return NO_TAIL
    if kind == "shift":
        return Shift(_tail_index(obj, "offset"))
    if kind == "collapse":
        return Collapse(_tail_index(obj, "target"))
    if kind == "mirror":
        return MIRROR
    raise InvalidTailError(f"unknown tail kind {kind!r}")


def tends_to(tail: TailRule, prefix: Sequence[int] = ()) -> Direction:
    """Limit direction of a sequence given by a finite prefix continued by a
    tail rule.  Decided symbolically: only an outward shift escapes every
    bound; every other rule keeps the continuation on a bounded index set.
    """
    if isinstance(tail, Shift):
        if tail.offset > 0:
            return Direction.PLUS_INFINITY
        if tail.offset < 0:
            return Direction.MINUS_INFINITY
    return Direction.NEITHER


# -- intervals ----------------------------------------------------------


def interval_indices(a: int, b: int) -> range:
    """Index range of the fence between a and b, inclusive; symmetric."""
    return range(min(a, b), max(a, b) + 1)


@dataclass(frozen=True)
class Interval:
    """The set of line points between two endpoints, walked endpoint to
    endpoint.  Two intervals are equal when they cover the same points."""

    a: int
    b: int

    @property
    def lo(self) -> int:
        return min(self.a, self.b)

    @property
    def hi(self) -> int:
        return max(self.a, self.b)

    @property
    def points(self) -> tuple[int, ...]:
        step = 1 if self.b >= self.a else -1
        return tuple(range(self.a, self.b + step, step))

    @property
    def point_set(self) -> frozenset[int]:
        return frozenset(interval_indices(self.a, self.b))

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Interval):
            return self.point_set == other.point_set
        if isinstance(other, (set, frozenset)):
            return self.point_set == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval[x_{self.a}, x_{self.b}]"


# -- windows ------------------------------------------------------------


class LineWindow:
    """The finite fragment {x_lo, ..., x_hi} of the line, with optional tail
    rules describing self-map behaviour outside it."""

    __slots__ = ("lo", "hi", "left_tail", "right_tail", "__dict__")

    def __init__(
        self,
        lo: int,
        hi: int,
        left_tail: TailRule = NO_TAIL,
        right_tail: TailRule = NO_TAIL,
    ):
        if lo > hi:
            raise InvalidRangeError(f"window needs lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.left_tail = left_tail
        self.right_tail = right_tail

    @property
    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __len__(self) -> int:
        return self.size

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def check_member(self, i: int) -> None:
        if i not in self:
            raise NotFoundError(f"x_{i} is outside window [{self.lo}, {self.hi}]")

    @cached_property
    def poset(self) -> Poset:
        down = {}
        for i in self.indices:
            if is_minimal_index(i):
                down[i] = frozenset({i})
            else:
                down[i] = frozenset(
                    j for j in (i - 1, i, i + 1) if self.lo <= j <= self.hi
                )
        return Poset(list(self.indices), down)

    def leq(self, i: int, j: int) -> bool:
        self.check_member(i)
        self.check_member(j)
        return line_leq(i, j)

    def minimal_open(self, i: int) -> frozenset[int]:
        self.check_member(i)
        return self.poset.minimal_open(i)

    def height(self, i: int | None = None) -> int:
        if i is None:
            return self.poset.height()
        self.check_member(i)
        return self.poset.height(i)

    def interval(self, a: int, b: int) -> Interval:
        self.check_member(a)
        self.check_member(b)
        return Interval(a, b)

    def clip(self, i: int) -> int:
        """Nearest in-window index."""
        return min(max(i, self.lo), self.hi)

    def with_tails(self, left_tail: TailRule, right_tail: TailRule) -> "LineWindow":
        return LineWindow(self.lo, self.hi, left_tail, right_tail)

    def to_dot(self, name: str = "window") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i in self.indices:
            lines.append(f'  n{i - self.lo} [label="x{i}"];')
        minimal = [i for i in self.indices if is_minimal_index(i)]
        maximal = [i for i in self.indices if is_maximal_index(i)]
        if minimal:
            lines.append("  { rank=same; " + " ".join(f"n{i - self.lo};" for i in minimal) + " }")
        if maximal:
            lines.append("  { rank=same; " + " ".join(f"n{i - self.lo};" for i in maximal) + " }")
        for a, b in self.poset.covers:
            lines.append(f"  n{a - self.lo} -> n{b - self.lo};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineWindow):
            return NotImplemented
        return (self.lo, self.hi, self.left_tail, self.right_tail) == (
            other.lo,
            other.hi,
            other.left_tail,
            other.right_tail,
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.left_tail, self.right_tail))

    def __repr__(self) -> str:
        return f"LineWindow[{self.lo}, {self.hi}]"


def build_line_window(
    lo: int,
    hi: int,
    left_tail: TailRule = NO_TAIL,
    right_tail: TailRule = NO_TAIL,
) -> LineWindow:
    """Window of the line on the index range [lo, hi]."""
    return LineWindow(lo, hi, left_tail, right_tail)
