"""Finite partially ordered sets.

A poset is stored as its element tuple (in a stable, caller-visible order)
together with the down-set of every element; covers are derived on demand.
Elements may be any hashable values.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidPosetError, NotFoundError

Element = Hashable


class Poset:
    """Finite poset over hashable elements.

    Build one with ``Poset.from_relation``, ``Poset.from_covers`` or
    ``Poset.from_leq``; the plain constructor takes an element sequence and a
    precomputed ``{element: frozenset_of_lower_or_equal}`` table and validates
    it.
    """

    __slots__ = ("_elements", "_index", "_down", "_covers_cache", "_height_cache")

    def __init__(self, elements: Sequence[Element], down: Mapping[Element, frozenset]):
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise InvalidPosetError("duplicate elements")
        self._index = {x: i for i, x in enumerate(self._elements)}
        if set(down) != set(self._elements):
            raise InvalidPosetError("down-set table does not match element set")
        self._down = {x: frozenset(down[x]) for x in self._elements}
        self._covers_cache: tuple[tuple[Element, Element], ...] | None = None
        self._height_cache: dict[Element, int] | None = None
        self._validate()

    def _validate(self) -> None:
        down = self._down
        for x, dx in down.items():
            if x not in dx:
                raise InvalidPosetError(f"down-set of {x!r} must contain {x!r}")
            for y in dx:
                if y not in self._index:
                    raise InvalidPosetError(f"down-set of {x!r} mentions foreign element {y!r}")
                if not down[y] <= dx:
                    raise InvalidPosetError(f"transitivity fails at {y!r} <= {x!r}")
                if y != x and x in down[y]:
                    raise InvalidPosetError(f"antisymmetry fails between {x!r} and {y!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_relation(cls, elements: Iterable[Element], pairs: Iterable[tuple[Element, Element]]) -> "Poset":
        """Poset generated by ``pairs`` of the form (lower, upper).

        The reflexive-transitive closure is taken automatically; a cycle
        through distinct elements raises InvalidPosetError.
        """
        elems = list(elements)
        index = set(elems)
        above: dict[Element, set[Element]] = {x: set() for x in elems}
        for a, b in pairs:
            if a not in index or b not in index:
                raise InvalidPosetError(f"relation pair ({a!r}, {b!r}) mentions unknown element")
            if a != b:
                above[a].add(b)
        # reachability by DFS gives the full down-set table
        down: dict[Element, set[Element]] = {x: {x} for x in elems}
        for x in elems:
            stack = list(above[x])
            seen = {x}
            while stack:
                y = stack.pop()
                if y in seen:
                    continue
                seen.add(y)
                down[y].add(x)
                stack.extend(above[y])
        poset = cls(elems, {x: frozenset(s) for x, s in down.items()})
        return poset

    @classmethod
    def from_covers(cls, elements: Iterable[Element], covers: Iterable[tuple[Element, Element]]) -> "Poset":
        """Poset from Hasse-diagram edges (lower, upper)."""
        return cls.from_relation(elements, covers)

    @classmethod
    def from_leq(cls, elements: Iterable[Element], leq: Callable[[Element, Element], bool]) -> "Poset":
        """Poset from a comparison predicate, evaluated on all pairs."""
        elems = list(elements)
        down = {
            x: frozenset(y for y in elems if leq(y, x))
            for x in elems
        }
        return cls(elems, down)

    # -- basic queries --------------------------------------------------

    @property
    def elements(self) -> tuple[Element, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: Element) -> bool:
        return x in self._index

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def _check(self, x: Element) -> None:
        if x not in self._index:
            raise NotFoundError(f"{x!r} is not an element of this poset")

    def leq(self, a: Element, b: Element) -> bool:
        self._check(a)
        self._check(b)
        return a in self._down[b]

    def lt(self, a: Element, b: Element) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: Element, b: Element) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def down_set(self, x: Element) -> frozenset:
        """All y with y <= x."""
        self._check(x)
        return self._down[x]

    def up_set(self, x: Element) -> frozenset:
        """All y with y >= x."""
        self._check(x)
        return frozenset(y for y in self._elements if x in self._down[y])

    def minimal_open(self, x: Element) -> frozenset:
        """The smallest open set containing x: the down-set of x."""
        return self.down_set(x)

    def strictly_below(self, x: Element) -> frozenset:
        return self.down_set(x) - {x}

    def strictly_above(self, x: Element) -> frozenset:
        return self.up_set(x) - {x}

    # -- covers and height ----------------------------------------------

    @property
    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """Irredundant cover pairs (a, b): a < b with nothing strictly between.

        The elements covered by b are the maximal elements of its strict
        down-set: those strictly below no other member of it.  Pairs come
        ordered by b, then a, in stored order.
        """
        if self._covers_cache is None:
            down, index = self._down, self._index
            strict = {x: dx - {x} for x, dx in down.items()}
            out = []
            for b in self._elements:
                below = strict[b]
                if below:
                    lower = below.difference(*[strict[c] for c in below])
                    out += [(a, b) for a in sorted(lower, key=index.__getitem__)]
            self._covers_cache = tuple(out)
        return self._covers_cache

    def covers_of(self, x: Element) -> tuple[Element, ...]:
        """Elements covering x."""
        return tuple(b for a, b in self.covers if a == x)

    def covered_by(self, x: Element) -> tuple[Element, ...]:
        """Elements covered by x."""
        return tuple(a for a, b in self.covers if b == x)

    def height(self, x: Element | None = None) -> int:
        """Height of an element (longest chain below it), or of the poset."""
        if self._height_cache is None:
            down = self._down
            h: dict[Element, int] = {}
            for y in sorted(self._elements, key=lambda e: len(down[e])):
                # y itself is not in h yet and counts as -1
                h[y] = 1 + max(map(h.get, down[y], repeat(-1)))
            self._height_cache = h
        if x is None:
            return max(self._height_cache.values(), default=0)
        self._check(x)
        return self._height_cache[x]

    def minimal_elements(self) -> tuple[Element, ...]:
        return tuple(x for x in self._elements if len(self._down[x]) == 1)

    def maximal_elements(self) -> tuple[Element, ...]:
        return tuple(x for x in self._elements if len(self.strictly_above(x)) == 0)

    # -- subposets and products -----------------------------------------

    def induced(self, subset: Iterable[Element]) -> "Poset":
        """Induced subposet on the given elements, keeping this poset's order."""
        subset_set = set(subset)
        for x in subset_set:
            self._check(x)
        sub = [x for x in self._elements if x in subset_set]
        down = {x: frozenset(self._down[x] & subset_set) for x in sub}
        return Poset(sub, down)

    def product(self, other: "Poset") -> "Poset":
        """Componentwise-ordered product poset on pairs."""
        elems = [(a, b) for a in self._elements for b in other._elements]
        down = {
            (a, b): frozenset(
                (c, d) for c in self._down[a] for d in other._down[b]
            )
            for (a, b) in elems
        }
        return Poset(elems, down)

    def linear_extension(self) -> tuple[Element, ...]:
        """Elements sorted by height, ties broken by stored order."""
        return tuple(sorted(self._elements, key=lambda x: (self.height(x), self._index[x])))

    # -- chains ---------------------------------------------------------

    def chains(self, max_length: int | None = None) -> Iterator[tuple[Element, ...]]:
        """All non-empty chains as tuples sorted increasingly in the order.

        ``max_length`` bounds the number of elements per chain.
        """
        order = self.linear_extension()
        pos = {x: i for i, x in enumerate(order)}
        # successors[i]: indices j > i with order[i] < order[j]
        successors = [
            [pos[y] for y in order[i + 1:] if self.lt(order[i], y)]
            for i in range(len(order))
        ]

        def extend(chain: list[int]) -> Iterator[tuple[Element, ...]]:
            yield tuple(order[i] for i in chain)
            if max_length is not None and len(chain) >= max_length:
                return
            for j in successors[chain[-1]]:
                chain.append(j)
                yield from extend(chain)
                chain.pop()

        for i in range(len(order)):
            yield from extend([i])

    def is_chain(self, subset: Iterable[Element]) -> bool:
        elems = list(subset)
        return all(self.comparable(a, b) for i, a in enumerate(elems) for b in elems[i + 1:])

    # -- maps between posets --------------------------------------------

    def is_order_preserving(
        self, mapping: Mapping[Element, Element] | Callable[[Element], Element], codomain: "Poset"
    ) -> tuple[bool, tuple[Element, Element] | None]:
        """Check a <= b implies f(a) <= f(b); returns (ok, witness_pair_or_None).

        Only cover pairs need checking, by transitivity.
        """
        f = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
        for a, b in self.covers:
            if not codomain.leq(f(a), f(b)):
                return False, (a, b)
        return True, None

    # -- connectivity ---------------------------------------------------

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph (empty poset counts as not connected)."""
        if not self._elements:
            return False
        adj: dict[Element, set[Element]] = {x: set() for x in self._elements}
        for a, b in self.covers:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self._elements[0]}
        stack = [self._elements[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self._elements)

    # -- homotopy reduction ---------------------------------------------

    def core(self) -> tuple["Poset", dict[Element, Element]]:
        """Strong-collapse core: repeatedly delete beat points.

        A point is a beat point when it has exactly one upper cover or
        exactly one lower cover among the points still present; deleting it
        preserves the homotopy type of the order complex (Stong).  The
        deletion is a worklist over cover adjacency: when x goes, each lower
        cover l of x becomes covered by each upper cover u of x, unless
        another upper cover of l lies below u, and the neighbours of x are
        checked again.  Returns the reduced poset and the composed
        retraction from every original element to its image in the core.
        """
        down = self._down
        upper: dict[Element, set[Element]] = {x: set() for x in self._elements}
        lower: dict[Element, set[Element]] = {x: set() for x in self._elements}
        for a, b in self.covers:
            upper[a].add(b)
            lower[b].add(a)
        target: dict[Element, Element] = {}
        stack = list(reversed(self._elements))
        while stack:
            x = stack.pop()
            if x not in upper:
                continue
            up, low = upper[x], lower[x]
            if len(up) == 1:
                (target[x],) = up
            elif len(low) == 1:
                (target[x],) = low
            else:
                continue
            for u in up:
                lower[u].discard(x)
            for lo in low:
                others = upper[lo]
                others.discard(x)
                for u in up:
                    if others.isdisjoint(down[u]):
                        others.add(u)
                        lower[u].add(lo)
            stack.extend(up)
            stack.extend(low)
            del upper[x], lower[x]

        if not target:
            return self, {x: x for x in self._elements}
        # a target was present when its source went, so it is resolved
        # before its source when the deletions are replayed backwards
        image = {x: x for x in upper}
        for x in reversed(target):
            image[x] = image[target[x]]
        core_elems = [x for x in self._elements if x in upper]
        core_poset = Poset(core_elems, {x: down[x].intersection(upper) for x in core_elems})
        return core_poset, {x: image[x] for x in self._elements}

    # -- export ---------------------------------------------------------

    def to_dot(self, name: str = "poset", label: Callable[[Element], str] = str) -> str:
        """Hasse diagram in DOT format, edges pointing from lower to upper."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
        ids = {x: f"n{i}" for i, x in enumerate(self._elements)}
        for x in self._elements:
            lines.append(f'  {ids[x]} [label="{label(x)}"];')
        for a, b in self.covers:
            lines.append(f"  {ids[a]} -> {ids[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Poset({len(self._elements)} elements, {len(self.covers)} covers)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return set(self._elements) == set(other._elements) and all(
            self._down[x] == other._down[x] for x in self._elements
        )

    def __hash__(self) -> int:
        return hash(frozenset((x, self._down[x]) for x in self._elements))


def is_isomorphic(p: Poset, q: Poset) -> tuple[bool, dict[Element, Element] | None]:
    """Poset isomorphism by backtracking on height-compatible candidates.

    Fine for the small posets this library deals in; returns a witness
    bijection when one exists.
    """
    if len(p) != len(q):
        return False, None
    ph = sorted(p.height(x) for x in p)
    qh = sorted(q.height(x) for x in q)
    if ph != qh:
        return False, None
    p_order = p.linear_extension()
    candidates = {
        x: [y for y in q if q.height(y) == p.height(x)
            and len(q.down_set(y)) == len(p.down_set(x))
            and len(q.up_set(y)) == len(p.up_set(x))]
        for x in p_order
    }

    assignment: dict[Element, Element] = {}
    used: set[Element] = set()

    def place(i: int) -> bool:
        if i == len(p_order):
            return True
        x = p_order[i]
        for y in candidates[x]:
            if y in used:
                continue
            ok = all(
                p.leq(x2, x) == q.leq(y2, y) and p.leq(x, x2) == q.leq(y, y2)
                for x2, y2 in assignment.items()
            )
            if ok:
                assignment[x] = y
                used.add(y)
                if place(i + 1):
                    return True
                del assignment[x]
                used.discard(y)
        return False

    if place(0):
        return True, dict(assignment)
    return False, None
