"""Multivalued dynamics on line windows.

A MultiMap assigns every window point a non-empty set of window points.  Its
graph is the set of pairs (x, y) with y in F(x), ordered as a subposet of the
product; validity of the homology machinery rests on the first projection
having acyclic preimages over every chain (the Vietoris condition).  Orbits,
period spectra, and invariant sets live on the induced transition digraph.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import networkx as nx

from .errors import (
    InternalConsistencyError,
    InvalidMapError,
    InvalidMultiMapError,
    NotFoundError,
    NotVietorisError,
)
from .homology import is_acyclic
from .line import Interval, LineWindow, line_leq
from .posets import Poset
from .singlemaps import SelfMap


class MultiMap:
    """Total multivalued self-map of a window.

    ``clipped`` marks points whose value set had to be truncated at the
    window boundary by a rule-based builder; stability at such points is a
    truncation artifact, and invariant-set discovery skips them.
    """

    __slots__ = ("window", "values", "clipped")

    def __init__(
        self,
        window: LineWindow,
        values: Mapping[int, Iterable[int]],
        clipped: Iterable[int] = (),
    ):
        self.window = window
        table = {}
        for i in window.indices:
            if i not in values:
                raise InvalidMultiMapError(f"no value set for x_{i}")
            vs = frozenset(int(v) for v in values[i])
            if not vs:
                raise InvalidMultiMapError(f"empty value set at x_{i}")
            outside = [v for v in vs if v not in window]
            if outside:
                raise InvalidMultiMapError(
                    f"value x_{outside[0]} at x_{i} lies outside the window"
                )
            table[i] = vs
        extra = [i for i in values if i not in window]
        if extra:
            raise InvalidMultiMapError(f"value set given for x_{extra[0]} outside the window")
        self.values = table
        self.clipped = frozenset(int(i) for i in clipped)
        if not self.clipped <= set(window.indices):
            raise InvalidMultiMapError("clipped markers must be window indices")

    @classmethod
    def from_rule(
        cls,
        window: LineWindow,
        rule: Callable[[int], Iterable[int]],
        clip: bool = True,
    ) -> "MultiMap":
        """Build from an index rule, cutting value sets down to the window
        and remembering where cutting happened."""
        table = {}
        clipped = []
        for i in window.indices:
            raw = sorted(set(rule(i)))
            kept = [v for v in raw if v in window]
            if not kept:
                raise InvalidMultiMapError(
                    f"value set of x_{i} lies entirely outside the window"
                )
            if len(kept) != len(raw):
                if not clip:
                    raise InvalidMultiMapError(
                        f"value set of x_{i} leaves the window and clip=False"
                    )
                clipped.append(i)
            table[i] = kept
        return cls(window, table, clipped)

    @classmethod
    def from_selfmap(cls, f: SelfMap) -> "MultiMap":
        if not f.maps_into_window:
            raise InvalidMultiMapError("single-valued map must send the window into itself")
        return cls(f.window, {i: (f.values[i],) for i in f.window.indices})

    def value(self, i: int) -> frozenset[int]:
        if i not in self.window:
            raise NotFoundError(f"x_{i} is outside the window")
        return self.values[i]

    def __call__(self, i: int) -> frozenset[int]:
        return self.value(i)

    @property
    def is_singleton_valued(self) -> bool:
        return all(len(v) == 1 for v in self.values.values())

    def to_selfmap(self) -> SelfMap:
        if not self.is_singleton_valued:
            raise InvalidMultiMapError("map is not singleton-valued")
        return SelfMap(self.window, {i: next(iter(v)) for i, v in self.values.items()})

    def fixed_point_set(self) -> frozenset[int]:
        return frozenset(i for i in self.window.indices if i in self.values[i])

    def to_json(self) -> dict:
        out = {
            "kind": "multimap",
            "window": [self.window.lo, self.window.hi],
            "values": {str(i): sorted(self.values[i]) for i in self.window.indices},
        }
        if self.clipped:
            out["clipped"] = sorted(self.clipped)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (
            self.window == other.window
            and self.values == other.values
            and self.clipped == other.clipped
        )

    def __hash__(self) -> int:
        return hash((self.window, tuple(sorted(self.values.items())), self.clipped))

    def __repr__(self) -> str:
        return f"MultiMap({self.window!r})"


def as_multimap(f: SelfMap) -> MultiMap:
    return MultiMap.from_selfmap(f)


def fixed_points(F: MultiMap) -> frozenset[int]:
    """Points with x in F(x)."""
    return F.fixed_point_set()


# -- the graph poset and projections ------------------------------------


@dataclass(frozen=True)
class GraphPoset:
    """The relation of F as a poset under the product order, with both
    projections."""

    poset: Poset
    p: dict     # (x, y) -> x, projection to the domain
    q: dict     # (x, y) -> y, projection to the codomain


def graph_poset(F: MultiMap) -> GraphPoset:
    pairs = [(x, y) for x in F.window.indices for y in sorted(F.values[x])]
    pair_set = set(pairs)
    down = {
        (x, y): frozenset(
            (a, b)
            for a in (x - 1, x, x + 1)
            for b in (y - 1, y, y + 1)
            if (a, b) in pair_set and line_leq(a, x) and line_leq(b, y)
        )
        for (x, y) in pairs
    }
    poset = Poset(pairs, down)
    return GraphPoset(
        poset=poset,
        p={pair: pair[0] for pair in pairs},
        q={pair: pair[1] for pair in pairs},
    )


# -- the Vietoris condition ---------------------------------------------


def _sorted_chains(p: Poset) -> list[tuple]:
    order = {x: i for i, x in enumerate(p.linear_extension())}
    return sorted(p.chains(), key=lambda c: (len(c), tuple(order[x] for x in c)))


def is_vietoris_like_map(
    f: Mapping | Callable, domain: Poset, codomain: Poset
) -> tuple[bool, tuple | None]:
    """Whether every chain of the codomain pulls back to an acyclic subspace.

    Chains are visited shortest first, then in position order, so the witness
    on failure is stable.  An empty preimage fails (the empty space is not
    acyclic), so non-surjective maps are rejected at some singleton chain.
    """
    mapping = f if isinstance(f, Mapping) else {x: f(x) for x in domain.elements}
    ok, witness = domain.is_order_preserving(mapping, codomain)
    if not ok:
        raise InvalidMapError(f"map is not order-preserving at pair {witness!r}")
    for chain in _sorted_chains(codomain):
        members = set(chain)
        preimage = [x for x in domain.elements if mapping[x] in members]
        if not preimage:
            return False, chain
        if not is_acyclic(domain.induced(preimage)):
            return False, chain
    return True, None


def _cover_witness(lo: int, ends: Sequence[tuple[int, int]]) -> tuple | None:
    """First cover pair {odd, even} of the window from x_lo whose graph
    fibre is not acyclic, or None; ``ends[k]`` is (min, max) of F(x_{lo+k}),
    which must be a run of consecutive indices.

    Pairs are visited by odd point and then even point, the order of
    ``is_vietoris_like_map``.  With F(o) = [a, b] and F(e) = [c, d], the
    fibre over {o, e} is {o} x [a, b] below {e} x [c, d], with (o, y) below
    (e, z) exactly when y <= z on the line.  Its order complex is two paths
    joined by an edge for each such pair: where the runs meet, these edges
    and the triangles they span form a strip with paths hanging off it;
    where the runs do not meet, only an odd end of [a, b] next to [c, d]
    gives an edge, and a single one.  So the fibre is contractible when
    some y <= z, and two disjoint paths when none.
    """
    for k in range(len(ends) - 1):
        o, e = (k, k + 1) if (lo + k) % 2 else (k + 1, k)
        a, b = ends[o]
        c, d = ends[e]
        if not (
            (a <= d and c <= b)
            or (b % 2 == 1 and b + 1 == c)
            or (a % 2 == 1 and a - 1 == d)
        ):
            return (lo + o, lo + e)
    return None


def is_vietoris_like_multimap(F: MultiMap) -> tuple[bool, tuple | None]:
    """Whether the first projection of the graph is Vietoris-like; the
    witness is the first chain of window indices, in the order
    ``is_vietoris_like_map`` visits them, whose graph preimage is not
    acyclic.

    A window has height at most 1, so its chains are points and cover pairs.
    The fibre over a point x is F(x) with the line order, acyclic exactly
    when F(x) is a run of consecutive indices.  Odd points are visited
    first, then even points, then the cover pairs.
    """
    lo = F.window.lo
    values = [F.values[i] for i in F.window.indices]
    ends = [(min(vs), max(vs)) for vs in values]
    odd = (lo + 1) % 2  # offset of the first odd index
    for start in (odd, 1 - odd):
        for k in range(start, len(values), 2):
            a, b = ends[k]
            if b - a >= len(values[k]):
                return False, (lo + k,)
    witness = _cover_witness(lo, ends)
    return witness is None, witness


# -- Lefschetz ----------------------------------------------------------


@dataclass(frozen=True)
class LefschetzResult:
    traces: dict
    lambda_: Fraction
    fixed_point_predicted: bool

    def to_json(self) -> dict:
        return {
            "traces": {str(k): str(v) for k, v in sorted(self.traces.items())},
            "lambda": str(self.lambda_),
            "fixed_point_predicted": self.fixed_point_predicted,
        }


def lefschetz_number(F: MultiMap) -> LefschetzResult:
    """Lefschetz number of a Vietoris-like multivalued map.

    The induced endomorphism is the second projection composed with the
    inverse of the first on rational homology.  A window is contractible and
    a Vietoris-like first projection is a homotopy equivalence (Quillen's
    fibre lemma), so graph and window both have the homology of a point: the
    only trace is 1, in degree 0, and the Lefschetz number is 1.  The
    acyclicity of both sides and the fixed point that a non-zero number
    forces are checked, not assumed.
    """
    ok, witness = is_vietoris_like_multimap(F)
    if not ok:
        raise NotVietorisError(f"map is not Vietoris-like at chain {witness!r}")
    if not (is_acyclic(graph_poset(F).poset) and is_acyclic(F.window.poset)):
        raise InternalConsistencyError(
            "graph or window of a Vietoris-like map is not acyclic; this is a bug"
        )
    if not F.fixed_point_set():
        raise InternalConsistencyError(
            "non-zero Lefschetz number without a fixed point; this is a bug"
        )
    return LefschetzResult(
        traces={0: Fraction(1)}, lambda_=Fraction(1), fixed_point_predicted=True
    )


# -- transition graph, orbits, spectra ----------------------------------


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph x -> y for y in F(x)."""

    graph: nx.DiGraph
    window: LineWindow
    self_loop_multi: frozenset[int]

    def to_dot(self, clusters: "InvariantSetReport | None" = None) -> str:
        lines = ["digraph dynamics {", "  node [shape=circle];"]
        clustered: set[int] = set()
        if clusters is not None:
            for n, entry in enumerate(clusters.sets):
                label = entry.kind or "unclassified"
                lines.append(f"  subgraph cluster_{n} {{")
                lines.append(f'    label="{label}";')
                for i in entry.interval.points:
                    lines.append(f'    n{i - self.window.lo} [label="x{i}"];')
                    clustered.add(i)
                lines.append("  }")
        for i in self.window.indices:
            if i not in clustered:
                lines.append(f'  n{i - self.window.lo} [label="x{i}"];')
        for a in self.window.indices:
            for b in sorted(self.graph.successors(a)):
                attrs = ""
                if a == b and a in self.self_loop_multi:
                    attrs = " [style=bold]"
                lines.append(f"  n{a - self.window.lo} -> n{b - self.window.lo}{attrs};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def transition_graph(F: MultiMap) -> TransitionGraph:
    g = nx.DiGraph()
    g.add_nodes_from(F.window.indices)
    for x in F.window.indices:
        for y in sorted(F.values[x]):
            g.add_edge(x, y)
    loops = frozenset(
        x for x in F.window.indices if x in F.values[x] and len(F.values[x]) >= 2
    )
    return TransitionGraph(graph=g, window=F.window, self_loop_multi=loops)


def periodic_orbits(F: MultiMap, max_period: int) -> dict[int, list[tuple[int, ...]]]:
    """Simple cycles of the transition graph grouped by length.

    A point is periodic with period n when a cycle of n pairwise distinct
    points passes through it, so one point can carry several periods; this is
    not the minimal-period notion of the single-valued theory.
    """
    if max_period < 1:
        return {}
    tg = transition_graph(F)
    grouped: dict[int, set[tuple[int, ...]]] = {}
    for cycle in nx.simple_cycles(tg.graph, length_bound=min(max_period, F.window.size)):
        k = cycle.index(min(cycle))
        normal = tuple(cycle[k:] + cycle[:k])
        grouped.setdefault(len(normal), set()).add(normal)
    return {n: sorted(cycles) for n, cycles in sorted(grouped.items())}


def period_spectrum(F: MultiMap, max_period: int) -> frozenset[int]:
    return frozenset(periodic_orbits(F, max_period))


def orbit_stream(
    F: MultiMap,
    start: int,
    policy: str = "least-index",
    max_steps: int = 32,
    stall_bound: int = 1,
    seed: int | None = None,
) -> list[int]:
    """An admissible orbit prefix.

    The non-stall rule caps consecutive occurrences of a point that has both
    a self-loop and somewhere else to go; points with a single value may rest
    forever.  Policies: smallest next index, or seeded random choice.
    """
    F.window.check_member(start)
    if policy not in ("least-index", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = _random.Random(seed)
    orbit = [start]
    consecutive = 1
    cur = start
    for _ in range(max_steps):
        options = sorted(F.values[cur])
        if len(options) >= 2 and cur in F.values[cur] and consecutive >= stall_bound:
            options = [v for v in options if v != cur]
        nxt = options[0] if policy == "least-index" else rng.choice(options)
        consecutive = consecutive + 1 if nxt == cur else 1
        orbit.append(nxt)
        cur = nxt
    return orbit


# -- invariant sets ------------------------------------------------------


@dataclass(frozen=True)
class InvariantSet:
    interval: Interval
    kind: str | None            # Attractor, Repeller, Saddle, or None
    left_side: str              # attracting / repelling / stationary / mixed / boundary
    right_side: str
    diagnostics: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "interval": [self.interval.lo, self.interval.hi],
            "kind": self.kind,
            "left_side": self.left_side,
            "right_side": self.right_side,
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True)
class InvariantSetReport:
    sets: tuple[InvariantSet, ...]
    degenerate: bool = False

    def classified(self) -> tuple[InvariantSet, ...]:
        return tuple(s for s in self.sets if s.kind is not None)

    def to_json(self) -> dict:
        return {
            "sets": [s.to_json() for s in self.sets],
            "degenerate": self.degenerate,
        }


def _side_verdict(F: MultiMap, g: nx.DiGraph, members: frozenset[int], neighbor: int) -> str:
    if F.values[neighbor] == frozenset({neighbor}):
        return "stationary"
    reachable = {neighbor} | nx.descendants(g, neighbor)
    if not reachable & members:
        return "repelling"
    # inevitability: no fair way to avoid the set forever
    outside = g.subgraph(n for n in g.nodes if n not in members)
    avoid_reach = {neighbor} | nx.descendants(outside, neighbor)
    for node in avoid_reach:
        if F.values[node] == frozenset({node}):
            return "mixed"   # can come to rest outside the set
    for scc in nx.strongly_connected_components(outside.subgraph(avoid_reach)):
        if len(scc) >= 2:
            return "mixed"   # can circulate outside the set forever
    return "attracting"


def classify_invariant_sets(F: MultiMap) -> InvariantSetReport:
    """Locate candidate invariant intervals and decide their stability.

    Candidates are maximal index runs of resting points (value set exactly
    the point itself, not a boundary-truncation artifact) merged with nodes
    of non-trivial strongly connected components.  Each side is attracting
    when every fair path from the adjacent point must enter the set,
    repelling when no path can enter and the neighbour is not itself at
    rest; a window edge counts as agreeing with the other side.  A map at
    rest everywhere is reported point by point, unclassified.
    """
    w = F.window
    tg = transition_graph(F)
    g = tg.graph
    stable = {
        x
        for x in w.indices
        if F.values[x] == frozenset({x}) and x not in F.clipped
    }
    cyclic: set[int] = set()
    for scc in nx.strongly_connected_components(g):
        if len(scc) >= 2:
            cyclic |= scc
    core_nodes = stable | cyclic
    degenerate = stable == set(w.indices) and not cyclic and w.size > 1
    runs: list[tuple[int, int]]
    if degenerate:
        runs = [(i, i) for i in w.indices]
    else:
        runs = []
        run_start = None
        for i in w.indices:
            if i in core_nodes:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                runs.append((run_start, i - 1))
                run_start = None
        if run_start is not None:
            runs.append((run_start, w.hi))
    sets = []
    for a, b in runs:
        members = frozenset(range(a, b + 1))
        for x in members:
            if not F.values[x] & members:
                raise InternalConsistencyError(
                    f"candidate [{a}, {b}] is not forward-invariant at x_{x}"
                )
        diagnostics = []
        if a - 1 < w.lo:
            left = "boundary"
        else:
            left = _side_verdict(F, g, members, a - 1)
        if b + 1 > w.hi:
            right = "boundary"
        else:
            right = _side_verdict(F, g, members, b + 1)
        effective = {left, right} - {"boundary"}
        if effective <= {"attracting"} and effective:
            kind = "Attractor"
        elif effective <= {"repelling"} and effective:
            kind = "Repeller"
        elif effective == {"attracting", "repelling"}:
            kind = "Saddle"
        else:
            kind = None
            if not effective:
                diagnostics.append("set touches both window edges")
            for side_name, verdict in (("left", left), ("right", right)):
                if verdict == "stationary":
                    diagnostics.append(
                        f"mixed-side ({side_name}): adjacent point is at rest"
                    )
                elif verdict == "mixed":
                    diagnostics.append(
                        f"mixed-side ({side_name}): the set can be entered but also avoided forever"
                    )
        sets.append(
            InvariantSet(
                interval=Interval(a, b),
                kind=kind,
                left_side=left,
                right_side=right,
                diagnostics=tuple(diagnostics),
            )
        )
    return InvariantSetReport(sets=tuple(sets), degenerate=degenerate)
