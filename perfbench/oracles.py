"""Correctness oracles for the analysis workload.

They share no code with the library: the Vietoris oracle rebuilds every
fibre of the graph over each chain of the window by brute force and decides
acyclicity from ranks of boundary matrices over two prime fields.  Each
check returns a list of problems, empty when the library's answer holds.
"""

from __future__ import annotations

from inputs import line_leq

PRIMES = (2, 1_000_003)


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank of a sparse integer matrix (rows as {column: entry}) mod p."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                rank += 1
                break
            factor = row[col]
            for c, v in pivots[col].items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rank


def is_acyclic_brute(elements: list, leq) -> bool:
    """Whether the order complex of a finite poset has vanishing reduced
    homology over GF(2) and GF(1000003).  The empty poset is not acyclic."""
    if not elements:
        return False
    above = {
        a: [b for b in elements if b != a and leq(a, b)] for a in elements
    }
    chains: list[tuple] = []
    stack = [(a,) for a in elements]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        stack.extend(chain + (b,) for b in above[chain[-1]])
    by_dim: dict[int, dict[tuple, int]] = {}
    for chain in chains:
        level = by_dim.setdefault(len(chain) - 1, {})
        level[frozenset(chain)] = len(level)
    ordered = {
        d: {key: i for i, key in enumerate(level)} for d, level in by_dim.items()
    }
    for p in PRIMES:
        ranks = {}
        for d in range(1, len(by_dim)):
            rows = []
            for simplex in ordered[d]:
                members = sorted(simplex, key=lambda s: len(above[s]), reverse=True)
                rows.append(
                    {
                        ordered[d - 1][frozenset(members[:k] + members[k + 1:])]: (-1) ** k
                        for k in range(len(members))
                    }
                )
            ranks[d] = _rank_mod(rows, p)
        for d in range(len(by_dim)):
            cycles = len(ordered[d]) - ranks.get(d, 0)
            if cycles - ranks.get(d + 1, 0) - (1 if d == 0 else 0):
                return False
    return True


def _fibre_acyclic(values: dict[int, frozenset], chain: tuple[int, ...]) -> bool:
    elements = [(x, y) for x in chain for y in values[x]]
    return is_acyclic_brute(
        elements, lambda s, t: line_leq(s[0], t[0]) and line_leq(s[1], t[1])
    )


def vietoris_brute(values: dict[int, frozenset], lo: int, hi: int) -> bool:
    """The Vietoris condition checked fibre by fibre: the graph preimage of
    every singleton and every cover pair of the window must be acyclic."""
    chains = [(x,) for x in range(lo, hi + 1)]
    chains += [(x, x + 1) for x in range(lo, hi)]
    return all(_fibre_acyclic(values, c) for c in chains)


def simple_cycles_brute(values: dict[int, frozenset], max_period: int) -> dict[int, set]:
    """Every simple cycle of the graph x -> F(x) with at most ``max_period``
    points, written from its smallest point and grouped by length."""
    found: dict[int, set] = {}

    def extend(path: list[int]) -> None:
        for y in values[path[-1]]:
            if y == path[0]:
                found.setdefault(len(path), set()).add(tuple(path))
            elif y > path[0] and y not in path and len(path) < max_period:
                path.append(y)
                extend(path)
                path.pop()

    for x in values:
        extend([x])
    return found


def invariant_runs_brute(values: dict[int, frozenset], clipped: set[int]) -> list[tuple[int, int]]:
    """The candidate invariant intervals by their documented rule: maximal
    runs of points that rest (value set exactly the point, not clipped) or
    lie on a cycle of two or more points; a map at rest everywhere gives one
    interval per point."""
    reach = {}
    for x in values:
        seen, todo = set(), list(values[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(values[y])
        reach[x] = seen
    resting = {x for x in values if values[x] == {x} and x not in clipped}
    cyclic = {x for x in values if any(y != x and x in reach[y] for y in reach[x])}
    points = sorted(values)
    if resting == set(points) and len(points) > 1:
        return [(x, x) for x in points]
    runs: list[tuple[int, int]] = []
    for x in points:
        if x not in resting | cyclic:
            continue
        if runs and runs[-1][1] == x - 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs


def check_multimap(
    values: dict[int, frozenset], clipped: set[int], lo: int, hi: int,
    verdict, lefschetz, orbits, max_period, report,
) -> list[str]:
    problems = []
    ok, witness = verdict
    if ok != vietoris_brute(values, lo, hi):
        problems.append(f"Vietoris verdict {ok} disagrees with the fibre check")
    if not ok and (witness is None or _fibre_acyclic(values, tuple(witness))):
        problems.append(f"witness chain {witness!r} has an acyclic fibre")
    has_fixed = any(x in values[x] for x in values)
    if lefschetz is not None:
        # the window is contractible, so a Vietoris-like map has Lefschetz
        # number exactly 1
        if lefschetz.lambda_ != 1:
            problems.append(f"Lefschetz number {lefschetz.lambda_} on a contractible window")
        if lefschetz.lambda_ != 0 and not has_fixed:
            problems.append("non-zero Lefschetz number without a fixed point")
    expected = simple_cycles_brute(values, max_period)
    got = {n: set(cycles) for n, cycles in orbits.items()}
    if got != expected:
        counts = {n: len(c) for n, c in got.items()}
        problems.append(
            f"orbit counts {counts} differ from the brute-force cycles "
            f"{ {n: len(c) for n, c in expected.items()} }"
        )
    intervals = [(entry.interval.lo, entry.interval.hi) for entry in report.sets]
    if intervals != invariant_runs_brute(values, clipped):
        problems.append(f"invariant intervals {intervals} differ from the brute-force runs")
    for a, b in intervals:
        members = set(range(a, b + 1))
        if any(not values[x] & members for x in members):
            problems.append(f"invariant interval [{a}, {b}] is not forward-invariant")
    return problems


def _minimal_periods(values: dict[int, int]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for x in values:
        cur = values[x]
        for n in range(1, len(values) + 1):
            if cur == x:
                out.setdefault(n, set()).add(x)
                break
            cur = values[cur]
    return out


def check_selfmap(values: dict[int, int], continuity, dynamics, periodic, lefschetz) -> list[str]:
    problems = []
    lo, hi = min(values), max(values)
    continuous = all(
        line_leq(values[i], values[i + 1]) if i % 2 else line_leq(values[i + 1], values[i])
        for i in range(lo, hi)
    )
    if continuity[0] != continuous:
        problems.append(f"continuity verdict {continuity[0]} disagrees with the cover check")
    expected = _minimal_periods(values)
    got = {n: set(pts) for n, pts in periodic.items()}
    if got != expected:
        problems.append(f"periodic points {got} differ from direct iteration {expected}")
    two_tags = {"PeriodTwoHomeomorphism", "PeriodTwoAttractor"}
    if (dynamics.tag.value in two_tags) != (2 in expected):
        problems.append(f"tag {dynamics.tag.value} disagrees with the period-two points")
    if dynamics.tag.value == "Identity" and any(values[x] != x for x in values):
        problems.append("tag Identity on a map that moves a point")
    # a continuous self-map of a contractible window has Lefschetz number 1
    if lefschetz != 1:
        problems.append(f"Lefschetz number {lefschetz} of a window self-map")
    if lefschetz != 0 and not any(values[x] == x for x in values):
        problems.append("non-zero Lefschetz number without a fixed point")
    return problems


def check_window_homology(groups) -> list[str]:
    if any(groups.betti.values()) or any(groups.torsion.values()):
        return [f"window has non-zero reduced homology {groups.to_json()}"]
    return []
