"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data (window
bounds and value tables), so the same seed always yields the same maps and
nothing here depends on the library under test.  Window bounds are
inclusive indices of the line; odd indices are minimal points, even indices
maximal ones.
"""

from __future__ import annotations

import json
import random


def line_leq(i: int, j: int) -> bool:
    """x_i <= x_j on the line: equal, or i odd and adjacent to j."""
    return i == j or (abs(i - j) == 1 and i % 2 == 1)


# -- single-valued maps --------------------------------------------------


def random_selfmap(rng: random.Random, lo: int, size: int) -> dict[int, int]:
    """A uniformly stepped random continuous self-map of [lo, lo+size-1].

    Values follow a walk that respects every cover pair: the image of an
    odd (minimal) point lies below the image of each even neighbour.
    """
    hi = lo + size - 1
    values = {lo: rng.randint(lo, hi)}
    for i in range(lo + 1, hi + 1):
        prev = values[i - 1]
        allowed = [
            u
            for u in (prev - 1, prev, prev + 1)
            if lo <= u <= hi and (line_leq(u, prev) if i % 2 else line_leq(prev, u))
        ]
        values[i] = rng.choice(allowed)
    return values


# -- interval-valued maps ------------------------------------------------


ZONE_MAX = 8


def zone_map(rng: random.Random, lo: int, size: int) -> dict[int, list[int]]:
    """A flow-like map cut into seeded zones, in the manner of the library's
    three-zone example: each zone rests (x -> {x}), drifts right
    (x -> {x, x+1}) or drifts left (x -> {x-1, x}), clipped at the edges.
    Zones are short, so maps of one size have many zones and similar cost."""
    hi = lo + size - 1
    values: dict[int, list[int]] = {}
    i = lo
    while i <= hi:
        length = rng.randint(2, ZONE_MAX)
        kind = rng.choice(("rest", "right", "left"))
        for x in range(i, min(hi, i + length - 1) + 1):
            if kind == "rest":
                vs = [x]
            elif kind == "right":
                vs = [x, x + 1]
            else:
                vs = [x - 1, x]
            values[x] = [v for v in vs if lo <= v <= hi]
        i += length
    return values


def split_zone_map(rng: random.Random, lo: int, size: int) -> dict[int, list[int]]:
    """A zone map with one interior point sent to the two-point antichain
    around it, as in the library's split-point example; its fibre over that
    point is disconnected, so the map is not Vietoris-like."""
    values = zone_map(rng, lo, size)
    x = rng.randint(lo + 1, lo + size - 2)
    values[x] = [x - 1, x + 1]
    return values


def band_map(rng: random.Random, lo: int, size: int, width: int) -> dict[int, list[int]]:
    """Every point goes to one seeded band [a, a+width-1]: a dense map whose
    transition graph is complete on the band, so cycles of every length up
    to the band width occur."""
    a = rng.randint(lo, lo + size - width)
    band = list(range(a, a + width))
    return {x: band for x in range(lo, lo + size)}


def expanding_map(lo: int, size: int) -> tuple[dict[int, list[int]], list[int]]:
    """The library's expanding-reach example moved to [lo, lo+size-1]; lo
    must be even so the reach pattern keeps its shape.  Returns the value
    table and the points whose reach was clipped at the right edge."""
    if lo % 2:
        raise ValueError("expanding maps need an even left end")
    hi = lo + size - 1
    values, clipped = {}, []
    for x in range(lo, hi + 1):
        j = x - lo
        top = lo + (2 if j == 0 else j + 1 if j % 2 else j + 2)
        if top > hi:
            clipped.append(x)
        values[x] = list(range(lo, min(top, hi) + 1))
    return values, clipped


# -- the analysis corpus -------------------------------------------------

# One round of the analysis batch: (kind, window size).  Sizes are spread
# roughly geometrically from 7 to 161 points so the median map measures
# per-call overhead and the largest maps measure asymptotic cost.
# Single-valued, band and expanding maps stay at 21 points or fewer, where
# their Lefschetz and orbit computations stay bounded.  The round has an
# odd number of maps so the median latency falls inside one slot's samples.
# Split maps are the only ones that fail the Vietoris check, so that verdict
# is tested both ways.
ANALYSIS_ROUND = (
    ("zone", 7), ("zone", 11), ("zone", 17), ("zone", 27), ("zone", 41),
    ("zone", 65), ("zone", 101), ("zone", 161), ("zone", 161),
    ("split", 13), ("split", 41),
    ("single", 7), ("single", 9), ("single", 11), ("single", 13), ("single", 17),
    ("single", 21),
    ("band", 7), ("band", 11), ("band", 17),
    ("expanding", 7), ("expanding", 11), ("expanding", 15),
)
BAND_WIDTH = {7: 4, 11: 5, 17: 6}
OFFSET_RANGE = 400


def size_bucket(size: int) -> str:
    if size <= 21:
        return "small"
    if size <= 81:
        return "medium"
    return "large"


def analysis_round(seed: int, round_no: int) -> list[dict]:
    """Map descriptions for one round, each at its own seeded offset so
    maps share little work and the library's basis cache mostly misses."""
    rng = random.Random(f"analysis:{seed}:{round_no}")
    out = []
    for kind, size in ANALYSIS_ROUND:
        lo = rng.randint(-OFFSET_RANGE, OFFSET_RANGE)
        clipped: list[int] = []
        if kind == "single":
            values = random_selfmap(rng, lo, size)
        elif kind == "zone":
            values = zone_map(rng, lo, size)
        elif kind == "split":
            values = split_zone_map(rng, lo, size)
        elif kind == "band":
            values = band_map(rng, lo, size, BAND_WIDTH[size])
        else:
            lo -= lo % 2
            values, clipped = expanding_map(lo, size)
        out.append(
            {"kind": kind, "lo": lo, "size": size, "values": values, "clipped": clipped}
        )
    return out


# -- the CLI pool --------------------------------------------------------

# Map files for the cli workload come from a fixed pool so their reports
# can be compared with goldens; the seed picks which pool entries run.
CLI_POOL_SIZE = 24
CLI_WINDOWS = tuple((lo, lo + size - 1) for size in (5, 9, 13) for lo in range(-6, 7))
SPEC_FILES = (
    "specs/constant_band_map.json",
    "specs/expanding_reach_map.json",
    "specs/identity_map.json",
    "specs/mirror_map.json",
    "specs/split_point_map.json",
    "specs/three_zone_flow.json",
)
CLI_POOL_DIR = ".perfbench_out/cli"


def cli_pool_spec(index: int) -> dict:
    """Map file contents for pool entry ``index``: small zone, band,
    expanding and random single-valued maps of 5 to 13 points."""
    rng = random.Random(f"cli-pool:{index}")
    kind = ("zone", "single", "band", "expanding")[index % 4]
    size = rng.choice((5, 7, 9, 11, 13)) if kind != "expanding" else rng.choice((5, 7, 9))
    lo = rng.randint(-8, 8)
    if kind == "single":
        values = random_selfmap(rng, lo, size)
        return {
            "kind": "selfmap",
            "window": [lo, lo + size - 1],
            "values": {str(i): v for i, v in values.items()},
        }
    clipped: list[int] = []
    if kind == "zone":
        values = zone_map(rng, lo, size)
    elif kind == "band":
        values = band_map(rng, lo, size, min(size, 4))
    else:
        lo -= lo % 2
        values, clipped = expanding_map(lo, size)
    spec = {
        "kind": "multimap",
        "window": [lo, lo + size - 1],
        "values": {str(i): vs for i, vs in values.items()},
    }
    if clipped:
        spec["clipped"] = clipped
    return spec


def cli_pool_path(index: int) -> str:
    return f"{CLI_POOL_DIR}/pool_{index:02d}.json"


def write_cli_pool(root) -> list[str]:
    """Write every pool map file under ``root``; returns their relative
    paths.  The bytes depend only on the pool index."""
    (root / CLI_POOL_DIR).mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(CLI_POOL_SIZE):
        path = cli_pool_path(index)
        text = json.dumps(cli_pool_spec(index), indent=2, sort_keys=True) + "\n"
        (root / path).write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def cli_commands(paths: list[str]) -> list[list[str]]:
    """Every command line the cli workload can run, in a fixed order.
    Goldens are recorded for exactly this list."""
    files = list(SPEC_FILES) + paths
    cmds = [["window", str(lo), str(hi)] for lo, hi in CLI_WINDOWS]
    for sub in ("check-map", "orbits", "homology"):
        cmds += [[sub, f] for f in files]
    cmds.append(["verify", "--theorem", "lefschetz"])
    cmds.append(["verify", "--theorem", "no-period-3", "--window", "3"])
    return [c + ["--no-timing"] for c in cmds]


def cli_round(rng: random.Random, paths: list[str]) -> list[list[str]]:
    """One round of the cli workload: each subcommand once, with seeded
    inputs drawn from the spec files and the pool, and the Lefschetz sweep,
    by far the slowest call, twice.  At two calls in seven it is more than
    the top sixth of a run's calls, so the latency tail falls inside its
    samples rather than on the edge between it and the next slowest
    subcommand."""
    files = list(SPEC_FILES) + paths
    lo, hi = rng.choice(CLI_WINDOWS)
    cmds = [
        ["window", str(lo), str(hi)],
        ["verify", "--theorem", "lefschetz"],
        ["check-map", rng.choice(files)],
        ["orbits", rng.choice(files)],
        ["homology", rng.choice(files)],
        ["verify", "--theorem", "lefschetz"],
        ["verify", "--theorem", "no-period-3", "--window", "3"],
    ]
    return [c + ["--no-timing"] for c in cmds]


# -- the sweep -----------------------------------------------------------

SWEEP_SHIFT_RANGE = 200


def sweep_shift(seed: int, pass_no: int) -> int:
    """Window shift for one sweep pass; the frozen counts do not depend on
    it, but the windows (and so the posets built) do."""
    return random.Random(f"sweep:{seed}:{pass_no}").randint(
        -SWEEP_SHIFT_RANGE, SWEEP_SHIFT_RANGE
    )
