"""Command-line driver.

Every command prints one JSON report to stdout and exits 0 when the verdict
or analysis is clean, 1 when a verdict is false or violations were found, and
2 on usage or input errors.  With --no-timing the report bytes depend only on
the inputs and flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .catalog import minimal_circle_poset
from .complexes import face_poset, interval_triangulation
from .errors import InternalConsistencyError, LineDynError
from .homology import homology
from .line import build_line_window
from .multimaps import (
    MultiMap,
    as_multimap,
    classify_invariant_sets,
    fixed_points,
    is_vietoris_like_multimap,
    orbit_stream,
    periodic_orbits,
    transition_graph,
)
from .singlemaps import SelfMap
from .specio import load_map
from .verify import run_theorem_suite

ORBIT_SAMPLES_PER_PERIOD = 10


def _digest(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _emit(report: dict, json_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if json_path:
        Path(json_path).write_text(text + "\n", encoding="utf-8")


def _report(args, digest_source, results: dict, started: float) -> dict:
    report = {
        "command": args.echo,
        "input_digest": _digest(digest_source),
        "version": __version__,
        "results": results,
    }
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    return report


def _write_dot(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_for_orbits(path: str) -> MultiMap:
    m = load_map(path)
    if isinstance(m, SelfMap):
        if not m.maps_into_window:
            raise LineDynError(
                "orbit analysis needs a map whose values stay inside the window"
            )
        return as_multimap(m)
    return m


def cmd_window(args, started: float) -> int:
    if args.lo > args.hi:
        raise LineDynError(f"invalid range: {args.lo} > {args.hi}")
    w = build_line_window(args.lo, args.hi)
    dot = w.to_dot()
    if args.dot:
        _write_dot(args.dot, dot)
    results = {
        "window": [w.lo, w.hi],
        "size": w.size,
        "minimal_indices": [i for i in w.indices if i % 2 == 1],
        "maximal_indices": [i for i in w.indices if i % 2 == 0],
        "hasse_edge_count": len(w.poset.covers),
        "reduced_homology": homology(w.poset).to_json(),
    }
    _emit(_report(args, f"window {w.lo} {w.hi}", results, started), args.json)
    return 0


def cmd_check_map(args, started: float) -> int:
    payload = Path(args.map_file).read_bytes()
    m = load_map(args.map_file)
    if args.multi and isinstance(m, SelfMap):
        if not m.maps_into_window:
            raise LineDynError(
                "--multi needs a map whose values stay inside the window"
            )
        m = as_multimap(m)
    if isinstance(m, SelfMap):
        ok, witness = m.check_continuity()
        results = {
            "map_kind": "selfmap",
            "check": "continuity",
            "verdict": ok,
            "witness_pair": None if witness is None else list(witness),
        }
    else:
        ok, witness = is_vietoris_like_multimap(m)
        results = {
            "map_kind": "multimap",
            "check": "vietoris",
            "verdict": ok,
            "witness_chain": None if witness is None else list(witness),
        }
    _emit(_report(args, payload, results, started), args.json)
    return 0 if ok else 1


def cmd_orbits(args, started: float) -> int:
    payload = Path(args.map_file).read_bytes()
    F = _load_for_orbits(args.map_file)
    if args.max_period is not None and args.max_period < 1:
        raise LineDynError(f"--max-period must be at least 1, got {args.max_period}")
    max_period = args.max_period if args.max_period is not None else min(F.window.size, 6)
    orbits = periodic_orbits(F, max_period)
    report = classify_invariant_sets(F)
    results = {
        "window": [F.window.lo, F.window.hi],
        "max_period": max_period,
        "spectrum": sorted(orbits),
        "orbit_counts_by_period": {str(n): len(v) for n, v in orbits.items()},
        "orbit_samples_by_period": {
            str(n): [list(o) for o in v[:ORBIT_SAMPLES_PER_PERIOD]]
            for n, v in orbits.items()
        },
        "fixed_points": sorted(fixed_points(F)),
        "invariant_sets": report.to_json(),
    }
    if args.start is not None:
        F.window.check_member(args.start)
        points = orbit_stream(F, args.start, max_steps=4 * F.window.size)
        results["orbit_sample"] = {
            "start": args.start,
            "policy": "least-index",
            "points": points,
        }
    if args.dot:
        _write_dot(args.dot, transition_graph(F).to_dot(clusters=report))
    _emit(_report(args, payload, results, started), args.json)
    return 0


def cmd_verify(args, started: float) -> int:
    if args.theorem != "lefschetz" and args.window is None:
        raise LineDynError("--window N is required for this theorem suite")
    result = run_theorem_suite(args.theorem, args.window, force=args.force)
    results = result.to_json()
    _emit(
        _report(
            args,
            f"verify {args.theorem} window={args.window}",
            results,
            started,
        ),
        args.json,
    )
    return 0 if result.passed else 1


def _homology_target(args):
    target = args.target
    if target == "minimal-circle":
        return target, minimal_circle_poset()
    if target.startswith("interval:"):
        n = int(target.split(":", 1)[1])
        if n < 1:
            raise LineDynError("interval triangulation needs at least one edge")
        return target, face_poset(interval_triangulation(n))
    if target.startswith("window:"):
        parts = target.split(":")
        if len(parts) != 3:
            raise LineDynError('window target must look like "window:LO:HI"')
        lo, hi = int(parts[1]), int(parts[2])
        return target, build_line_window(lo, hi).poset
    if target == "window":
        if args.window is None:
            raise LineDynError('target "window" needs --window N for [-N, N]')
        n = args.window
        return f"window:{-n}:{n}", build_line_window(-n, n).poset
    m = load_map(target)
    return Path(target).read_bytes(), m.window.poset


def cmd_homology(args, started: float) -> int:
    digest_source, poset = _homology_target(args)
    echo_target = args.target if isinstance(digest_source, bytes) else digest_source
    groups = homology(poset)
    results = {
        "target": echo_target,
        "reduced_homology": groups.to_json(),
        "acyclic": groups.is_zero,
    }
    _emit(_report(args, digest_source, results, started), args.json)
    return 0


def _int_maybe_negative(value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linedyn",
        description="Combinatorial dynamics on the face poset of the line.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="also write the report to a file")
        p.add_argument("--no-timing", action="store_true", help="omit timing for byte-stable reports")

    p = sub.add_parser("window", help="summarize a line window and export its diagram")
    p.add_argument("lo", type=_int_maybe_negative)
    p.add_argument("hi", type=_int_maybe_negative)
    p.add_argument("--dot", metavar="PATH", help="write the order diagram in DOT form")
    common(p)
    p.set_defaults(run=cmd_window)

    p = sub.add_parser("check-map", help="continuity or Vietoris verdict for a map file")
    p.add_argument("map_file", help="JSON map description")
    p.add_argument("--multi", action="store_true",
                   help="treat a single-valued file as a multivalued map")
    common(p)
    p.set_defaults(run=cmd_check_map)

    p = sub.add_parser("orbits", help="periodic orbits, fixed points, invariant sets")
    p.add_argument("map_file", help="JSON map description")
    p.add_argument("--start", type=_int_maybe_negative, metavar="I",
                   help="also stream one orbit from x_I")
    p.add_argument("--max-period", type=int, metavar="N", help="cycle length bound")
    p.add_argument("--dot", metavar="PATH", help="write the transition graph in DOT form")
    common(p)
    p.set_defaults(run=cmd_orbits)

    p = sub.add_parser("verify", help="run an exhaustive theorem suite")
    p.add_argument("--theorem", required=True,
                   choices=["no-period-3", "period-2-structure", "interval-lemma", "lefschetz"])
    p.add_argument("--window", type=int, metavar="N", help="use the window [-N, N]")
    p.add_argument("--force", action="store_true", help="override the enumeration size guard")
    common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a poset")
    p.add_argument("target",
                   help='"minimal-circle", "interval:N", "window:LO:HI", "window" with --window, or a map file')
    p.add_argument("--window", type=int, metavar="N", help="use the window [-N, N]")
    common(p)
    p.set_defaults(run=cmd_homology)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    args.echo = argv
    started = time.monotonic()
    try:
        return args.run(args, started)
    except InternalConsistencyError:
        raise
    except (LineDynError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
