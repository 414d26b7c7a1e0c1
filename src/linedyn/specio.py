"""Loading and saving map description files.

Single-valued files give explicit values plus optional tail rules; multivalued
files give explicit value lists and/or interval rules over index ranges, with
index expressions such as "i", "i+2", "-i", or a constant.  Values written by
a rule are clipped at the window edge and the clipping is recorded, matching
what the rule builders in the library do.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Mapping

from .errors import LineDynError, SpecFormatError
from .line import build_line_window, tail_from_json
from .multimaps import MultiMap
from .singlemaps import SelfMap

_EXPR = re.compile(r"^(?P<neg>-?)i(?:(?P<op>[+-])(?P<const>\d+))?$|^(?P<lit>-?\d+)$")


def _is_index(v) -> bool:
    """A JSON integer; JSON booleans decode to Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def index_expression(expr) -> Callable[[int], int]:
    """Compile an index expression to a function of i.

    Accepted forms: an integer; "i"; "i+c"; "i-c"; "-i"; "-i+c"; "-i-c"; a
    decimal constant string.
    """
    if _is_index(expr):
        return lambda i: expr
    if not isinstance(expr, str):
        raise SpecFormatError(f"index expression must be int or string, got {expr!r}")
    m = _EXPR.match(expr.replace(" ", ""))
    if m is None:
        raise SpecFormatError(f"cannot parse index expression {expr!r}")
    if m.group("lit") is not None:
        lit = int(m.group("lit"))
        return lambda i: lit
    sign = -1 if m.group("neg") else 1
    shift = 0
    if m.group("op"):
        shift = int(m.group("const"))
        if m.group("op") == "-":
            shift = -shift
    return lambda i: sign * i + shift


def _window_from(data: Mapping) -> tuple:
    raw = data.get("window")
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(_is_index(v) for v in raw)
    ):
        raise SpecFormatError('"window" must be a two-integer list [lo, hi]')
    return raw[0], raw[1]


def _parse_selfmap(data: Mapping) -> SelfMap:
    lo, hi = _window_from(data)
    try:
        left = tail_from_json(data.get("left_tail"))
        right = tail_from_json(data.get("right_tail"))
        window = build_line_window(lo, hi, left_tail=left, right_tail=right)
    except LineDynError as exc:
        raise SpecFormatError(str(exc)) from exc
    raw = data.get("values")
    if not isinstance(raw, Mapping):
        raise SpecFormatError('"values" must be an object of index -> index')
    values = {}
    for key, v in raw.items():
        try:
            i = int(key)
        except ValueError as exc:
            raise SpecFormatError(f"bad index key {key!r}") from exc
        if not _is_index(v):
            raise SpecFormatError(f"value of x_{i} must be a single integer")
        values[i] = v
    try:
        return SelfMap(window, values)
    except LineDynError as exc:
        raise SpecFormatError(str(exc)) from exc


def _parse_multimap(data: Mapping) -> MultiMap:
    lo, hi = _window_from(data)
    try:
        window = build_line_window(lo, hi)
    except LineDynError as exc:
        raise SpecFormatError(str(exc)) from exc
    explicit = {}
    raw = data.get("values", {})
    if not isinstance(raw, Mapping):
        raise SpecFormatError('"values" must be an object of index -> index list')
    for key, v in raw.items():
        try:
            i = int(key)
        except ValueError as exc:
            raise SpecFormatError(f"bad index key {key!r}") from exc
        if _is_index(v):
            v = [v]
        if not isinstance(v, list) or not all(_is_index(x) for x in v):
            raise SpecFormatError(f"value set of x_{i} must be a list of integers")
        explicit[i] = v
    rules = data.get("rules", [])
    if not isinstance(rules, list):
        raise SpecFormatError('"rules" must be a list')
    compiled = []
    for rule in rules:
        if not isinstance(rule, Mapping) or rule.get("kind") != "interval":
            raise SpecFormatError('each rule needs "kind": "interval"')
        span = rule.get("range", "default")
        if span == "default":
            member = lambda i: True
        elif (
            isinstance(span, list)
            and len(span) == 2
            and all(_is_index(v) for v in span)
        ):
            r_lo, r_hi = span
            member = lambda i, r_lo=r_lo, r_hi=r_hi: r_lo <= i <= r_hi
        else:
            raise SpecFormatError('rule "range" must be [lo, hi] or "default"')
        lo_of = index_expression(rule.get("from"))
        hi_of = index_expression(rule.get("to"))
        compiled.append((member, lo_of, hi_of))
    values = {}
    raw_clipped = data.get("clipped", [])
    if not isinstance(raw_clipped, list) or not all(_is_index(i) for i in raw_clipped):
        raise SpecFormatError('"clipped" must be a list of integers')
    clipped = set(raw_clipped)
    for i in window.indices:
        if i in explicit:
            values[i] = explicit[i]
            continue
        for member, lo_of, hi_of in compiled:
            if member(i):
                a, b = lo_of(i), hi_of(i)
                first, last = min(a, b), max(a, b)
                kept = range(max(first, window.lo), min(last, window.hi) + 1)
                if not kept:
                    raise SpecFormatError(
                        f"rule value for x_{i} lies entirely outside the window"
                    )
                if first < window.lo or last > window.hi:
                    clipped.add(i)
                values[i] = kept
                break
        else:
            raise SpecFormatError(f"no value or rule covers x_{i}")
    stray = [i for i in explicit if i not in window]
    if stray:
        raise SpecFormatError(f"value set given for x_{stray[0]} outside the window")
    try:
        return MultiMap(window, values, clipped)
    except LineDynError as exc:
        raise SpecFormatError(str(exc)) from exc


def parse_map(data: Mapping) -> SelfMap | MultiMap:
    """Build a map object from already-decoded JSON data."""
    if not isinstance(data, Mapping):
        raise SpecFormatError("map description must be a JSON object")
    kind = data.get("kind")
    if kind not in (None, "selfmap", "multimap"):
        raise SpecFormatError(f"unknown kind {kind!r}")
    if kind is None:
        raw = data.get("values")
        multi = "rules" in data or (
            isinstance(raw, Mapping) and any(isinstance(v, list) for v in raw.values())
        )
        kind = "multimap" if multi else "selfmap"
    if kind == "selfmap":
        return _parse_selfmap(data)
    return _parse_multimap(data)


def load_map(path) -> SelfMap | MultiMap:
    """Read a map description file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from exc
    return parse_map(data)


def save_map(m: SelfMap | MultiMap, path) -> None:
    Path(path).write_text(
        json.dumps(m.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
