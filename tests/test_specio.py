"""JSON map descriptions: index expressions, rule blocks, file round trips."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linedyn import (
    MultiMap,
    SelfMap,
    Shift,
    SpecFormatError,
    build_line_window,
    index_expression,
    load_map,
    parse_map,
    save_map,
)
from linedyn.catalog import (
    constant_interval_map,
    expanding_interval_map,
    mirror_selfmap,
    split_point_map,
    three_zone_flow_map,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def test_index_expression_forms():
    assert index_expression("i")(4) == 4
    assert index_expression("i+2")(4) == 6
    assert index_expression("i-1")(4) == 3
    assert index_expression("-i")(4) == -4
    assert index_expression("-i+1")(4) == -3
    assert index_expression("3")(4) == 3
    assert index_expression(-2)(0) == -2


def test_index_expression_tolerates_whitespace():
    assert index_expression(" i + 2 ")(4) == 6


def test_index_expression_rejects_garbage():
    for bad in ("i*2", "j", "2i", "i+", "", "ii"):
        with pytest.raises(SpecFormatError):
            index_expression(bad)


def test_parse_map_kind_detection():
    selfmap = parse_map({"window": [0, 1], "values": {"0": 0, "1": 1}})
    assert isinstance(selfmap, SelfMap)
    multi = parse_map({"window": [0, 1], "values": {"0": [0, 1], "1": [1]}})
    assert isinstance(multi, MultiMap)
    ruled = parse_map({
        "window": [0, 1],
        "rules": [{"range": "default", "kind": "interval", "from": "i", "to": "i"}],
    })
    assert isinstance(ruled, MultiMap)


def test_parse_map_rejects_malformed():
    with pytest.raises(SpecFormatError):
        parse_map({"values": {"0": 0}})
    with pytest.raises(SpecFormatError):
        parse_map({"window": [0, 1], "values": {"0": 0}})
    with pytest.raises(SpecFormatError):
        parse_map({"window": [1, 0], "values": {"0": 0, "1": 1}})
    with pytest.raises(SpecFormatError):
        parse_map({"window": [0, 1], "kind": "wormhole", "values": {"0": 0, "1": 1}})
    # JSON booleans are not indices, and "clipped" must be a list
    multi = {"kind": "multimap", "window": [0, 1], "values": {"0": [0], "1": [1]}}
    for bad in (
        {"window": [True, 3], "values": {"1": 1, "2": 2, "3": 3}},
        {"window": [0, 1], "values": {"0": 0, "1": True}},
        {**multi, "window": [False, 1]},
        {**multi, "values": {"0": [0], "1": [True]}},
        {**multi, "values": {"0": 0, "1": True}},
        {**multi, "clipped": [True]},
        {**multi, "clipped": 5},
        {**multi, "clipped": {"1": 1}},
        {**multi, "values": {}, "rules": [
            {"range": [False, 1], "kind": "interval", "from": "i", "to": "i"}]},
        {**multi, "values": {}, "rules": [
            {"range": "default", "kind": "interval", "from": True, "to": "i"}]},
        # no "kind", and "values" is not an object to sniff the kind from
        {"window": [0, 2], "values": [1, 2]},
    ):
        with pytest.raises(SpecFormatError):
            parse_map(bad)
    # tail rules: an object with an integer offset or target
    single = {"kind": "selfmap", "window": [0, 1], "values": {"0": 0, "1": 1}}
    for tail in (
        "mirror",
        ["shift", 2],
        {"kind": "shift"},
        {"kind": "shift", "offset": "2"},
        {"kind": "shift", "offset": 2.0},
        {"kind": "shift", "offset": True},
        {"kind": "collapse"},
        {"kind": "collapse", "target": None},
        {"kind": "collapse", "target": False},
    ):
        for side in ("left_tail", "right_tail"):
            with pytest.raises(SpecFormatError):
                parse_map({**single, side: tail})


def test_rules_apply_first_match_and_clip():
    data = {
        "window": [0, 4],
        "rules": [
            {"range": [0, 1], "kind": "interval", "from": "i", "to": "i+1"},
            {"range": "default", "kind": "interval", "from": "i", "to": "i+2"},
        ],
    }
    F = parse_map(data)
    assert F.value(0) == frozenset({0, 1})
    assert F.value(1) == frozenset({1, 2})
    assert F.value(2) == frozenset({2, 3, 4})
    # the default rule runs past the edge and is clipped there
    assert F.value(4) == frozenset({4})
    assert F.clipped == frozenset({3, 4})


def test_rules_must_cover_window():
    data = {
        "window": [0, 2],
        "rules": [{"range": [0, 1], "kind": "interval", "from": "i", "to": "i"}],
    }
    with pytest.raises(SpecFormatError):
        parse_map(data)


def test_rule_fully_outside_window_fails():
    data = {
        "window": [0, 2],
        "rules": [{"range": "default", "kind": "interval", "from": "i+10", "to": "i+12"}],
    }
    with pytest.raises(SpecFormatError):
        parse_map(data)


def test_rule_with_huge_offset_is_clipped_without_building_the_span():
    big = 10**15
    data = {
        "window": [0, 2],
        "rules": [
            {"range": [0, 0], "kind": "interval", "from": "i", "to": f"i+{big}"},
            {"range": [1, 1], "kind": "interval", "from": f"-i+{big}", "to": f"i-{big}"},
            {"range": "default", "kind": "interval", "from": 0, "to": 2},
        ],
    }
    F = parse_map(data)
    assert F.values == {i: frozenset({0, 1, 2}) for i in (0, 1, 2)}
    # a span that exceeds the window is clipped; one that fits exactly is not
    assert F.clipped == frozenset({0, 1})
    data["rules"][0]["from"] = f"i+{big}"
    with pytest.raises(SpecFormatError, match="entirely outside"):
        parse_map(data)


# JSON-shaped data, biased towards the words and shapes of map files so the
# fuzz reaches the rule and tail parsers.  Integers stay small: a window's
# bounds set the size of the map, and a wide window is a large input, not a
# malformed one.
_WORDS = st.sampled_from([
    "kind", "selfmap", "multimap", "window", "values", "rules", "clipped",
    "left_tail", "right_tail", "shift", "collapse", "offset", "target",
    "interval", "range", "default", "from", "to",
    "i", "-i", "i+1", "i-2", "-i+1", "i+99999999999", "-1", "0", "1", "2",
]) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats() | _WORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_WORDS, inner, max_size=5),
    max_leaves=16,
)
_RULE = st.fixed_dictionaries(
    {"kind": st.just("interval") | _JSON},
    optional={"range": st.just("default") | _JSON, "from": _JSON, "to": _JSON},
)
_MAP_LIKE = st.fixed_dictionaries(
    {"window": st.lists(st.integers(-3, 3), min_size=2, max_size=2) | _JSON},
    optional={
        "kind": st.sampled_from(["selfmap", "multimap"]) | _JSON,
        "values": st.dictionaries(_WORDS, _JSON, max_size=6) | _JSON,
        "rules": st.lists(_RULE, max_size=3) | _JSON,
        "clipped": _JSON,
        "left_tail": st.fixed_dictionaries({"kind": _WORDS}, optional={
            "offset": _JSON, "target": _JSON}) | _JSON,
        "right_tail": _JSON,
    },
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON, _MAP_LIKE))
def test_parse_map_raises_only_spec_format_error(data):
    try:
        parse_map(data)
    except SpecFormatError:
        pass


def test_committed_spec_files_parse_to_catalog_maps():
    expected = {
        "mirror_map.json": mirror_selfmap(3),
        "constant_band_map.json": constant_interval_map(build_line_window(1, 3)),
        "expanding_reach_map.json": expanding_interval_map(12),
        "three_zone_flow.json": three_zone_flow_map(10),
        "split_point_map.json": split_point_map(1),
    }
    for name, want in expected.items():
        assert load_map(SPEC_DIR / name) == want


def test_save_load_round_trip(tmp_path):
    for m in (mirror_selfmap(3), three_zone_flow_map(10), split_point_map(1)):
        path = tmp_path / "map.json"
        save_map(m, path)
        assert load_map(path) == m


def test_selfmap_with_tails_round_trip(tmp_path):
    f = SelfMap(build_line_window(0, 2), {0: 0, 1: 1, 2: 2}, right_tail=Shift(2))
    path = tmp_path / "tailed.json"
    save_map(f, path)
    g = load_map(path)
    assert g == f
    assert g.value(4) == 6


def test_load_map_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises((SpecFormatError, json.JSONDecodeError, ValueError)):
        load_map(path)
