"""Command line interface: subcommands, report shape, exit codes."""

import contextlib
import io
import json
from pathlib import Path

from linedyn.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def results_of(argv):
    code, out, _ = run(argv + ["--no-timing"])
    return code, json.loads(out)["results"]


def test_window_summary():
    code, out, _ = run(["window", "-2", "2", "--no-timing"])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["command", "input_digest", "results", "version"]
    assert len(report["input_digest"]) == 64
    res = report["results"]
    assert res["size"] == 5
    assert res["hasse_edge_count"] == 4
    assert res["minimal_indices"] == [-1, 1]
    assert res["maximal_indices"] == [-2, 0, 2]
    assert res["reduced_homology"]["betti"] == {"0": 0, "1": 0}


def test_window_rejects_bad_range():
    code, _, err = run(["window", "2", "-2", "--no-timing"])
    assert code == 2
    assert "invalid range" in err


def test_window_dot_export(tmp_path):
    dot_path = tmp_path / "w.dot"
    code, _, _ = run(["window", "-2", "2", "--dot", str(dot_path), "--no-timing"])
    assert code == 0
    dot = dot_path.read_text()
    assert dot.count("->") == 4


def test_check_map_exit_codes():
    passing = [
        "mirror_map.json",
        "identity_map.json",
        "constant_band_map.json",
        "expanding_reach_map.json",
        "three_zone_flow.json",
    ]
    for name in passing:
        code, res = results_of(["check-map", str(SPEC_DIR / name)])
        assert code == 0
        assert res["verdict"] is True
    code, res = results_of(["check-map", str(SPEC_DIR / "split_point_map.json")])
    assert code == 1
    assert res["verdict"] is False
    assert res["witness_chain"] == [0]
    assert res["check"] == "vietoris"


def test_check_map_selfmap_reports_continuity():
    code, res = results_of(["check-map", str(SPEC_DIR / "mirror_map.json")])
    assert res["check"] == "continuity"
    assert res["map_kind"] == "selfmap"


def test_check_map_multi_flag_lifts_selfmap():
    code, res = results_of(["check-map", str(SPEC_DIR / "identity_map.json"), "--multi"])
    assert code == 0
    assert res["map_kind"] == "multimap"
    assert res["check"] == "vietoris"


def test_check_map_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check-map", str(bad), "--no-timing"])[0] == 2
    assert run(["check-map", str(tmp_path / "absent.json"), "--no-timing"])[0] == 2
    clipped = tmp_path / "clipped.json"
    clipped.write_text('{"kind": "multimap", "window": [0, 1], "values": {"0": [0], "1": [1]}, "clipped": 5}')
    code, _, err = run(["check-map", str(clipped), "--no-timing"])
    assert code == 2 and "clipped" in err
    listed = tmp_path / "listed.json"
    listed.write_text('{"window": [0, 2], "values": [1, 2]}')
    code, out, err = run(["check-map", str(listed), "--no-timing"])
    assert code == 2 and out == "" and "values" in err
    for tail in ('{"kind": "shift"}', '"mirror"', '{"kind": "collapse", "target": true}'):
        tailed = tmp_path / "tailed.json"
        tailed.write_text(
            '{"kind": "selfmap", "window": [0, 1], "values": {"0": 0, "1": 1}, '
            f'"left_tail": {tail}}}'
        )
        code, out, err = run(["check-map", str(tailed), "--no-timing"])
        assert code == 2 and out == "" and "tail" in err


def test_orbits_band():
    code, res = results_of(["orbits", str(SPEC_DIR / "constant_band_map.json")])
    assert code == 0
    assert res["spectrum"] == [1, 2, 3]
    assert res["orbit_counts_by_period"] == {"1": 3, "2": 3, "3": 2}
    assert res["orbit_samples_by_period"]["2"] == [[1, 2], [1, 3], [2, 3]]
    assert res["fixed_points"] == [1, 2, 3]


def test_orbits_expanding_spectrum():
    code, res = results_of([
        "orbits", str(SPEC_DIR / "expanding_reach_map.json"), "--max-period", "5",
    ])
    assert code == 0
    assert set(res["spectrum"]) >= {1, 2, 3, 4, 5}


def test_orbits_rejects_non_positive_max_period():
    for n in ("0", "-3"):
        code, out, err = run([
            "orbits", str(SPEC_DIR / "constant_band_map.json"), "--max-period", n, "--no-timing",
        ])
        assert code == 2 and out == ""
        assert "--max-period" in err


def test_orbits_identity_spectrum():
    code, res = results_of(["orbits", str(SPEC_DIR / "identity_map.json")])
    assert code == 0
    assert res["spectrum"] == [1]


def test_orbits_start_sample():
    code, res = results_of([
        "orbits", str(SPEC_DIR / "three_zone_flow.json"), "--start", "-4",
    ])
    assert code == 0
    sample = res["orbit_sample"]
    assert sample["start"] == -4
    assert sample["policy"] == "least-index"
    assert sample["points"][:5] == [-4, -3, -2, -1, -1]


def test_orbits_three_zone_invariant_sets_and_dot(tmp_path):
    dot_path = tmp_path / "g.dot"
    code, out, _ = run([
        "orbits", str(SPEC_DIR / "three_zone_flow.json"),
        "--dot", str(dot_path), "--no-timing",
    ])
    assert code == 0
    res = json.loads(out)["results"]
    kinds = [s["kind"] for s in res["invariant_sets"]["sets"]]
    assert kinds == ["Saddle", "Attractor", "Repeller"]
    dot = dot_path.read_text()
    assert dot.count("subgraph cluster") == 3
    assert "Attractor" in dot


def test_verify_subcommand():
    code, res = results_of(["verify", "--theorem", "no-period-3", "--window", "2"])
    assert code == 0
    assert res["passed"] is True
    assert res["corpus_size"] == 99


def test_verify_requires_window_for_enumeration_suites():
    code, _, err = run(["verify", "--theorem", "no-period-3", "--no-timing"])
    assert code == 2
    assert "--window" in err


def test_homology_targets():
    code, res = results_of(["homology", "minimal-circle"])
    assert code == 0
    assert res["reduced_homology"]["betti"] == {"0": 0, "1": 1}
    assert res["acyclic"] is False

    code, res = results_of(["homology", "interval:3"])
    assert code == 0
    assert res["acyclic"] is True

    code, res = results_of(["homology", "window:-3:3"])
    assert code == 0
    assert res["acyclic"] is True


def test_homology_of_map_file_uses_its_window():
    code, res = results_of(["homology", str(SPEC_DIR / "three_zone_flow.json")])
    assert code == 0
    assert res["acyclic"] is True


def test_reports_are_byte_stable_without_timing():
    argv = ["orbits", str(SPEC_DIR / "constant_band_map.json"), "--no-timing"]
    assert run(argv)[1] == run(argv)[1]


def test_timing_present_by_default():
    _, out, _ = run(["window", "-1", "1"])
    assert "timing" in json.loads(out)


def test_json_file_matches_stdout(tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run(["window", "-1", "1", "--json", str(path), "--no-timing"])
    assert path.read_text() == out


def test_version_flag():
    code, out, _ = run(["--version"])
    assert code == 0
    assert out.strip() == "0.1.0"


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run(["frobnicate"])
    assert code == 2
