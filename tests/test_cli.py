import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcnsim
from gcnsim.cli import (
    SLOTS_HEADER,
    SWEEP_HEADER,
    bundled_trace_path,
    main,
)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def header_of(path):
    with open(path) as f:
        return f.readline().rstrip("\n")


def in_own_process(*args):
    """`python *args` with the package importable, in a process of its own
    under a time bound, so that a run that never finishes fails the test
    instead of hanging the suite."""
    src = Path(gcnsim.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})


# Runs `gcnsim run --strategy both` on each (config file, output directory)
# pair of the JSON list in argv[1], and prints each run's exit code and
# stderr as a JSON list.
EDGE_RUNNER = """
import contextlib, io, json, sys
from gcnsim.cli import main
results = []
for cfg, out in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--strategy", "both", "--config", cfg,
                     "--out", out])
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def edge_values(default):
    """Config-file values at the edges of a key whose default is
    `default`: 0, negative, NaN, +-inf, 1e300, the wrong type, 10**6 for
    integer keys, and for a tuple key each of those in every place and
    the default inverted."""
    first = default[0] if isinstance(default, tuple) else default
    values = ["0", "-1", "nan", "inf", "-inf", "1e300", "ten"]
    if type(first) is int:
        values.append(str(10**6))
    if not isinstance(default, tuple):
        return values
    return ([",".join([v] * len(default)) for v in values]
            + [",".join(map(str, reversed(default)))])


def test_every_config_key_at_its_edge_values(tmp_path):
    # 20 UEs and 2 slots, unless the key under test is one of those; each
    # case runs twice
    cases, runs = [], []
    for key, default in vars(gcnsim.ScenarioConfig()).items():
        for value in edge_values(default):
            lines = {"ue_count": "20", "slot_count": "2", key: value}
            cfg = tmp_path / f"{len(cases)}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
            outs = [tmp_path / f"{len(cases)}{run}" for run in "ab"]
            cases.append((key, value, cfg, outs))
            runs += [(str(cfg), str(out)) for out in outs]
    done = in_own_process("-c", EDGE_RUNNER, json.dumps(runs))
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    wrong = []
    for (key, value, cfg, (a, b)), first, again in zip(cases, results[::2],
                                                       results[1::2]):
        code, err = first
        if code == 0:
            ok = again == first and all(
                (a / name).read_bytes() == (b / name).read_bytes()
                for name in ("slots.csv", "summary.csv"))
        elif code == 1:
            ok = key in err and str(cfg) in err
        else:
            ok = code == 2
        if not ok:
            wrong.append((key, value, code, err))
    assert len(results) == len(runs) and wrong == []


class TestRunCommand:
    def test_single_strategy_fixed_header_and_row_count(self, tmp_path):
        out = tmp_path / "far"
        code = main(["run", "--strategy", "far", "--out", str(out),
                     "--seed", "3"])
        assert code == 0
        assert header_of(out / "slots.csv") == SLOTS_HEADER
        rows = read_rows(out / "slots.csv")
        assert len(rows) == 96
        assert [r["slot"] for r in rows] == [str(t) for t in range(96)]
        assert all(r["strategy"] == "far" for r in rows)

    def test_missing_trace_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--trace", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ue_count = many\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("line, message", [
        # UEs walked out of the area and the eNB array overflowed
        ("speed_range = -10.0,-5.0", "speed_range must start at >= 0 m/s"),
        # the waypoint draw never landed inside the area
        ("dest_mean = 100.0", "dest_mean must lie within [0, area_side]"),
        # mirrored waypoints
        ("dest_stddev = -1.4", "dest_stddev must be non-negative"),
        # the waypoint draw never landed inside the area
        ("dest_stddev = inf", "dest_stddev must be finite"),
        ("dest_stddev = 1e300", "dest_stddev is too wide for area_side: a "
         "waypoint lands inside the area with chance 0, under 0.01"),
        # accepted, or refused in the name of another key
        ("urban_region = nan,0,1,1", "urban_region must be finite"),
        ("panel_area = nan", "panel_area must be finite"),
        ("area_side = nan", "area_side must be finite"),
        # refused without the config file's path
        ("panel_area = -5", "panel_area must be non-negative"),
        ("panel_efficiency = -1", "panel_efficiency must be in (0, 1]"),
        # the site tables grow as grid_dim**4
        ("grid_dim = 300", "grid_dim must be in [1, 32]"),
    ])
    def test_config_the_world_cannot_draw_exits_one(self, tmp_path, line,
                                                    message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\nue_count = 50\nslot_count = 10\n")
        done = in_own_process("-m", "gcnsim.cli", "run", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert (done.returncode, done.stderr) == (1,
                                                  f"error: {cfg}: {message}\n")

    def test_infeasible_scenario_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "full.cfg"
        cfg.write_text("ue_count = 5000\ncapacity_range = 1,1\nslot_count = 4\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_far_greedy_failure_reported_as_the_greedys(self, tmp_path,
                                                       capsys):
        # FAR's greedy runs out of room at slot 23, although GEAR places
        # every slot of this day
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("capacity_range = 1,2\nue_count = 300\n"
                       "slot_count = 48\nrng_seed = 1\n")
        code = main(["run", "--strategy", "both", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "infeasible scenario: slot 23: FAR's nearest-with-room greedy "
            "failed: no room for avatar 298 at eNB 4, whose in-range "
            "cloudlets (nearest first) 4, 0, 5, 8, 1, 9 are all full; this "
            "does not prove that no placement exists\n")

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--strategy", "quickest"]) == 1

    def test_both_mode_adds_savings_column(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ue_count = 30\nslot_count = 48\n")
        out = tmp_path / "both"
        assert main(["run", "--config", str(cfg), "--strategy", "both",
                     "--out", str(out)]) == 0
        assert header_of(out / "slots.csv") == SLOTS_HEADER + ",savings_approx_wh"
        rows = read_rows(out / "slots.csv")
        assert len(rows) == 2 * 48
        by_slot = {}
        for r in rows:
            by_slot.setdefault(r["slot"], {})[r["strategy"]] = r
        for slot, pair in by_slot.items():
            far, gear = pair["far"], pair["gear"]
            assert far["savings_approx_wh"] == gear["savings_approx_wh"]
            recomputed = (float(far["ongrid_approx_wh"])
                          - float(gear["ongrid_approx_wh"]))
            assert float(far["savings_approx_wh"]) == pytest.approx(
                recomputed, abs=1e-6)
            if float(far["total_green_w"]) == 0.0:
                assert far["savings_approx_wh"] == "0.000000"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ue_count = 25\nslot_count = 40\n")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--config", str(cfg), "--strategy", "both",
                         "--out", str(out)]) == 0
        assert (a / "slots.csv").read_bytes() == (b / "slots.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_summary_totals_match_slot_sums(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ue_count = 20\nslot_count = 32\n")
        out = tmp_path / "sum"
        assert main(["run", "--config", str(cfg), "--strategy", "gear",
                     "--out", str(out)]) == 0
        slot_rows = read_rows(out / "slots.csv")
        summary = read_rows(out / "summary.csv")[0]
        assert summary["strategy"] == "gear"
        assert summary["slots"] == "32"
        for summary_col, slot_col in (("total_ongrid_exact_wh", "ongrid_exact_wh"),
                                      ("total_ongrid_approx_wh", "ongrid_approx_wh"),
                                      ("total_migrations", "migrations")):
            column_sum = sum(float(r[slot_col]) for r in slot_rows)
            assert float(summary[summary_col]) == pytest.approx(
                column_sum, abs=1e-3)


class TestSweeps:
    def test_kappa_sweep_row_count(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ue_count = 25\nslot_count = 48\n")
        out = tmp_path / "ks"
        assert main(["sweep-kappa", "--config", str(cfg), "--out", str(out)]) == 0
        assert header_of(out / "sweep.csv") == SWEEP_HEADER
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 8  # 4 default values x 2 strategies
        assert all(r["status"] == "ok" for r in rows)

    def test_ue_sweep_explicit_values(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("slot_count = 24\n")
        out = tmp_path / "us"
        assert main(["sweep-ues", "--config", str(cfg),
                     "--values", "10,20,30", "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert [(r["value"], r["strategy"]) for r in rows] == [
            ("10", "far"), ("10", "gear"),
            ("20", "far"), ("20", "gear"),
            ("30", "far"), ("30", "gear")]

    def test_single_value_sweep_matches_run_exactly(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ue_count = 30\nslot_count = 48\n")
        run_out, sweep_out = tmp_path / "r", tmp_path / "s"
        assert main(["run", "--config", str(cfg), "--strategy", "both",
                     "--out", str(run_out), "--seed", "5"]) == 0
        assert main(["sweep-ues", "--config", str(cfg), "--values", "30",
                     "--out", str(sweep_out), "--seed", "5"]) == 0
        summary = {r["strategy"]: r for r in read_rows(run_out / "summary.csv")}
        sweep = {r["strategy"]: r for r in read_rows(sweep_out / "sweep.csv")}
        for strategy in ("far", "gear"):
            for col in ("total_ongrid_exact_wh", "total_ongrid_approx_wh",
                        "total_migrations"):
                assert sweep[strategy][col] == summary[strategy][col]

    def test_failing_point_records_error_row_and_continues(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("capacity_range = 1,1\nslot_count = 4\n")
        out = tmp_path / "err"
        assert main(["sweep-ues", "--config", str(cfg),
                     "--values", "10,5000,20", "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        statuses = [(r["value"], r["strategy"], r["status"]) for r in rows]
        assert ("5000", "-", "error") in statuses
        assert ("10", "far", "ok") in statuses
        assert ("20", "gear", "ok") in statuses

    @pytest.mark.parametrize("command, values, message", [
        ("sweep-ues", "10,0", "ue_count values must be positive integers"),
        ("sweep-kappa", "0.5,1.5", "kappa values must lie in [0, 1]"),
        ("sweep-ues", "10,10.5", "ue_count values must be integers, "
                                 "got '10.5'"),
        ("sweep-kappa", "0.5,x", "kappa values must be numbers, got 'x'"),
        ("sweep-ues", "10,100001", "ue_count must be in [0, 100000]"),
    ], ids=["sweep-ues", "sweep-kappa", "sweep-ues-not-integer",
            "sweep-kappa-not-number", "sweep-ues-above-the-bound"])
    def test_sweep_values_checked_before_any_point_runs(
            self, tmp_path, capsys, command, values, message):
        out = tmp_path / "never"
        assert main([command, "--values", values, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestBundledTrace:
    def test_path_points_at_readable_file(self):
        path = bundled_trace_path()
        with open(path) as f:
            assert f.readline().strip() == "hour,irradiance_w_per_m2"
