import csv

import pytest

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
    ], ids=["sweep-ues", "sweep-kappa"])
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
