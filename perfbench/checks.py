"""Output checks for one measurement pass, and digests of its CSV files.

A strategy run (one simulated day) fails if it raised `Infeasible` or if
any check below finds a problem in it:

* every avatar is placed in every slot, within capacity (checked by the
  recorder as each outcome is returned);
* no slot's `max_delay_ms` exceeds the workload's SLA;
* daily totals equal the sum of the slot rows;
* FAR and GEAR see the same `total_green_w` in every slot (one world);
* GEAR's linearized on-grid Wh is no greater than FAR's in every slot,
  the guarantee GEAR states; it holds under linearized accounting only;
* every CSV row the pass wrote agrees with the results it was written from.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# CSV values carry 6 decimals; a sum of n rounded rows may drift n half-units.
_ROUND = 5e-7 + 1e-9


@dataclass
class PassCheck:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    far_wh: float = 0.0           # linearized on-grid Wh, checked pairs only
    gear_wh: float = 0.0
    exact_regress_slots: int = 0  # slots where GEAR's exact Wh exceeds FAR's


def digests(out: Path, names) -> dict[str, str]:
    """sha256 of each output file that exists."""
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _near(text: str, value: float, tol: float = _ROUND) -> bool:
    return abs(float(text) - value) <= tol + abs(value) * 1e-12


def _day_problems(result, sla_ms: float) -> list[str]:
    out = []
    late = [s.slot for s in result.slots if s.max_delay_ms > sla_ms]
    if late:
        out.append(f"max_delay_ms above {sla_ms} ms in slots {late[:5]}")
    for total, part in (("total_ongrid_exact_wh", "ongrid_exact_wh"),
                        ("total_ongrid_approx_wh", "ongrid_approx_wh")):
        parts = math.fsum(getattr(s, part) for s in result.slots)
        if not math.isclose(getattr(result, total), parts, rel_tol=1e-9,
                            abs_tol=1e-9):
            out.append(f"{total} differs from the sum of its slots")
    if result.total_migrations != sum(s.migrations for s in result.slots):
        out.append("total_migrations differs from the sum of its slots")
    return out


def _pair_problems(far, gear) -> list[str]:
    if len(far.slots) != len(gear.slots):
        return ["FAR and GEAR simulated different slot counts"]
    out = []
    green = [f.slot for f, g in zip(far.slots, gear.slots) if f.green != g.green]
    if green:
        out.append(f"FAR and GEAR green supply differs in slots {green[:5]}")
    worse = [f.slot for f, g in zip(far.slots, gear.slots)
             if g.ongrid_approx_wh > f.ongrid_approx_wh]
    if worse:
        out.append(f"GEAR linearized on-grid Wh above FAR's in slots {worse[:5]}")
    return out


def _slot_rows_problems(rows, result) -> list[str]:
    if len(rows) != len(result.slots):
        return [f"{len(rows)} slot rows for {len(result.slots)} slots"]
    for row, s in zip(rows, result.slots):
        ok = (int(row["slot"]) == s.slot
              and _near(row["total_power_exact_w"], sum(s.power_exact))
              and _near(row["total_power_approx_w"], sum(s.power_approx))
              and _near(row["total_green_w"], sum(s.green))
              and _near(row["ongrid_exact_wh"], s.ongrid_exact_wh)
              and _near(row["ongrid_approx_wh"], s.ongrid_approx_wh)
              and int(row["migrations"]) == s.migrations
              and _near(row["max_delay_ms"], s.max_delay_ms))
        if not ok:
            return [f"slots.csv row for slot {s.slot} disagrees with the run"]
    return []


def _summary_problems(rows, slot_rows: list, result) -> list[str]:
    """summary.csv rows of one strategy against its slot rows and its run."""
    if len(rows) != 1:
        return [f"{len(rows)} summary rows for one strategy"]
    row, n = rows[0], len(slot_rows)
    out = []
    for total, part in (("total_ongrid_exact_wh", "ongrid_exact_wh"),
                        ("total_ongrid_approx_wh", "ongrid_approx_wh")):
        parts = math.fsum(float(r[part]) for r in slot_rows)
        if not _near(row[total], parts, _ROUND * (n + 1)):
            out.append(f"summary {row['strategy']} {total} is not the sum "
                       "of its slot rows")
    if (int(row["total_migrations"]) != sum(int(r["migrations"])
                                            for r in slot_rows)
            or int(row["slots"]) != n or int(row["seed"]) != result.seed):
        out.append(f"summary {row['strategy']} row disagrees with its slot "
                   "rows")
    return out


def _sweep_problems(rows, pairs) -> dict:
    """sweep.csv against the runs, keyed by (index into `pairs`, strategy)."""
    out: dict = {}
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if len(ok_rows) != 2 * len(pairs):
        return {None: [f"sweep.csv has {len(ok_rows)} ok rows for "
                       f"{2 * len(pairs)} runs"]}
    for k, (far, gear) in enumerate(pairs):
        pct = 100.0 * (far.total_ongrid_approx_wh - gear.total_ongrid_approx_wh)
        pct = 0.0 if far.total_ongrid_approx_wh == 0 else (
            pct / far.total_ongrid_approx_wh)
        for row, r in zip(ok_rows[2 * k:2 * k + 2], (far, gear)):
            if not (row["strategy"] == r.strategy
                    and _near(row["total_ongrid_exact_wh"],
                              r.total_ongrid_exact_wh)
                    and _near(row["total_ongrid_approx_wh"],
                              r.total_ongrid_approx_wh)
                    and int(row["total_migrations"]) == r.total_migrations
                    and _near(row["savings_approx_pct"], pct)):
                out.setdefault((k, r.strategy), []).append(
                    f"sweep.csv row {row['variable']}={row['value']} "
                    f"{row['strategy']} disagrees with its run")
    return out


def check_pass(workload, days, out: Path, exit_code: int,
               sla_ms: float) -> PassCheck:
    """Check one pass's days (`DayRecord`s in call order) and its files."""
    chk = PassCheck(attempted=workload.days)
    if exit_code != 0:
        chk.problems.append(f"{workload.name} exited with code {exit_code}")
    # Days come as FAR then GEAR for each world or sweep point.
    pairs = []
    i = 0
    while i < len(days):
        far = days[i]
        gear = days[i + 1] if i + 1 < len(days) else None
        if far.strategy != "far" or gear is None or gear.strategy != "gear":
            chk.problems.extend(far.problems or [f"unpaired {far.strategy} day"])
            i += 1
            continue
        for d in (far, gear):
            if d.result is not None:
                d.problems.extend(_day_problems(d.result, sla_ms))
        if far.result is not None and gear.result is not None:
            gear.problems.extend(_pair_problems(far.result, gear.result))
        pairs.append((far, gear))
        i += 2

    results = [(f.result, g.result) for f, g in pairs
               if f.result is not None and g.result is not None]
    files = _file_problems(workload, out, pairs, results)
    for key, msgs in files.items():
        if key is None:   # a file problem that belongs to no single day
            chk.problems.extend(msgs)
        else:
            k, strategy = key
            pairs[k][strategy == "gear"].problems.extend(msgs)

    passed = 0
    for far, gear in pairs:
        for d in (far, gear):
            if d.result is None or d.problems:
                chk.problems.extend(d.problems or [f"{d.strategy} day failed"])
            else:
                passed += 1
        if far.result is not None and gear.result is not None:
            chk.far_wh += far.result.total_ongrid_approx_wh
            chk.gear_wh += gear.result.total_ongrid_approx_wh
            chk.exact_regress_slots += sum(
                g.ongrid_exact_wh > f.ongrid_exact_wh
                for f, g in zip(far.result.slots, gear.result.slots))
    if exit_code != 0 or None in files:
        passed = 0
    chk.failed = chk.attempted - min(passed, chk.attempted)
    return chk


def _file_problems(workload, out: Path, pairs, results) -> dict:
    """Problems found in the pass's CSV files, keyed by (pair index,
    strategy), or by None for a problem that belongs to no single day."""
    missing = [n for n in workload.outputs if not (out / n).is_file()]
    if missing:
        return {None: [f"missing output files {missing}"]}
    if len(results) != len(pairs) or not pairs:
        return {}
    found: dict = {}
    if "sweep.csv" in workload.outputs:
        found.update(_sweep_problems(_read(out / "sweep.csv"), results))
    elif "summary.csv" in workload.outputs:
        rows = _read(out / "slots.csv")
        by = {s: [r for r in rows if r["strategy"] == s] for s in ("far", "gear")}
        summary = _read(out / "summary.csv")
        runs = dict(zip(("far", "gear"), results[0]))
        for strategy, result in runs.items():
            found[(0, strategy)] = (
                _slot_rows_problems(by[strategy], result)
                + _summary_problems(
                    [r for r in summary if r["strategy"] == strategy],
                    by[strategy], result))
        if [r["total_green_w"] for r in by["far"]] != [
                r["total_green_w"] for r in by["gear"]]:
            found[(0, "gear")].append(
                "slots.csv FAR and GEAR total_green_w rows differ")
    else:
        for k, pair in enumerate(results):
            for strategy, result in zip(("far", "gear"), pair):
                found[(k, strategy)] = _slot_rows_problems(
                    _read(out / f"slots-{k}-{strategy}.csv"), result)
    return {key: msgs for key, msgs in found.items() if msgs}
