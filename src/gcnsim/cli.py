"""Command-line front end: single runs and the two standard sweeps.

Commands:
  run          simulate one day and write slots.csv + summary.csv
  sweep-ues    sweep the UE population, write sweep.csv
  sweep-kappa  sweep the urban solar derating factor, write sweep.csv

All outputs are plain CSV with fixed headers and 6-digit decimals so that
identical (config, seed, flags) reproduce identical bytes. Exit codes:
0 success, 1 usage or config error, 2 infeasible scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .engine import RunResult, SlotMetrics, World, run
from .scenario import ScenarioConfig, load_scenario_config, load_solar_trace
from .solver import Infeasible, SolverConfig

SLOTS_HEADER = ("slot,strategy,total_power_exact_w,total_power_approx_w,"
                "total_green_w,ongrid_exact_wh,ongrid_approx_wh,migrations,"
                "max_delay_ms")
SUMMARY_HEADER = ("strategy,total_ongrid_exact_wh,total_ongrid_approx_wh,"
                  "total_migrations,slots,seed")
SWEEP_HEADER = ("variable,value,strategy,status,total_ongrid_exact_wh,"
                "total_ongrid_approx_wh,total_migrations,savings_approx_pct")

DEFAULT_UE_VALUES = tuple(range(600, 1401, 100))
DEFAULT_KAPPA_VALUES = (0.0, 0.1, 0.2, 0.3)


def bundled_trace_path() -> str:
    """Path of the synthetic clear-day irradiance trace shipped in the package."""
    return str(resources.files("gcnsim").joinpath("data", "solar_bell.csv"))


def _slot_row(s: SlotMetrics, strategy: str) -> str:
    return (f"{s.slot},{strategy},{sum(s.power_exact):.6f},"
            f"{sum(s.power_approx):.6f},{sum(s.green):.6f},"
            f"{s.ongrid_exact_wh:.6f},{s.ongrid_approx_wh:.6f},"
            f"{s.migrations},{s.max_delay_ms:.6f}")


def emit_csv(result: RunResult, path: str) -> None:
    """Write one run's per-slot metrics with the fixed slots.csv header."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(SLOTS_HEADER + "\n")
        for s in result.slots:
            f.write(_slot_row(s, result.strategy) + "\n")


def _emit_slots_pair(far: RunResult, gear: RunResult, path: str) -> None:
    # Paired runs gain a per-slot savings column (FAR minus GEAR, linearized
    # accounting); the value repeats on both rows of a slot.
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(SLOTS_HEADER + ",savings_approx_wh\n")
        for fs, gs in zip(far.slots, gear.slots):
            savings = fs.ongrid_approx_wh - gs.ongrid_approx_wh
            f.write(f"{_slot_row(fs, 'far')},{savings:.6f}\n")
            f.write(f"{_slot_row(gs, 'gear')},{savings:.6f}\n")


def _emit_summary(results: list[RunResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(SUMMARY_HEADER + "\n")
        for r in results:
            f.write(f"{r.strategy},{r.total_ongrid_exact_wh:.6f},"
                    f"{r.total_ongrid_approx_wh:.6f},{r.total_migrations},"
                    f"{len(r.slots)},{r.seed}\n")


def _load_common(args: argparse.Namespace):
    config = (load_scenario_config(args.config) if args.config
              else ScenarioConfig())
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    trace = load_solar_trace(args.trace if args.trace else bundled_trace_path())
    solver_config = SolverConfig(node_limit=args.node_limit,
                                 gap_tolerance=args.gap)
    return config, trace, solver_config


def cmd_run(args: argparse.Namespace) -> int:
    config, trace, solver_config = _load_common(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.strategy == "both":
        world = World(config)  # drawn during the FAR run, replayed for GEAR
        far = run(config, "far", trace, solver_config, world=world)
        gear = run(config, "gear", trace, solver_config, world=world)
        _emit_slots_pair(far, gear, str(out / "slots.csv"))
        _emit_summary([far, gear], str(out / "summary.csv"))
    else:
        result = run(config, args.strategy, trace, solver_config)
        emit_csv(result, str(out / "slots.csv"))
        _emit_summary([result], str(out / "summary.csv"))
    return 0


def _fmt_value(variable: str, value) -> str:
    return str(value) if variable == "ue_count" else f"{value:.6f}"


def cmd_sweep(args: argparse.Namespace, variable: str) -> int:
    config, trace, solver_config = _load_common(args)
    if args.values:
        cast = int if variable == "ue_count" else float
        values = tuple(cast(v) for v in args.values.split(","))
    else:
        values = (DEFAULT_UE_VALUES if variable == "ue_count"
                  else DEFAULT_KAPPA_VALUES)
    # Checked before any point runs, so a bad value costs no simulated day
    # and leaves no output directory.
    if variable == "ue_count" and any(v <= 0 for v in values):
        raise ValueError("ue_count values must be positive integers")
    if variable == "kappa" and not all(0 <= v <= 1 for v in values):
        raise ValueError("kappa values must lie in [0, 1]")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[str] = []
    world = None
    for value in values:
        point = replace(config, **{variable: value})
        fmt = _fmt_value(variable, value)
        if world is None or not world.matches(point):
            world = World(point)  # kappa points share one world
        try:
            far = run(point, "far", trace, solver_config, world=world)
            gear = run(point, "gear", trace, solver_config, world=world)
        except Infeasible as exc:
            print(f"sweep point {variable}={fmt} infeasible: {exc}",
                  file=sys.stderr)
            rows.append(f"{variable},{fmt},-,error,0.000000,0.000000,0,0.000000")
            continue
        far_total = far.total_ongrid_approx_wh
        saved = far_total - gear.total_ongrid_approx_wh
        pct = 0.0 if far_total == 0 else 100.0 * saved / far_total
        for r in (far, gear):
            rows.append(f"{variable},{fmt},{r.strategy},ok,"
                        f"{r.total_ongrid_exact_wh:.6f},"
                        f"{r.total_ongrid_approx_wh:.6f},"
                        f"{r.total_migrations},{pct:.6f}")
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        f.write(SWEEP_HEADER + "\n")
        for row in rows:
            f.write(row + "\n")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit codes under our control
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gcnsim",
                     description="Green cloudlet network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario config file (defaults apply)")
        p.add_argument("--trace", help="hourly solar trace (default: bundled)")
        p.add_argument("--seed", type=int, help="override the config RNG seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--node-limit", type=int, default=100_000,
                       help="branch-and-bound node budget per slot")
        p.add_argument("--gap", type=float, default=0.0,
                       help="relative optimality gap tolerance")

    p_run = sub.add_parser("run", help="simulate one day")
    add_common(p_run)
    p_run.add_argument("--strategy", choices=("gear", "far", "both"),
                       default="both")
    p_run.set_defaults(func=cmd_run)

    p_ues = sub.add_parser("sweep-ues", help="sweep the UE population")
    add_common(p_ues)
    p_ues.add_argument("--values", help="comma-separated UE counts")
    p_ues.set_defaults(func=lambda a: cmd_sweep(a, "ue_count"))

    p_kappa = sub.add_parser("sweep-kappa", help="sweep urban solar derating")
    add_common(p_kappa)
    p_kappa.add_argument("--values", help="comma-separated kappa values")
    p_kappa.set_defaults(func=lambda a: cmd_sweep(a, "kappa"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Infeasible as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
