"""gcnsim benchmark: runs one workload against the package in ./src.

    python3 perfbench/run.py --workload day-1000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2 --seconds 20 [--record F]

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes a separate traced run for the per-layer metrics (see README.md). Each
run repeats the workload's pass until `--seconds` have passed and checks the
outputs of every pass. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the full report as JSON. `--workload all` runs every workload, untraced and
traced, each in a fresh process, and `--record` writes their reports, with
the machine they ran on, to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
MIN_PASSES = 3   # a per-decision median over 3 passes drops a one-off stall


def _import_program() -> None:
    """Put ./src first on the path and insist that gcnsim comes from there."""
    if not (SRC / "gcnsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gcnsim package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import gcnsim
    if SRC.resolve() not in Path(gcnsim.__file__).resolve().parents:
        sys.exit(f"perfbench: gcnsim imported from {gcnsim.__file__}")


# -- set-up time ----------------------------------------------------------

def _setup_probe(name: str, seed: int) -> None:
    """Run the workload in this fresh process up to its first placement
    decision, print the monotonic clock there and exit at once."""
    _import_program()
    from workloads import WORKLOADS
    import gcnsim.engine as engine

    def stop(*args, **kwargs):
        print(repr(time.monotonic()), flush=True)
        os._exit(0)

    out = OUT / f"probe-{name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    execute = WORKLOADS[name].prepare(seed, out)
    engine.far_assign = engine.gear_assign = stop
    execute()
    sys.exit("perfbench: the workload made no placement decision")


def _setup_times(name: str, seed: int) -> list[float]:
    """Seconds from process start to the first placement decision: the
    import, config and trace load, topology, initial UEs and slot 0's world
    step, in fresh processes. The first probe only warms the file cache and
    the bytecode cache and is not counted."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times[1:]


# -- measurement passes ---------------------------------------------------

def _one_pass(workload, execute, out: Path, rec, sla_ms: float) -> dict:
    from checks import check_pass, digests

    for name in workload.outputs:   # a pass that writes nothing must show
        (out / name).unlink(missing_ok=True)
    rec.reset()
    t0 = time.perf_counter()
    code = execute()
    wall = time.perf_counter() - t0
    chk = check_pass(workload, rec.days, out, code, sla_ms)
    points = 0
    if (out / "sweep.csv").is_file():
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        points = sum(",far,ok," in r for r in rows)
    return {
        "wall_s": wall,
        "decide_ms": list(rec.decide_ms),
        "check": chk,
        "stats": {k: tuple(v) for k, v in rec.stats.items()},
        # Everything below is a deterministic function of (workload, seed).
        "fingerprint": {
            **rec.evidence,
            "far_wh": chk.far_wh, "gear_wh": chk.gear_wh,
            "exact_regress_slots": chk.exact_regress_slots,
            "failed": chk.failed, "sweep_points": points,
            "digests": digests(out, workload.outputs),
        },
    }


def _passes(workload, execute, out, rec, sla_ms, seconds, least, start):
    """Repeat passes until `seconds` have passed since `start` and at least
    `least` passes are done."""
    done = []
    while len(done) < least or time.perf_counter() - start < seconds:
        done.append(_one_pass(workload, execute, out, rec, sla_ms))
    return done


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value (the eleventh-largest sample)."""
    s = sorted(samples)
    n = len(s)
    k = max(0, n - 11)
    return int(1000 * (k + 1) / n) / 10, s[k]


def _layer_metrics(passes, overhead_s: float) -> dict:
    fp, stats = passes[0]["fingerprint"], passes[0]["stats"]   # counts repeat
    calls = fp["solve_calls"]
    self_s = {k: statistics.median(p["stats"][k][1] for p in passes)
              for k in stats}
    metrics = {
        "scenario.step_mobility.calls":
            (stats["scenario.step_mobility"][0], "count"),
        "scenario.step_mobility.self_s": (self_s["scenario.step_mobility"], "s"),
        "scenario.sample_utilization.self_s":
            (self_s["scenario.sample_utilization"], "s"),
        "scenario.enb_of.self_s": (self_s["scenario.enb_of"], "s"),
        "scenario.green_power.self_s": (self_s["scenario.green_power"], "s"),
        "scenario.init.self_s": (self_s["scenario.init"], "s"),
        "model.assignment_loads.self_s": (self_s["model.assignment_loads"], "s"),
        "model.pack_first_fit.self_s": (self_s["model.pack_first_fit"], "s"),
        "model.cloudlet_power.self_s": (self_s["model.cloudlet_power"], "s"),
        "solver.build_instance.calls":
            (stats["solver.build_instance"][0], "count"),
        "solver.build_instance.self_s": (self_s["solver.build_instance"], "s"),
        "solver.solve.calls": (calls, "count"),
        "solver.solve.self_s": (self_s["solver.solve"], "s"),
        "solver.solve.nodes": (fp["nodes"], "count"),
        "solver.solve.nodes_max": (fp["nodes_max"], "count"),
        "solver.solve.unproven": (fp["unproven"], "count"),
        "solver.solve.improved": (fp["improved"], "count"),
        "solver.solve.useful_ratio":
            (fp["improved"] / calls if calls else 0.0, "ratio"),
        "strategy.far_assign.self_s": (self_s["strategy.far_assign"], "s"),
        "strategy.far_assign.in_gear_s":
            (self_s["strategy.far_assign.in_gear"], "s"),
        "strategy.gear_assign.self_s": (self_s["strategy.gear_assign"], "s"),
        "strategy.gear.warm_prev": (fp["warm_prev"], "count"),
        "strategy.gear.warm_far": (fp["warm_far"], "count"),
        "engine.run.self_s": (self_s["engine.run"], "s"),
        "engine.compute_slot_metrics.self_s":
            (self_s["engine.compute_slot_metrics"], "s"),
        "engine.gear_exact_regress_slots": (fp["exact_regress_slots"], "count"),
        "cli.self_s": (self_s["cli.main"] + self_s["cli.emit"], "s"),
        "cli.sweep.points": (fp["sweep_points"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    _import_program()
    from instrument import Recorder
    from workloads import WORKLOADS, sla_ms

    workload = WORKLOADS[name]
    sla = sla_ms(workload)
    setup = [] if trace else _setup_times(name, seed)

    warm = OUT / f"warmup-{name}"
    warm.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    execute = workload.prepare(seed, out)

    # Untimed warm-up: two slots of the same workload through the same hooks.
    with Recorder(trace):
        workload.prepare(seed, warm, 2)()

    start = time.perf_counter()
    if trace:
        with Recorder(False) as rec:
            plain = _one_pass(workload, execute, out, rec, sla)
        with Recorder(True) as rec:
            passes = _passes(workload, execute, out, rec, sla, seconds, 1,
                             start)
            spans = rec.spans()
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        checked = [plain] + passes
    else:
        with Recorder(False) as rec:
            passes = _passes(workload, execute, out, rec, sla, seconds,
                             MIN_PASSES, start)
        checked = passes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p["check"].attempted for p in checked)
    failed = sum(p["check"].failed for p in checked)
    problems = [m for p in checked for m in p["check"].problems]
    prints = [p["fingerprint"] for p in checked]
    if any(f != prints[0] for f in prints):
        problems.append("deterministic counters or output digests differ "
                        "between passes of the same seed"
                        + (" (traced vs untraced)" if trace else ""))
    fp = prints[0]
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(passes), "sla_ms": sla,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio",
                       "failed": failed, "attempted": attempted},
        "gear_exact_regress_slots": {"value": fp["exact_regress_slots"],
                                     "unit": "count"},
        "evidence": {k: fp[k] for k in fp if k != "digests"},
        "digests": fp["digests"],
        "problems": problems[:20],
    }
    walls = [p["wall_s"] for p in passes]
    if trace:
        overhead = statistics.median(walls) - plain["wall_s"]
        report["traced_wall_s"] = walls
        report["untraced_wall_s"] = plain["wall_s"]
        metrics = _layer_metrics(passes, overhead)
    else:
        # One sample per GEAR decision: its median over the passes, which
        # repeat the same decisions in the same order.
        decide = [statistics.median(d)
                  for d in zip(*(p["decide_ms"] for p in passes))]
        pct, tail = _tail(decide) if decide else (0.0, 0.0)
        savings = (100.0 * (fp["far_wh"] - fp["gear_wh"]) / fp["far_wh"]
                   if fp["far_wh"] else 0.0)   # 0 only when every pair failed
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "gear_decide_ms_p50": {"value": statistics.median(decide or [0.0]),
                                   "unit": "ms"},
            "gear_decide_ms_tail": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "gear_savings_pct": {"value": savings, "unit": "%"},
        }
        report.update({"setup_s_samples": setup, "wall_s_samples": walls,
                       "gear_decide_samples": len(decide),
                       "gear_decide_ms_tail_percentile": pct})
    report["metrics"] = metrics
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def _print_report(result: dict) -> None:
    rep = result["report"]
    print(f"== {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}  "
          f"passes {rep['passes']}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "gear_decide_ms_tail":
            extra = (f"  (p{rep['gear_decide_ms_tail_percentile']}, "
                     f"n={rep['gear_decide_samples']})")
        elif name == "gear_decide_ms_p50":
            extra = f"  (n={rep['gear_decide_samples']})"
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}{extra}")
    fr = rep["fail_ratio"]
    print(f"  {'fail_ratio':38s} {fr['value']:>14.6g} ratio  "
          f"({fr['failed']} failed of {fr['attempted']} strategy runs)")
    print(f"  {'gear_exact_regress_slots':38s} "
          f"{rep['gear_exact_regress_slots']['value']:>14d} count")
    for name, digest in rep["digests"].items():
        print(f"  sha256 {name:31s} {digest}")
    for problem in rep["problems"]:
        print(f"  PROBLEM {problem}")


# -- all workloads --------------------------------------------------------

def _machine(with_git: bool) -> dict:
    cpu = None
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    sha = None
    if with_git:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "git_sha": sha}


def _run_all(seed: int, seconds: int, record: str | None) -> dict:
    from workloads import WORKLOADS

    reports, total = [], {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"perfbench: {name} trace {trace} failed")
            print("\n".join(lines[:-2]), flush=True)
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            reports.append(report)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                total["metrics"][f"{name}/{k}"] = v
    if record:
        Path(record).write_text(json.dumps(
            {"machine": _machine(True), "seed": seed, "seconds": seconds,
             "runs": reports}, indent=1) + "\n", encoding="utf-8")
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write all reports to this file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
    if not (SRC / "gcnsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gcnsim package under {SRC}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        result = _run_all(args.seed, args.seconds, args.record)
    elif args.workload in WORKLOADS:
        result = _measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        _print_report(result)
        print(json.dumps(result.pop("report")))
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
