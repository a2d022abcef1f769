"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them all). Criteria cover solver exactness against the exhaustive oracle,
bound admissibility, the even-split sanity instance, strategy dominance
and zero-green equivalence over a full simulated day, energy conservation,
both parameter sweeps, the delay SLA, and byte-level reproducibility of
the command-line outputs."""

import random
import time

import pytest

from gcnsim import (
    MilpInstance,
    ScenarioConfig,
    SolarTrace,
    SolverConfig,
    aggregate_bound,
    brute_force,
    solve,
)
from gcnsim.cli import main
from gcnsim.solver import Infeasible, _SCALE, _to_units
from gcnsim.engine import run

DAY_CONFIG = ScenarioConfig()          # 4x4 grid, 200 UEs, 96 slots, seed 1
DAY_SOLVER = SolverConfig(node_limit=100_000, gap_tolerance=0.0)
UE_VALUES = tuple(range(50, 401, 50))
KAPPA_VALUES = (0.0, 0.1, 0.2, 0.3)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_solvable_instances(count: int):
    """Seeded random instances with a known exhaustive optimum.

    Returns (cases, oracle_seconds) so the exactness criterion can charge
    the oracle time against its runtime budget.
    """
    from conftest import random_instance

    rng = random.Random(1234)
    out = []
    start = time.perf_counter()
    while len(out) < count:
        inst = random_instance(rng)
        try:
            reference = brute_force(inst)
        except Infeasible:
            continue
        out.append((inst, reference))
    return out, time.perf_counter() - start


def _perfect_absorption_instances(count: int):
    """Complete feasible sets, loose capacity, and green placed so the
    optimum uses every green watt; the aggregate root bound is then tight."""
    rng = random.Random(5678)
    out = []
    for _ in range(count):
        n = rng.randint(2, 8)
        m = rng.randint(1, 3)
        weights = tuple(rng.uniform(5.0, 25.0) for _ in range(n))
        groups = [rng.randrange(m) for _ in range(n)]
        unit_loads = [0] * m
        for k, g in enumerate(groups):
            unit_loads[g] += _to_units(weights[k])
        # green never exceeds the load that lands on the cloudlet
        deltas = [rng.choice([0, _to_units(rng.uniform(0.0, 3.0))])
                  for _ in range(m)]
        green = tuple(max(0, unit_loads[i] - deltas[i]) / _SCALE
                      for i in range(m))
        out.append(MilpInstance(
            weights=weights,
            feasible_sets=tuple(frozenset(range(m)) for _ in range(n)),
            green_power=green,
            count_capacity=tuple([n] * m)))
    return out


@pytest.fixture(scope="module")
def solver_cases():
    return _random_solvable_instances(200)


@pytest.fixture(scope="module")
def day_pair(bell_trace):
    far = run(DAY_CONFIG, "far", bell_trace, DAY_SOLVER)
    gear = run(DAY_CONFIG, "gear", bell_trace, DAY_SOLVER)
    return far, gear


@pytest.fixture(scope="module")
def dark_pair():
    trace = SolarTrace(tuple([0.0] * 24))
    far = run(DAY_CONFIG, "far", trace, DAY_SOLVER)
    gear = run(DAY_CONFIG, "gear", trace, DAY_SOLVER)
    return far, gear


@pytest.fixture(scope="module")
def ue_sweep(bell_trace):
    points = {}
    for n in UE_VALUES:
        cfg = ScenarioConfig(ue_count=n)
        points[n] = (run(cfg, "far", bell_trace, DAY_SOLVER),
                     run(cfg, "gear", bell_trace, DAY_SOLVER))
    return points


@pytest.fixture(scope="module")
def kappa_sweep(bell_trace):
    points = {}
    for k in KAPPA_VALUES:
        cfg = ScenarioConfig(kappa=k)
        points[k] = (run(cfg, "far", bell_trace, DAY_SOLVER),
                     run(cfg, "gear", bell_trace, DAY_SOLVER))
    return points


def _all_accepted_runs(day_pair, dark_pair, ue_sweep, kappa_sweep):
    for pair in [day_pair, dark_pair, *ue_sweep.values(), *kappa_sweep.values()]:
        yield from pair


def test_criterion_01_solver_exactness(solver_cases):
    cases, oracle_seconds = solver_cases
    start = time.perf_counter()
    mismatches = 0
    proven = 0
    for inst, reference in cases:
        sol = solve(inst)
        if sol.proven_optimal:
            proven += 1
            if sol.objective != reference.objective:
                mismatches += 1
    elapsed = time.perf_counter() - start + oracle_seconds
    ok = mismatches == 0 and proven == len(cases) and elapsed < 30.0
    _report(1, ok, f"{proven}/200 proven optimal, {mismatches} mismatches "
                   f"vs exhaustive oracle, {elapsed:.1f}s incl. oracle (< 30s)")


def test_criterion_02_bound_admissibility(solver_cases):
    cases, _ = solver_cases
    violations = sum(
        1 for inst, reference in cases
        if aggregate_bound(inst, {})
        > reference.objective
    )
    tight = _perfect_absorption_instances(40)
    inequalities = sum(
        1 for inst in tight
        if aggregate_bound(inst, {})
        != brute_force(inst).objective
    )
    ok = violations == 0 and inequalities == 0
    _report(2, ok, f"{violations} admissibility violations on 200 random "
                   f"instances; {inequalities}/40 tight cases missed equality")


def test_criterion_03_even_split_instance():
    inst = MilpInstance(weights=(3.0, 3.0, 4.0, 4.0),
                        feasible_sets=tuple(frozenset({0, 1}) for _ in range(4)),
                        green_power=(7.0, 7.0), count_capacity=(4, 4))
    sol = solve(inst)
    ok = sol.objective == 0.0 and sol.proven_optimal
    _report(3, ok, f"weights (3,3,4,4) against green (7,7) solve to "
                   f"{sol.objective} (want exactly 0)")


def test_criterion_04_per_slot_dominance(day_pair):
    far, gear = day_pair
    exceptions = sum(1 for fs, gs in zip(far.slots, gear.slots)
                     if gs.ongrid_approx_wh > fs.ongrid_approx_wh)
    saved = far.total_ongrid_approx_wh - gear.total_ongrid_approx_wh
    ok = exceptions == 0 and saved > 0.0
    _report(4, ok, f"{exceptions} slot exceptions; daily savings "
                   f"{saved:.3f} Wh ({100 * saved / far.total_ongrid_approx_wh:.2f}%)")


def test_criterion_05_zero_green_equality(day_pair, dark_pair):
    dark_far, dark_gear = dark_pair
    totals_equal = (dark_far.total_ongrid_approx_wh
                    == dark_gear.total_ongrid_approx_wh)
    far, gear = day_pair
    bad_dark_slots = sum(
        1 for fs, gs in zip(far.slots, gear.slots)
        if sum(fs.green) == 0.0
        and fs.ongrid_approx_wh - gs.ongrid_approx_wh != 0.0
    )
    ok = totals_equal and bad_dark_slots == 0
    _report(5, ok, f"all-dark totals bit-equal: {totals_equal}; "
                   f"{bad_dark_slots} sunny-day dark slots with nonzero savings")


def test_criterion_06_conservation(day_pair, dark_pair, ue_sweep, kappa_sweep):
    worst = 0.0
    violations = 0
    for result in _all_accepted_runs(day_pair, dark_pair, ue_sweep, kappa_sweep):
        for s in result.slots:
            floor = 0.25 * max(0.0, sum(s.power_approx) - sum(s.green))
            short = floor - s.ongrid_approx_wh
            worst = max(worst, short)
            if short > 1e-6:
                violations += 1
    ok = violations == 0
    _report(6, ok, f"{violations} slots below the aggregate energy floor "
                   f"(worst shortfall {worst:.2e} Wh, tolerance 1e-6)")


def test_criterion_07_ue_sweep_saturation(ue_sweep):
    savings = []
    saturated = []
    for n in UE_VALUES:
        far, gear = ue_sweep[n]
        savings.append(far.total_ongrid_approx_wh - gear.total_ongrid_approx_wh)
        saturated.append(all(sum(s.power_approx) > sum(s.green)
                             for s in far.slots if sum(s.green) > 0.0))
    first_saturated = next((i for i, s in enumerate(saturated) if s),
                           len(UE_VALUES))
    prefix = savings[:first_saturated]
    rising = all(a <= b for a, b in zip(prefix, prefix[1:]))
    tail = savings[first_saturated:]
    peak = max(savings)
    static_tail = (max(tail) - min(tail) < 0.05 * peak) if tail else True
    ok = rising and static_tail
    _report(7, ok, f"savings {['%.0f' % s for s in savings]} Wh; "
                   f"monotone before saturation: {rising}; saturation at "
                   f"{'none' if first_saturated == len(UE_VALUES) else UE_VALUES[first_saturated]}; "
                   f"tail static: {static_tail}")


def test_criterion_08_kappa_sweep_monotonicity(kappa_sweep):
    far_approx, far_exact, save_approx, save_exact = [], [], [], []
    for k in KAPPA_VALUES:
        far, gear = kappa_sweep[k]
        far_approx.append(far.total_ongrid_approx_wh)
        far_exact.append(far.total_ongrid_exact_wh)
        save_approx.append(far.total_ongrid_approx_wh
                           - gear.total_ongrid_approx_wh)
        save_exact.append(far.total_ongrid_exact_wh
                          - gear.total_ongrid_exact_wh)

    def nondecreasing(xs, slack=0.0):
        return all(b >= a - slack * abs(a) for a, b in zip(xs, xs[1:]))

    ok = (nondecreasing(far_approx) and nondecreasing(save_approx)
          and nondecreasing(far_exact, slack=0.01)
          and nondecreasing(save_exact, slack=0.01))
    _report(8, ok, f"far approx {['%.0f' % v for v in far_approx]}; "
                   f"savings approx {['%.0f' % v for v in save_approx]}; "
                   f"exact within 1% slack: "
                   f"{nondecreasing(far_exact, 0.01) and nondecreasing(save_exact, 0.01)}")


def test_criterion_09_sla_clean(day_pair, dark_pair, ue_sweep, kappa_sweep):
    violations = 0
    worst_delay = 0.0
    for result in _all_accepted_runs(day_pair, dark_pair, ue_sweep, kappa_sweep):
        for s in result.slots:
            violations += s.sla_violations
            worst_delay = max(worst_delay, s.max_delay_ms)
    ok = violations == 0 and worst_delay <= 10.0
    _report(9, ok, f"{violations} SLA violations across all accepted runs; "
                   f"worst delay {worst_delay:.3f} ms (bound 10 ms)")


def test_criterion_10_reproducible_day(tmp_path):
    start = time.perf_counter()
    codes = [main(["run", "--strategy", "both", "--node-limit", "100000",
                   "--out", str(tmp_path / sub)]) for sub in ("first", "second")]
    elapsed = time.perf_counter() - start
    slots_equal = ((tmp_path / "first/slots.csv").read_bytes()
                   == (tmp_path / "second/slots.csv").read_bytes())
    summary_equal = ((tmp_path / "first/summary.csv").read_bytes()
                     == (tmp_path / "second/summary.csv").read_bytes())
    ok = codes == [0, 0] and slots_equal and summary_equal and elapsed < 300.0
    _report(10, ok, f"two executions byte-identical: "
                    f"{slots_equal and summary_equal}; both days in "
                    f"{elapsed:.1f}s (< 300s)")
