"""Slot-by-slot simulation of one day in the cloudlet network.

Before the first slot the engine scatters the UEs and parks every avatar
with FAR's nearest-with-room greedy (`far_placement`), so both strategies
start from the same placement. Each slot the engine then advances every
UE, samples its avatar's CPU for the coming slot, computes each cloudlet's
green supply, hands the resulting state to the chosen strategy, and
accounts energy under both power models (exact server-counting and the
linearized per-avatar form the optimizer uses), so the cost of the
linearization stays visible in the output.

Strategies see the exact next-slot loads and green supply rather than
forecasts. This is deliberate: it isolates the quality of the migration
decision from the quality of any predictor, and it is the one place this
simulator is kinder than a deployment would be.

World evolution consumes the run's single RNG stream in a fixed order and
never depends on the strategy's decisions, so runs with the same seed and
different strategies compare against the identical world (common random
numbers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    AvatarLoad,
    DelayParams,
    PowerParams,
    assignment_loads,
    cloudlet_power_approx,
    cloudlet_power_exact,
    default_delay_params,
    default_power_params,
    ongrid_energy,
    propagation_delay,
)
from .scenario import (
    ScenarioConfig,
    SolarTrace,
    UEState,
    enb_of,
    green_power,
    init_topology,
    init_ues,
    sample_utilization,
    step_mobility,
)
from .solver import Infeasible, SolverConfig
from .strategy import (
    SlotState,
    StrategyOutcome,
    far_assign,
    far_placement,
    gear_assign,
)

STRATEGIES = ("far", "gear")


@dataclass(frozen=True)
class SlotMetrics:
    """Energy and delay accounting for one slot."""

    slot: int
    power_exact: tuple[float, ...]
    power_approx: tuple[float, ...]
    green: tuple[float, ...]
    ongrid_exact_wh: float
    ongrid_approx_wh: float
    migrations: int
    max_delay_ms: float
    sla_violations: int


@dataclass(frozen=True)
class RunResult:
    """One simulated day: per-slot metrics plus daily totals."""

    strategy: str
    seed: int
    config: ScenarioConfig
    slots: tuple[SlotMetrics, ...]
    total_ongrid_exact_wh: float
    total_ongrid_approx_wh: float
    total_migrations: int


def compute_slot_metrics(slot: int, state: SlotState,
                         outcome: StrategyOutcome) -> SlotMetrics:
    """Account one slot's assignment under both power models."""
    n_cloudlets = len(state.specs)
    power, delay = state.power, state.delay
    groups = assignment_loads(state.loads, outcome.assignment, n_cloudlets)
    power_exact = tuple(cloudlet_power_exact(g, power) for g in groups)
    power_approx = tuple(cloudlet_power_approx(g, power) for g in groups)
    ongrid_exact = sum(
        ongrid_energy(p, g, delay.slot_length)
        for p, g in zip(power_exact, state.green_power)
    )
    ongrid_approx = sum(
        ongrid_energy(p, g, delay.slot_length)
        for p, g in zip(power_approx, state.green_power)
    )
    delays = [
        propagation_delay(outcome.assignment.placement[a.avatar_id],
                          a.attached_enb, state.topo, delay)
        for a in state.loads
    ]
    return SlotMetrics(
        slot=slot,
        power_exact=power_exact,
        power_approx=power_approx,
        green=tuple(state.green_power),
        ongrid_exact_wh=ongrid_exact,
        ongrid_approx_wh=ongrid_approx,
        migrations=outcome.migrations,
        max_delay_ms=max(delays, default=0.0),
        sla_violations=sum(1 for d in delays if d > delay.sla_max_delay),
    )


def run(config: ScenarioConfig, strategy: str, trace: SolarTrace,
        solver_config: SolverConfig | None = None,
        power: PowerParams | None = None,
        delay: DelayParams | None = None) -> RunResult:
    """Simulate one full day under the given strategy.

    Raises Infeasible, tagged "initial placement" if the greedy finds no
    room for some avatar before the first slot, or tagged with the slot
    index if the strategy cannot place every avatar in some slot. FAR fails
    whenever its greedy does; GEAR only when its solver finds no placement.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    power = power or default_power_params(kernel_cpu=config.kernel_cpu)
    delay = delay or default_delay_params()
    solver_config = solver_config or SolverConfig()

    rng = random.Random(config.rng_seed)
    topo, specs = init_topology(config, rng)
    ues = init_ues(config, topo, rng)
    try:
        # Called directly rather than through far_assign: the initial
        # placement is not a slot decision of either strategy.
        assignment = far_placement(
            [(ue.avatar_id, enb_of(ue.position, topo)) for ue in ues],
            topo, specs, power, delay)
    except Infeasible as exc:
        raise Infeasible(f"initial placement: {exc}") from exc

    slot_seconds = delay.slot_length * 3600.0
    slots: list[SlotMetrics] = []
    for t in range(config.slot_count):
        loads: list[AvatarLoad] = []
        next_ues: list[UEState] = []
        for ue in ues:  # ascending avatar id; draw order is part of the contract
            moved = step_mobility(ue, slot_seconds, config, rng)
            cpu = sample_utilization(config, rng)
            next_ues.append(moved)
            loads.append(AvatarLoad(avatar_id=moved.avatar_id, total_cpu=cpu,
                                    attached_enb=enb_of(moved.position, topo)))
        ues = next_ues
        green = tuple(
            green_power(trace, t, spec, config.kappa, delay.slot_length)
            for spec in specs
        )
        state = SlotState(loads=tuple(loads), green_power=green,
                          prev_assignment=assignment, topo=topo, specs=specs,
                          power=power, delay=delay)
        try:
            if strategy == "gear":
                outcome = gear_assign(state, solver_config)
            else:
                outcome = far_assign(state)
        except Infeasible as exc:
            raise Infeasible(f"slot {t}: {exc}") from exc
        slots.append(compute_slot_metrics(t, state, outcome))
        assignment = outcome.assignment

    return RunResult(
        strategy=strategy,
        seed=config.rng_seed,
        config=config,
        slots=tuple(slots),
        total_ongrid_exact_wh=sum(s.ongrid_exact_wh for s in slots),
        total_ongrid_approx_wh=sum(s.ongrid_approx_wh for s in slots),
        total_migrations=sum(s.migrations for s in slots),
    )
