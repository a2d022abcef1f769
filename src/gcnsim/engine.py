"""Slot-by-slot simulation of one day in the cloudlet network.

A day has two parts. The world (`World`) is everything no strategy can
influence: the topology, each UE's movement and eNB, and each avatar's CPU
demand per slot. It consumes one RNG stream in a fixed order and never
depends on a placement decision, so it is drawn once and replayed: `run`
with the same `World` gives FAR, GEAR and every kappa point the identical
world (common random numbers by construction). The world is drawn lazily,
one slot at a time as the first run reaches it, by one columnar kernel
call per slot (`scenario.step_mobility`), and recorded compactly. The
kernel draws each waypoint as one inline Box-Muller pair, exact because
waypoints always take their `gauss` deviates in pairs; a stream with a
deviate pending, or whose class overrides `gauss`, is drawn through
`gauss`. A world that `run` draws for itself is read once, in order, and
keeps only the slot being read.

A strategy pass (`run`) reads the world slot by slot. Before the first
slot it tabulates what no slot changes (`run_tables`: reach, capacities,
delays) and parks every avatar with FAR's nearest-with-room greedy
(`far_placement`), so both strategies start from the same placement. Each
slot it takes the world's recorded CPU and eNB arrays as they are,
computes each cloudlet's green supply, hands the resulting columnar state
to the chosen strategy, and accounts energy under
both power models (exact server-counting and the linearized per-avatar
form the optimizer uses), so the cost of the linearization stays visible
in the output. The accounting also counts the slot's migrations against
the previous placement; strategies only place.

Strategies see the exact next-slot loads and green supply rather than
forecasts. This is deliberate: it isolates the quality of the migration
decision from the quality of any predictor, and it is the one place this
simulator is kinder than a deployment would be.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import ne

from .model import (
    SLOT_HOURS,
    Assignment,
    DelayParams,
    PowerParams,
    avatar_weights,
    cloudlet_power_exact,
    default_delay_params,
    default_power_params,
    ongrid_energy,
    run_tables,
)
from .scenario import (
    ScenarioConfig,
    SolarTrace,
    enb_indices,
    green_power,
    init_topology,
    init_ues,
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


class World:
    """The strategy-independent part of one day, drawn once and replayed.

    Construction draws the topology and the initial UEs from
    `random.Random(config.rng_seed)` and nothing else. `columns(t)` draws
    slot t when it is the next undrawn slot, with one `step_mobility` call
    over every UE's columns, and records the kernel's arrays as they are;
    a recorded slot is read from the record. The record keeps one CPU float
    and one eNB index (one byte on grids of up to 256 sites) per avatar
    and slot, unchecked: `run` checks each slot's figures when it builds
    the slot's `SlotState` from them. Each slot moves the UEs for
    `SLOT_HOURS`. The world serves every config that differs from its own
    only in `kappa`, which touches green supply alone.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._rng: random.Random | None = random.Random(config.rng_seed)
        self.topo, self.specs = init_topology(config, self._rng)
        self._ues = init_ues(config, self.topo, self._rng)
        self.initial_enbs = tuple(enb_indices(self._ues.x, self._ues.y,
                                              config.grid_dim,
                                              config.area_side))
        self._cpu: list[array | None] = []
        self._enb: list[array | None] = []
        self._keep = True  # False: only the latest slot stays recorded

    def matches(self, config: ScenarioConfig) -> bool:
        """True if this world is the one `config` draws."""
        return replace(config, kappa=self.config.kappa) == self.config

    def columns(self, t: int) -> tuple[array, array]:
        """Slot t's recorded (CPU, eNB) arrays, indexed by avatar id 0..n-1
        as `init_ues` numbers them. Callers must not modify them."""
        if t == len(self._cpu) < self.config.slot_count:
            self._draw_next()
        cpu = self._cpu[t] if 0 <= t < len(self._cpu) else None
        if cpu is None:
            raise IndexError(f"slot {t} is neither recorded nor next "
                             f"({len(self._cpu)} of {self.config.slot_count} "
                             "drawn)")
        return cpu, self._enb[t]

    def _draw_next(self) -> None:
        cpu, enbs = step_mobility(self._ues, SLOT_HOURS * 3600.0,
                                  self.config, self._rng)
        if not self._keep and self._cpu:
            self._cpu[-1] = self._enb[-1] = None
        self._cpu.append(cpu)
        self._enb.append(enbs)
        if len(self._cpu) == self.config.slot_count:
            self._ues = self._rng = None  # fully drawn; only the record is read


def _count_migrations(place: Sequence[int], prev: Assignment,
                      ids: Sequence[int]) -> int:
    """Avatars of `ids` whose cloudlet in `place` differs from `prev`'s;
    one that `prev` does not place counts as moved."""
    try:
        before = prev.cloudlets(ids)
    except KeyError:
        before = map(prev.placement.get, ids)
    return sum(map(ne, place, before))


def compute_slot_metrics(slot: int, state: SlotState,
                         outcome: StrategyOutcome) -> SlotMetrics:
    """Account one slot's assignment under both power models, in one pass
    over the slot's columns in ascending avatar id, and count the avatars
    it moves from the state's previous placement."""
    power, delay, table = state.power, state.delay, state.tables.delay_ms
    n_cloudlets = len(table)
    cpus = state.cpu
    place = outcome.assignment.cloudlets(state.ids)
    hosted: list[list[float]] = [[] for _ in range(n_cloudlets)]
    approx = [0.0] * n_cloudlets
    # The weights GEAR's scorer adds, in the same order and left to right:
    # sum() of floats is compensated from Python 3.12 and would round
    # differently.
    for i, u, w in zip(place, cpus, avatar_weights(cpus, power)):
        hosted[i].append(u)
        approx[i] += w
    power_exact = tuple(cloudlet_power_exact(c, power) for c in hosted)
    power_approx = tuple(approx)
    ongrid_exact = sum(
        ongrid_energy(p, g) for p, g in zip(power_exact, state.green_power)
    )
    ongrid_approx = sum(
        ongrid_energy(p, g) for p, g in zip(power_approx, state.green_power)
    )
    delays = [table[i][e] for i, e in zip(place, state.enb)]
    return SlotMetrics(
        slot=slot,
        power_exact=power_exact,
        power_approx=power_approx,
        green=tuple(state.green_power),
        ongrid_exact_wh=ongrid_exact,
        ongrid_approx_wh=ongrid_approx,
        migrations=_count_migrations(place, state.prev_assignment, state.ids),
        max_delay_ms=max(delays, default=0.0),
        sla_violations=sum(1 for d in delays if d > delay.sla_max_delay),
    )


def run(config: ScenarioConfig, strategy: str, trace: SolarTrace,
        solver_config: SolverConfig | None = None,
        power: PowerParams | None = None,
        delay: DelayParams | None = None,
        world: World | None = None) -> RunResult:
    """Simulate one day of `config.slot_count` slots, each `SLOT_HOURS`
    long, under the given strategy.

    `world` is the day's drawn world; runs given the same `World` replay
    its record instead of drawing the world again. It must have been made
    for `config` (up to `kappa`), else ValueError. Without one the run
    draws a fresh world from `config.rng_seed`, which is the same world.

    Raises Infeasible, tagged "initial placement" if the greedy finds no
    room for some avatar before the first slot, or tagged with the slot
    index if the strategy cannot place every avatar in some slot. FAR fails
    whenever its greedy does; GEAR only when its solver finds no placement.
    Raises ValueError, naming the avatar, if the world draws a CPU figure
    outside [0, 100] (`SlotState`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    power = power or default_power_params()
    delay = delay or default_delay_params()
    solver_config = solver_config or SolverConfig()
    if world is None:
        world = World(config)
        world._keep = False  # read once, in order: no replay to record for
    elif not world.matches(config):
        raise ValueError("the world was drawn for another config")

    tables = run_tables(world.topo, world.specs, power, delay)
    try:
        # Called directly rather than through far_assign: the initial
        # placement is not a slot decision of either strategy.
        assignment = far_placement(range(len(world.initial_enbs)),
                                   world.initial_enbs, tables)
    except Infeasible as exc:
        raise Infeasible(f"initial placement: {exc}") from exc

    slots: list[SlotMetrics] = []
    for t in range(config.slot_count):
        cpu, enbs = world.columns(t)
        green = tuple(green_power(trace, t, spec, config.kappa)
                      for spec in tables.specs)
        state = SlotState(range(len(cpu)), cpu, enbs, green, assignment,
                          tables)
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
