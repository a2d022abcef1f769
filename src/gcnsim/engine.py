"""Slot-by-slot simulation of one day in the cloudlet network.

A day has two parts. The world (`World`) is everything no strategy can
influence: the topology, each UE's movement and eNB, and each avatar's
CPU demand per slot. It consumes one RNG stream in a fixed order and
never depends on a placement decision, so it is drawn once and replayed:
`run` with the same `World` gives FAR, GEAR and every kappa point the
identical world (common random numbers by construction). The world is
drawn lazily, one slot at a time as the first run reaches it, by one
columnar kernel call per slot (`scenario.step_mobility`), and recorded
compactly; every draw for a UE reads the stream's `random()` alone. A
run given no `World` replays the last world such a run drew in full, if
its config matches (up to `kappa`), and draws a fresh one otherwise;
that one remembered world is the module's only state.

The world also keeps, for one delay model at a time, each slot's record
of FAR's placement: a `Tally` holding the placement and its
per-cloudlet tally, neither of which depends on kappa. Each part is worked
out by the first run that reads it, inside that run's own decision or
accounting, and every later run on the world reads it: FAR's decision,
GEAR's warm start and the accounting of a slot placed as FAR places it.
So FAR then GEAR, or every point of a kappa sweep, runs FAR's greedy once
per slot.

A strategy pass (`run`) reads the world slot by slot. Before the first
slot it tabulates what no slot changes (`run_tables`: reach, capacities,
delays) and parks every avatar with FAR's nearest-with-room greedy
(`far_placement`), so both strategies start from the same placement. Each
slot it takes the world's recorded CPU and eNB arrays as they are and
the slot's record, computes each cloudlet's green supply, hands the
resulting columnar state to the chosen strategy, and accounts energy
from the tally the strategy hands over with its placement, under both
forms of the one server power model, `default_power_params()`: exact
server-counting and the linearized per-avatar form the optimizer uses,
so the cost of the linearization stays visible in the output. The
accounting also counts the slot's migrations against the previous
placement; strategies only place.

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
    Assignment,
    DelayParams,
    avatar_weights,
    cloudlet_power_exact,
    default_delay_params,
    default_power_params,
    fold_loads,
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
from .solver import Infeasible, SolverConfig, fixed_point
from .strategy import (
    SlotState,
    StrategyOutcome,
    Tally,
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
    `random.Random(config.rng_seed)` and nothing else; every draw for a UE
    reads its `random()` alone. `columns(t)` draws slot t when it is the
    next undrawn slot, with one `step_mobility` call over every UE's
    columns, and records the kernel's arrays as they are; a recorded slot
    is read from the record. The record keeps one CPU float and one eNB
    index (one byte on grids of up to 256 sites) per avatar and slot,
    unchecked: `run` checks each slot's figures when it builds the slot's
    `SlotState` from them. Each slot moves the UEs for `SLOT_HOURS`. The
    world serves every config that differs from its own only in `kappa`,
    which touches green supply alone.

    `far_records` keeps one `Tally` per slot, its record of FAR's
    placement, for one delay model at a time: the placement as an
    array of one byte per avatar on grids of up to 256 sites, and a few
    numbers per cloudlet for its counts and tally. It holds no
    `Assignment`, no placement map and nothing that depends on kappa. Runs
    fill the records as they read them; each fill is one store of a value
    that depends only on the slot and the parameters, so it is idempotent,
    and a fully drawn world may still be shared by threads. `run` keeps the
    last world it drew for itself in the module, its one side effect.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._rng: random.Random | None = random.Random(config.rng_seed)
        self.topo, self.specs = init_topology(config, self._rng)
        self._ues = init_ues(config, self._rng)
        self.initial_enbs = tuple(enb_indices(self._ues.x, self._ues.y,
                                              config.grid_dim,
                                              config.area_side))
        self._cpu: list[array] = []
        self._enb: list[array] = []
        # the delay model and one FAR record per slot for runs with it
        self._far: tuple = (None, [])

    def matches(self, config: ScenarioConfig) -> bool:
        """True if this world is the one `config` draws."""
        return replace(config, kappa=self.config.kappa) == self.config

    def columns(self, t: int) -> tuple[array, array]:
        """Slot t's recorded (CPU, eNB) arrays, indexed by avatar id 0..n-1
        as `init_ues` numbers them. Callers must not modify them."""
        if t == len(self._cpu) < self.config.slot_count:
            self._draw_next()
        if not 0 <= t < len(self._cpu):
            raise IndexError(f"slot {t} is neither recorded nor next "
                             f"({len(self._cpu)} of {self.config.slot_count} "
                             "drawn)")
        return self._cpu[t], self._enb[t]

    def far_records(self, delay: DelayParams) -> list[Tally]:
        """One record of FAR's placement (`Tally`) per slot, for runs with
        this `delay`: the records of the last such call, or new empty ones
        if that call had another delay model, which this one drops."""
        key, records = self._far
        if key != delay:
            records = [Tally() for _ in range(self.config.slot_count)]
            self._far = (delay, records)  # one store: thread-safe
        return records

    def _draw_next(self) -> None:
        cpu, enbs = step_mobility(self._ues, self.config, self._rng)
        self._cpu.append(cpu)
        self._enb.append(enbs)
        if len(self._cpu) == self.config.slot_count:
            self._ues = self._rng = None  # fully drawn; only the record is read


# The last world a `run` without one drew, kept once that run completed.
_last_world: World | None = None


def _count_migrations(place: Sequence[int], prev: Assignment,
                      ids: Sequence[int]) -> int:
    """Avatars of `ids` whose cloudlet in `place` differs from `prev`'s;
    one that `prev` does not place counts as moved."""
    try:
        before = prev.cloudlets(ids)
    except KeyError:
        before = map(prev.placement.get, ids)
    return sum(map(ne, place, before))


def _exact_tally(place: Sequence[int], state: SlotState
                 ) -> tuple[tuple[float, ...], float, int]:
    """A placement's exact power per cloudlet, from `sum()` of its hosted
    CPU figures in ascending avatar id, its maximum delay and its SLA
    violations."""
    power, table = state.power, state.tables.delay_ms
    hosted: list[list[float]] = [[] for _ in table]
    for i, u in zip(place, state.cpu):
        hosted[i].append(u)
    delays = [table[i][e] for i, e in zip(place, state.enb)]
    worst, sla = max(delays, default=0.0), state.delay.sla_max_delay
    return (tuple(cloudlet_power_exact(c, power) for c in hosted), worst,
            sum(1 for d in delays if d > sla) if worst > sla else 0)


def compute_slot_metrics(slot: int, state: SlotState,
                         outcome: StrategyOutcome) -> SlotMetrics:
    """Account one slot's assignment under both power models, and count
    the avatars it moves from the state's previous placement.

    The per-cloudlet figures are read from the tally the strategy handed
    over (`StrategyOutcome.tally`), which must be the assignment's own:
    each part it lacks is worked out here and stored in it. An outcome
    without a tally gets a new one, kept nowhere. Green supply, on-grid
    energy and migrations are worked out on every call."""
    place = outcome.assignment.cloudlets(state.ids)
    tally = outcome.tally or Tally()
    if tally.loads is None:
        weights = avatar_weights(state.cpu, state.power)
        tally.loads = fold_loads(place, weights, fixed_point(weights),
                                 len(state.specs))
    if tally.exact is None:
        tally.exact = _exact_tally(place, state)
    power_approx = tally.loads[0]
    power_exact, max_delay, violations = tally.exact
    green = state.green_power
    return SlotMetrics(
        slot=slot,
        power_exact=power_exact,
        power_approx=power_approx,
        green=tuple(green),
        ongrid_exact_wh=sum(map(ongrid_energy, power_exact, green)),
        ongrid_approx_wh=sum(map(ongrid_energy, power_approx, green)),
        migrations=_count_migrations(place, state.prev_assignment, state.ids),
        max_delay_ms=max_delay,
        sla_violations=violations,
    )


def run(config: ScenarioConfig, strategy: str, trace: SolarTrace,
        solver_config: SolverConfig | None = None,
        delay: DelayParams | None = None,
        world: World | None = None) -> RunResult:
    """Simulate one day of `config.slot_count` slots, each `SLOT_HOURS`
    long, under the given strategy, with the server power model
    `default_power_params()` and `delay` (default
    `default_delay_params()`).

    `world` is the day's drawn world; runs given the same `World` replay
    its record instead of drawing the world again. It must have been made
    for `config` (up to `kappa`), else ValueError. Without one the run
    uses the world `config.rng_seed` draws, which is the same world: the
    module remembers the last world such a run drew, once that run has
    returned, and replays it to the next run without a `World` whose config
    it matches, so FAR then GEAR, or a kappa sweep, draws it once. A run of
    another config forgets it before drawing its own, and a run that raises
    leaves nothing remembered. A run given a `World` neither reads nor
    replaces the remembered one.

    Every slot reads and fills the world's record of FAR's placement for
    the run's `delay` (`World.far_records`), so runs on one world run
    FAR's greedy and tally its placement once per slot; a run with another
    delay model drops the world's records and starts new ones. The
    results are those of runs on fresh worlds, whatever the order of the
    runs.

    Raises Infeasible, tagged "initial placement" if the greedy finds no
    room for some avatar before the first slot, or tagged with the slot
    index if the strategy cannot place every avatar in some slot. FAR fails
    whenever its greedy does; GEAR only when its solver finds no placement.
    Raises ValueError, naming the avatar, if the world draws a CPU figure
    outside [0, 100] (`SlotState`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    delay = delay or default_delay_params()
    solver_config = solver_config or SolverConfig()
    global _last_world
    private = world is None
    if private:
        world = _last_world
        if world is None or not world.matches(config):
            _last_world = None  # never hold two worlds at once
            world = World(config)
    elif not world.matches(config):
        raise ValueError("the world was drawn for another config")

    tables = run_tables(world.topo, world.specs, default_power_params(),
                        delay)
    ids = range(len(world.initial_enbs))
    try:
        # Called directly rather than through far_assign: the initial
        # placement is not a slot decision of either strategy.
        assignment = Assignment(ids, far_placement(ids, world.initial_enbs,
                                                   tables)[0])
    except Infeasible as exc:
        raise Infeasible(f"initial placement: {exc}") from exc
    records = world.far_records(delay)

    slots: list[SlotMetrics] = []
    for t in range(config.slot_count):
        cpu, enbs = world.columns(t)
        green = tuple(green_power(trace, t, spec, config.kappa)
                      for spec in tables.specs)
        state = SlotState(ids, cpu, enbs, green, assignment, tables,
                          records[t])
        try:
            if strategy == "gear":
                outcome = gear_assign(state, solver_config)
            else:
                outcome = far_assign(state)
        except Infeasible as exc:
            raise Infeasible(f"slot {t}: {exc}") from exc
        slots.append(compute_slot_metrics(t, state, outcome))
        assignment = outcome.assignment
    if private:
        _last_world = world  # every slot drawn: complete and read-only

    return RunResult(
        strategy=strategy,
        seed=config.rng_seed,
        config=config,
        slots=tuple(slots),
        total_ongrid_exact_wh=sum(s.ongrid_exact_wh for s in slots),
        total_ongrid_approx_wh=sum(s.ongrid_approx_wh for s in slots),
        total_migrations=sum(s.migrations for s in slots),
    )
