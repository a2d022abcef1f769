import random

import pytest

from gcnsim import (
    Assignment,
    DelayParams,
    MilpInstance,
    PowerParams,
    ScenarioConfig,
    SiteTopology,
    SlotState,
    World,
    avatar_weights,
    build_instance,
    default_delay_params,
    default_power_params,
    init_topology,
    run_tables,
)
from gcnsim import engine
from gcnsim.cli import bundled_trace_path
from gcnsim.solver import _to_watts
from gcnsim.scenario import load_solar_trace


@pytest.fixture(autouse=True)
def forget_the_remembered_world():
    """Start every test with no world remembered by `engine.run`, so no
    test is served a world an earlier test drew, perhaps through a patched
    kernel."""
    engine._last_world = None


@pytest.fixture(scope="session")
def power() -> PowerParams:
    return default_power_params()


@pytest.fixture(scope="session")
def delay() -> DelayParams:
    return default_delay_params()


@pytest.fixture(scope="session")
def grid_topo():
    """Default 4x4 topology; capacity draws discarded (fixed seed)."""
    topo, _ = init_topology(ScenarioConfig(), random.Random(0))
    return topo


@pytest.fixture(scope="session")
def bell_trace():
    return load_solar_trace(bundled_trace_path())


@pytest.fixture(scope="session")
def gear_day_1000(bell_trace):
    """A GEAR-first day at 1000 UEs on a fresh `World` (seed 1): the world,
    the run's result and the `SlotState` of each GEAR decision, whose FAR
    records the run has filled."""
    cfg = ScenarioConfig(ue_count=1000)
    world, states = World(cfg), []
    gear = engine.gear_assign

    def capture(state, *args):
        states.append(state)
        return gear(state, *args)
    engine.gear_assign = capture
    try:
        result = engine.run(cfg, "gear", bell_trace, world=world)
    finally:
        engine.gear_assign = gear
    return world, result, states


def line_topology(spacing_km: float, count: int) -> SiteTopology:
    """Sites on a line, used to control distances exactly in solver tests."""
    positions = tuple((spacing_km * i, 0.0) for i in range(count))
    distances = tuple(
        tuple(abs(px - qx) for qx, _ in positions) for px, _ in positions
    )
    return SiteTopology(site_positions=positions, distances=distances)


def random_instance(rng: random.Random, max_avatars: int = 8,
                    max_cloudlets: int = 4) -> MilpInstance:
    """Small random placement instance with weights from the power model."""
    power = default_power_params()
    n = rng.randint(1, max_avatars)
    m = rng.randint(1, max_cloudlets)
    weights = tuple(avatar_weights([rng.uniform(10.0, 100.0)
                                    for _ in range(n)], power))
    fsets = []
    for _ in range(n):
        fs = {i for i in range(m) if rng.random() < 0.7}
        if not fs:
            fs = {rng.randrange(m)}
        fsets.append(frozenset(fs))
    green = tuple(rng.uniform(0.0, 60.0) for _ in range(m))
    caps = tuple(rng.randint(-(-n // m), n) for _ in range(m))
    return MilpInstance(weights=weights, feasible_sets=tuple(fsets),
                        green_power=green, count_capacity=caps)


def class_instance(rng: random.Random, power: PowerParams,
                   equal_green: bool = False) -> MilpInstance:
    """Up to 7 avatars in at most 3 classes (avatars sharing a feasible
    set) on up to 4 cloudlets, with capacities that often bind; with
    `equal_green`, every cloudlet has the same green supply."""
    n, m = rng.randint(1, 7), rng.randint(1, 4)
    sets = [frozenset(i for i in range(m) if rng.random() < 0.5)
            or frozenset({rng.randrange(m)}) for _ in range(3)]
    caps = [0] * m
    for _ in range(n + rng.randint(0, 2)):
        caps[rng.randrange(m)] += 1
    weights = tuple(avatar_weights([rng.uniform(10.0, 100.0)
                                    for _ in range(n)], power))
    fsets = tuple(rng.choice(sets) for _ in range(n))
    green = ((rng.uniform(0.0, 80.0),) * m if equal_green
             else tuple(rng.uniform(0.0, 80.0) for _ in range(m)))
    return MilpInstance(weights=weights, feasible_sets=fsets,
                        green_power=green, count_capacity=tuple(caps))


def from_map(placement: dict) -> Assignment:
    """The assignment that puts avatar a on cloudlet placement[a]."""
    return Assignment(tuple(placement), tuple(placement.values()))


def state_from_loads(loads, green, prev, topo, specs, power,
                     delay) -> SlotState:
    """A state of `AvatarLoad`s in any order: their columns in ascending
    avatar id (load tuples sort by id first), with the run's tables."""
    ids, cpu, enb = tuple(zip(*sorted(loads))) or ((), (), ())
    return SlotState(ids, cpu, enb, tuple(green), prev,
                     run_tables(topo, specs, power, delay))


def instance_from_loads(loads, specs, green, topo, power, delay) -> MilpInstance:
    """`build_instance` for loads in any order, with the run's tables."""
    s = state_from_loads(loads, green, from_map({}), topo, specs, power, delay)
    return build_instance(s.ids, s.cpu, s.enb, s.green_power, s.tables)


# The reference formula for the search's per-node bound: criterion 2 and
# the flow-bound tests check the search's bounds against it.
def aggregate_bound(inst: MilpInstance, fixed: dict[int, int]) -> float:
    """Lower bound (W) on the best completion of a partial placement.

    `fixed` maps already-placed avatar ids to cloudlets; `{}` gives the
    aggregate root bound that `solve` starts from, which the class-flow
    bound dominates. Committed deficit can only grow, and the remaining
    weight must either fit into the cloudlets' residual green slack or
    come from the grid; dropping the delay and capacity constraints only
    relaxes the problem. Computed in exact fixed-point arithmetic, so the
    admissibility relation to `brute_force` optima carries over to the
    returned floats unchanged.
    """
    load = [0] * inst.n_cloudlets
    wrem = placed = 0
    for k, avatar_id in enumerate(inst.avatar_ids):
        i = fixed.get(avatar_id)
        if i is None:
            wrem += inst._iw[k]
        else:
            load[i] += inst._iw[k]
            placed += 1
    if placed != len(fixed):
        raise KeyError("fixed placement names avatars outside the instance")
    deficit = slack = 0
    for li, gi in zip(load, inst._ig):
        if li > gi:
            deficit += li - gi
        else:
            slack += gi - li
    return _to_watts(deficit + max(0, wrem - slack))
