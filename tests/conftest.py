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
    avatar_weights,
    build_instance,
    default_delay_params,
    default_power_params,
    init_topology,
    run_tables,
)
from gcnsim.cli import bundled_trace_path
from gcnsim.scenario import load_solar_trace


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
