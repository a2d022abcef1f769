"""Power, delay and energy models for a green cloudlet network.

Every function here is a pure closed-form expression over immutable inputs:
cloudlet power draw, avatar placement weights, eNB-to-cloudlet propagation
delay, the per-eNB table of cloudlets within the delay bound, and per-slot
on-grid energy. The simulation engine and the assignment solver are both
built on top of these primitives, so any power number reported anywhere in
the package traces back to this module.

Every per-slot layer reads a slot's avatars as columns in ascending avatar
id, holds a placement as one cloudlet per column (`Assignment`), and weighs
the avatars with one formula, `avatar_weights`. What depends only on
the network and the parameters, not on the slot (which cloudlets each eNB
reaches, how many avatars each cloudlet hosts, each cloudlet-eNB delay),
is tabulated once per run by `run_tables`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple


@dataclass(frozen=True)
class PowerParams:
    """Server power model constants.

    An active server draws `standby_power` watts at zero load, plus
    `avatar_coeff` watts of hypervisor overhead per hosted avatar, plus
    `cpu_coeff` watts per percentage point of CPU in use. A server hosts
    at most `server_capacity` avatars.
    """

    standby_power: float = 80.0
    cpu_coeff: float = 0.2
    avatar_coeff: float = 0.3
    server_capacity: int = 16

    def __post_init__(self) -> None:
        if self.standby_power <= 0 or self.cpu_coeff <= 0 or self.avatar_coeff <= 0:
            raise ValueError("power coefficients must be positive")
        if not isinstance(self.server_capacity, int) or self.server_capacity < 1:
            raise ValueError("server_capacity must be a positive integer")


# Length of one decision slot in hours: placements are decided every 15
# minutes. A power of two, so scaling a power figure by it is exact.
SLOT_HOURS = 0.25


@dataclass(frozen=True)
class DelayParams:
    """Propagation-delay model.

    `dist_coeff` maps eNB-to-cloudlet distance (km) to one-way delay (ms);
    `sla_max_delay` is the delay bound the provider guarantees.
    """

    dist_coeff: float = 3.33
    sla_max_delay: float = 10.0

    def __post_init__(self) -> None:
        if self.dist_coeff <= 0:
            raise ValueError("dist_coeff must be positive")
        if self.sla_max_delay < 0:
            raise ValueError("sla_max_delay must be non-negative")


def default_power_params() -> PowerParams:
    """Power constants used throughout the experiments."""
    return PowerParams()


def default_delay_params() -> DelayParams:
    """Delay/SLA constants used throughout the experiments."""
    return DelayParams()


@dataclass(frozen=True)
class SiteTopology:
    """Grid of co-located eNB/cloudlet sites with pairwise distances in km."""

    site_positions: tuple[tuple[float, float], ...]
    distances: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.site_positions)
        if len(self.distances) != n or any(len(row) != n for row in self.distances):
            raise ValueError("distance matrix shape must match site count")
        for i in range(n):
            if self.distances[i][i] != 0.0:
                raise ValueError("distance matrix diagonal must be zero")
            for j in range(n):
                d = self.distances[i][j]
                if d < 0:
                    raise ValueError("distances must be non-negative")
                if d != self.distances[j][i]:
                    raise ValueError("distance matrix must be symmetric")

    @property
    def site_count(self) -> int:
        return len(self.site_positions)


@dataclass(frozen=True)
class CloudletSpec:
    """Static per-cloudlet configuration: rack size, solar panel, zone."""

    server_count: int
    panel_area: float = 5.0
    panel_efficiency: float = 0.46
    zone: str = "rural"

    def __post_init__(self) -> None:
        if self.server_count < 1:
            raise ValueError("server_count must be >= 1")
        if self.panel_area < 0:
            raise ValueError("panel_area must be non-negative")
        if not 0 < self.panel_efficiency <= 1:
            raise ValueError("panel_efficiency must be in (0, 1]")
        if self.zone not in ("urban", "rural"):
            raise ValueError("zone must be 'urban' or 'rural'")


class AvatarLoad(NamedTuple):
    """One avatar's demand for a slot: total CPU (kernel + application)
    in percent, and the site index of the eNB its UE is attached to.

    A plain record: `SlotState` checks a slot's avatars, and
    `SlotState.loads` reads its columns back as loads."""

    avatar_id: int
    total_cpu: float
    attached_enb: int

    @classmethod
    def from_columns(cls, ids: Iterable[int], cpu: Iterable[float],
                     enbs: Iterable[int]) -> tuple[AvatarLoad, ...]:
        """Loads from per-avatar columns. This is what `_make` does per
        row, without its Python frame."""
        return tuple(map(tuple.__new__, repeat(cls), zip(ids, cpu, enbs)))


@dataclass(frozen=True, eq=False)
class Assignment:
    """A placement, one cloudlet per avatar: `place[k]` is the cloudlet of
    avatar `ids[k]`, for distinct ids. Strategies and the solver make it
    over a slot's ids, in ascending avatar id as the slot's columns hold
    them. Neither sequence may be modified.

    Two assignments are equal iff they put every avatar on the same
    cloudlet, whatever order or sequence types their ids and cloudlets
    come in; assignments are not hashable.
    """

    ids: Sequence[int]
    place: Sequence[int]

    @cached_property
    def placement(self) -> dict[int, int]:
        """The map avatar id -> cloudlet, built on first read."""
        return dict(zip(self.ids, self.place))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.placement == other.placement

    def cloudlets(self, ids: Sequence[int]) -> Sequence[int]:
        """The cloudlet of each avatar of `ids`, in that order: `place`
        itself when the assignment was made for these ids, else read from
        the map. Raises KeyError for an avatar it does not place."""
        if self.ids is ids or self.ids == ids:
            return self.place
        return list(map(self.placement.__getitem__, ids))

    def counts(self, n_cloudlets: int) -> list[int]:
        """Number of avatars hosted per cloudlet."""
        out = [0] * n_cloudlets
        for i in self.place:
            out[i] += 1
        return out


def active_server_count(avatar_count: int, server_capacity: int) -> int:
    """Servers needed to host `avatar_count` avatars, `server_capacity` each."""
    if avatar_count < 0 or server_capacity < 1:
        raise ValueError("avatar_count must be >= 0 and server_capacity >= 1")
    return -(-avatar_count // server_capacity)


def cloudlet_power_exact(cpus: Sequence[float], params: PowerParams) -> float:
    """Cloudlet power (W) from its avatars' CPU figures in ascending avatar
    id: standby draw of its active servers plus every hosted avatar's
    hypervisor overhead and CPU draw; 0 if empty.

    Packing is power-neutral for homogeneous servers, so only the count of
    servers needed matters, not which avatar shares a server with which.
    """
    return (active_server_count(len(cpus), params.server_capacity)
            * params.standby_power
            + params.avatar_coeff * len(cpus)
            + params.cpu_coeff * sum(cpus))


def fold_loads(place: Iterable[int], weights: Iterable[float],
               units: Iterable[int], n_cloudlets: int
               ) -> tuple[tuple[float, ...], array]:
    """Each cloudlet's linearized load (W) and fixed-point load under a
    placement: `place[k]` is the cloudlet of the avatar whose weight is
    `weights[k]` and whose fixed-point weight is `units[k]`, in ascending
    avatar id.

    Each cloudlet's figures are added left to right from 0.0 and 0, never
    with `sum()`: that is compensated for floats from Python 3.12 and would
    round differently. GEAR's scorer and the slot accounting both take
    their loads from this one fold, so they agree bit for bit. The
    fixed-point loads come as a compact array of 64-bit integers, since a
    world keeps them per slot; a cloudlet load above 2**63 units (some
    8.8e12 W) raises OverflowError.
    """
    load, fixed = [0.0] * n_cloudlets, [0] * n_cloudlets
    for i, w, u in zip(place, weights, units):
        load[i] += w
        fixed[i] += u
    return tuple(load), array("q", fixed)


def index_typecode(count: int) -> str:
    """The smallest unsigned `array` type code that holds every index below
    `count`: one byte per index on grids of up to 256 sites."""
    return "B" if count <= 1 << 8 else "H" if count <= 1 << 16 else "L"


def avatar_weights(cpus: Iterable[float], params: PowerParams) -> list[float]:
    """Placement-independent power weight (W) of each avatar under the
    linearized model: amortized standby share plus hypervisor overhead plus
    CPU draw.

    The CPU figures are not range-checked here: `SlotState` checks them
    when a slot's state is made.
    """
    base = params.standby_power / params.server_capacity + params.avatar_coeff
    coeff = params.cpu_coeff
    return [base + coeff * u for u in cpus]


def propagation_delay(cloudlet: int, enb: int, topo: SiteTopology,
                      params: DelayParams) -> float:
    """One-way avatar propagation delay (ms) between a cloudlet and an eNB."""
    return params.dist_coeff * topo.distances[cloudlet][enb]


def nearest_feasible_order(topo: SiteTopology,
                           delay: DelayParams) -> list[list[int]]:
    """For each eNB, the cloudlets an avatar attached there may use without
    breaking the SLA, sorted nearest-first.

    Distance ties break toward the lower cloudlet index.
    """
    sigma, eps = delay.dist_coeff, delay.sla_max_delay
    order = []
    for e in range(topo.site_count):
        cands = [(topo.distances[i][e], i) for i in range(topo.site_count)
                 if sigma * topo.distances[i][e] <= eps]
        cands.sort()
        order.append([i for _, i in cands])
    return order


@dataclass(frozen=True)
class RunTables:
    """The cloudlets and parameters of one run, with the tables every slot
    decision reads; none of them depends on the slot.

    `reach_order[e]` holds the cloudlets an avatar attached to eNB e may
    use without breaking the SLA, nearest first (`nearest_feasible_order`),
    `reach[e]` the same cloudlets as a frozenset and `reach_ascending[e]`
    as a tuple in ascending index, the order the solver branches over
    them. Every cloudlet index in them is below the cloudlet count, which
    `build_instance` relies on. `capacity[i]` is the
    number of avatars cloudlet i can host, and `delay_ms[i][e]` the one-way
    delay between cloudlet i and eNB e (`propagation_delay`).
    """

    specs: tuple[CloudletSpec, ...]
    power: PowerParams
    delay: DelayParams
    reach_order: tuple[tuple[int, ...], ...]
    reach: tuple[frozenset[int], ...]
    reach_ascending: tuple[tuple[int, ...], ...]
    capacity: tuple[int, ...]
    delay_ms: tuple[tuple[float, ...], ...]


def run_tables(topo: SiteTopology, specs: Sequence[CloudletSpec],
               power: PowerParams, delay: DelayParams) -> RunTables:
    """Tabulate a run's reach, capacities and delays once."""
    if len(specs) != topo.site_count:
        raise ValueError("specs length must match the topology")
    order = nearest_feasible_order(topo, delay)
    sites = range(topo.site_count)
    return RunTables(
        specs=tuple(specs), power=power, delay=delay,
        reach_order=tuple(map(tuple, order)),
        reach=tuple(map(frozenset, order)),
        reach_ascending=tuple(tuple(sorted(o)) for o in order),
        capacity=tuple(s.server_count * power.server_capacity for s in specs),
        delay_ms=tuple(tuple(propagation_delay(i, e, topo, delay)
                             for e in sites) for i in sites),
    )


def ongrid_energy(power_demand: float, green_power: float) -> float:
    """On-grid energy (Wh) drawn over one slot of `SLOT_HOURS`; green
    surplus is not banked."""
    if power_demand < 0 or green_power < 0:
        raise ValueError("power values must be non-negative")
    return max(0.0, SLOT_HOURS * (power_demand - green_power))

