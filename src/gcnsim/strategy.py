"""Per-slot avatar placement strategies.

Both strategies map one slot's state to a complete assignment:

* FAR (follow-me): every avatar goes to the cloudlet nearest its UE's eNB
  that still has room, never breaking the delay bound. It minimizes
  propagation delay and ignores energy entirely. `far_placement` is this
  nearest-with-room greedy; the engine also uses it for the initial
  placement.
* GEAR (green-aware): solves the on-grid power minimization with branch
  and bound, warm-started with the better of FAR's placement and the
  previous slot's placement, so its linearized objective can never exceed
  either.

Strategies are deterministic functions of their inputs; they draw no
randomness and keep no state between slots.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from .model import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    DelayParams,
    PowerParams,
    SiteTopology,
    assignment_loads,
    cloudlet_power_approx,
    nearest_feasible_order,
)
from .solver import (
    Infeasible,
    MilpInstance,
    Solution,
    SolverConfig,
    _int_objective,
    _placement_from_assignment,
    build_instance,
    solve,
)


@dataclass(frozen=True)
class SlotState:
    """Everything a strategy may look at for one slot: next-slot loads and
    green supply, the previous placement, and the scenario constants."""

    loads: tuple[AvatarLoad, ...]
    green_power: tuple[float, ...]
    prev_assignment: Assignment
    topo: SiteTopology
    specs: tuple[CloudletSpec, ...]
    power: PowerParams
    delay: DelayParams


@dataclass(frozen=True)
class StrategyOutcome:
    """A strategy's decision for one slot."""

    assignment: Assignment
    migrations: int
    solver_stats: Solution | None = None


def _count_migrations(new: Assignment, prev: Assignment) -> int:
    return sum(1 for k, i in new.placement.items() if prev.placement.get(k) != i)


def far_placement(avatars: Iterable[tuple[int, int]], topo: SiteTopology,
                  specs: tuple[CloudletSpec, ...], power: PowerParams,
                  delay: DelayParams) -> Assignment:
    """Nearest-with-room greedy: place each (avatar id, eNB) in the given
    order at the nearest in-range cloudlet that still has room.

    When the nearest cloudlet is full the avatar overflows to the
    next-nearest with room, still within the delay bound. Raises Infeasible
    if every in-range cloudlet is full; that proves only that the greedy
    failed, not that no placement exists.
    """
    order = nearest_feasible_order(topo, delay)
    room = [s.server_count * power.server_capacity for s in specs]
    placement: dict[int, int] = {}
    for avatar_id, enb in avatars:
        for i in order[enb]:
            if room[i] > 0:
                placement[avatar_id] = i
                room[i] -= 1
                break
        else:
            raise Infeasible(
                f"no in-range cloudlet has room for avatar {avatar_id}")
    return Assignment(placement)


def far_assign(state: SlotState) -> StrategyOutcome:
    """FAR: the nearest-with-room greedy over avatars in ascending id."""
    assignment = far_placement(
        ((a.avatar_id, a.attached_enb)
         for a in sorted(state.loads, key=lambda a: a.avatar_id)),
        state.topo, state.specs, state.power, state.delay)
    return StrategyOutcome(
        assignment=assignment,
        migrations=_count_migrations(assignment, state.prev_assignment),
    )


def _approx_power_gap(state: SlotState, assignment: Assignment) -> float:
    """Total on-grid power (W) of an assignment under the linearized model,
    summed in the canonical per-cloudlet order used by the engine."""
    groups = assignment_loads(state.loads, assignment, len(state.specs))
    return sum(
        max(0.0, cloudlet_power_approx(group, state.power) - green)
        for group, green in zip(groups, state.green_power)
    )


def _feasible_or_none(inst: MilpInstance, assignment: Assignment) -> list[int] | None:
    try:
        return _placement_from_assignment(inst, assignment)
    except ValueError:
        return None


def gear_assign(state: SlotState, config: SolverConfig | None = None) -> StrategyOutcome:
    """Minimize on-grid power by re-placing avatars, warm-started by FAR.

    The previous slot's placement replaces FAR as the warm start only when
    it is still feasible and strictly better under both the solver's exact
    fixed-point objective and the engine's float accounting; the solver's
    result replaces the warm start under the same double test. The double
    test guarantees the returned placement never accounts worse than FAR's
    under the linearized model, down to the last bit. Under exact
    server-counting accounting it can draw more than FAR's.

    When FAR's greedy finds no room for some avatar, a still-feasible
    previous placement is the warm start; failing that the solver runs
    unseeded and its placement is returned. Infeasible is raised only when
    the solver finds no placement at all.
    """
    cfg = config or SolverConfig()
    inst = build_instance(list(state.loads), list(state.specs),
                          list(state.green_power), state.topo,
                          state.power, state.delay)
    try:
        seed: Assignment | None = far_assign(state).assignment
    except Infeasible:
        seed = None  # the greedy can fail where a placement exists
    prev_place = _feasible_or_none(inst, state.prev_assignment)
    if seed is not None:
        seed_gap = _approx_power_gap(state, seed)
        if prev_place is not None:
            seed_units = _int_objective(_placement_from_assignment(inst, seed),
                                        inst._iw, inst._ig, inst.n_cloudlets)
            prev_units = _int_objective(prev_place, inst._iw, inst._ig,
                                        inst.n_cloudlets)
            if prev_units < seed_units:  # the float check only if needed
                prev_gap = _approx_power_gap(state, state.prev_assignment)
                if prev_gap < seed_gap:
                    seed, seed_gap = state.prev_assignment, prev_gap
    elif prev_place is not None:
        seed = state.prev_assignment
        seed_gap = _approx_power_gap(state, seed)

    sol = solve(inst, replace(cfg, seed_assignment=seed))

    chosen = seed
    if seed is None or (sol.assignment.placement != seed.placement
                        and _approx_power_gap(state, sol.assignment) < seed_gap):
        chosen = sol.assignment
    return StrategyOutcome(
        assignment=chosen,
        migrations=_count_migrations(chosen, state.prev_assignment),
        solver_stats=sol,
    )
