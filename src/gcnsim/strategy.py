"""Per-slot avatar placement strategies.

Both strategies map one slot's state to a complete assignment:

* FAR (follow-me): every avatar goes to the cloudlet nearest its UE's eNB
  that still has room, never breaking the delay bound. It minimizes
  propagation delay and ignores energy entirely. `far_placement` is this
  nearest-with-room greedy; the engine also uses it for the initial
  placement.
* GEAR (green-aware): solves the on-grid power minimization with branch
  and bound, warm-started with the better of FAR's placement and the
  previous slot's placement, so its linearized on-grid power can never
  exceed either.

Strategies are deterministic functions of their inputs; they draw no
randomness and keep no state between slots. They only place: the engine's
accounting counts the migrations a placement makes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .model import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    DelayParams,
    PowerParams,
    RunTables,
)
from .solver import (
    Infeasible,
    Solution,
    SolverConfig,
    build_instance,
    check_ascending_ids,
    solve,
)


@dataclass(frozen=True)
class SlotState:
    """Everything a strategy may look at for one slot: the avatars as
    columns in ascending avatar id (`ids`, CPU figures `cpu`, eNBs `enb`),
    next-slot green supply, the previous placement, and the run's tables.

    The engine hands over the world's own record arrays with ids
    `range(n)`. Construction is the one check of a slot's avatars, which
    every layer after it trusts: it raises ValueError if the columns'
    lengths disagree, if the ids do not strictly ascend (a repeated id
    included), or naming the first avatar whose CPU figure lies outside
    [0, 100] (NaN included) or that is attached to an eNB the topology
    does not have.
    """

    ids: Sequence[int]
    cpu: Sequence[float]
    enb: Sequence[int]
    green_power: tuple[float, ...]
    prev_assignment: Assignment
    tables: RunTables

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.cpu) == len(self.enb):
            raise ValueError("per-avatar column lengths disagree")
        check_ascending_ids(self.ids)
        # one test per value, which a NaN fails: min() and max() skip it
        for avatar_id, u in zip(self.ids, self.cpu):
            if not 0.0 <= u <= 100.0:
                raise ValueError(f"avatar {avatar_id} has CPU {u}, "
                                 "outside [0, 100]")
        sites = len(self.tables.reach)
        if not frozenset(range(sites)).issuperset(self.enb):
            for avatar_id, e in zip(self.ids, self.enb):
                if e not in range(sites):
                    raise ValueError(f"avatar {avatar_id} is attached to eNB "
                                     f"{e}, outside the {sites}-site topology")

    @property
    def loads(self) -> tuple[AvatarLoad, ...]:
        """The slot's loads in ascending avatar id, built on each read."""
        return AvatarLoad.from_columns(self.ids, self.cpu, self.enb)

    @property
    def specs(self) -> tuple[CloudletSpec, ...]:
        return self.tables.specs

    @property
    def power(self) -> PowerParams:
        return self.tables.power

    @property
    def delay(self) -> DelayParams:
        return self.tables.delay


@dataclass(frozen=True)
class StrategyOutcome:
    """A strategy's decision for one slot."""

    assignment: Assignment
    solver_stats: Solution | None = None


def far_placement(ids: Sequence[int], enbs: Sequence[int],
                  tables: RunTables) -> Assignment:
    """Nearest-with-room greedy: place avatar `ids[k]`, attached to eNB
    `enbs[k]`, in the given order at the nearest in-range cloudlet that
    still has room. The placement is made over `ids`.

    When the nearest cloudlet is full the avatar overflows to the
    next-nearest with room, still within the delay bound. Raises Infeasible
    if every in-range cloudlet is full; that proves only that the greedy
    failed, not that no placement exists, and the message says so.
    """
    order = tables.reach_order
    # When no cloudlet is the nearest of more avatars than it can host, no
    # nearest cloudlet ever runs out of room, and the greedy places every
    # avatar there, whatever their order.
    nearest = [o[0] if o else -1 for o in order]
    first = list(map(nearest.__getitem__, enbs))
    demand = Counter(first)
    if -1 not in demand and all(
            c <= tables.capacity[i] for i, c in demand.items()):
        return Assignment(ids, first)
    room = list(tables.capacity)
    place: list[int] = []
    for avatar_id, enb in zip(ids, enbs):
        for i in order[enb]:
            if room[i] > 0:
                place.append(i)
                room[i] -= 1
                break
        else:
            raise Infeasible(
                f"FAR's nearest-with-room greedy failed: no room for avatar "
                f"{avatar_id} at eNB {enb}, whose in-range cloudlets (nearest "
                f"first) {', '.join(map(str, order[enb]))} are all full; this "
                "does not prove that no placement exists")
    return Assignment(ids, place)


def far_assign(state: SlotState) -> StrategyOutcome:
    """FAR: the nearest-with-room greedy over avatars in ascending id.

    Its placement is made over the state's ids, so GEAR's checks and the
    accounting read its `place` as it is."""
    return StrategyOutcome(far_placement(state.ids, state.enb, state.tables))


def gear_assign(state: SlotState, config: SolverConfig | None = None) -> StrategyOutcome:
    """Minimize on-grid power by re-placing avatars, warm-started by FAR.

    Complete placements are compared by one float score,
    `MilpInstance.score`: linearized on-grid power summed exactly as the
    engine accounts a slot. The warm start is FAR's placement, or the
    previous slot's placement if that still fits and scores strictly lower
    (FAR wins ties); the solver's result replaces the warm start only if it
    scores strictly lower. So the returned placement never accounts worse
    than FAR's under the linearized model, down to the last bit. Under
    exact server-counting accounting it can draw more than FAR's.

    Each warm start is checked and scored once, by `MilpInstance.evaluate`
    in index form; `solve` reuses that check and that fixed-point score for
    its seed. FAR's placement is checked like any other, although the
    greedy built it within reach and capacity. The solver's own placement
    is feasible by construction, is made over the instance's ids, and is
    only scored, on its `place`.

    When FAR's greedy finds no room for some avatar, a still-feasible
    previous placement is the warm start; failing that the solver runs
    unseeded and its placement is returned. Infeasible is raised only when
    the solver finds no placement at all.
    """
    cfg = config or SolverConfig()
    inst = build_instance(state.ids, state.cpu, state.enb, state.green_power,
                          state.tables)
    try:
        warm = far_assign(state).assignment
    except Infeasible:
        warm = None  # the greedy can fail where a placement exists
    warm_power = math.inf if warm is None else inst.evaluate(warm)[1]
    prev = state.prev_assignment
    try:
        prev_power = inst.evaluate(prev)[1]
    except ValueError:
        pass  # the previous placement does not fit this slot
    else:
        if prev_power < warm_power:
            warm, warm_power = prev, prev_power

    sol = solve(inst, replace(cfg, seed_assignment=warm))

    chosen = warm
    # the solver returns the seed object itself when nothing beat it
    if (sol.assignment is not warm
            and inst.score(sol.assignment.place)[0] < warm_power):
        chosen = sol.assignment
    return StrategyOutcome(chosen, sol)
