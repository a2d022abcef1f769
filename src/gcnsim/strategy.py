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
accounting counts the migrations a placement makes. Each hands over the
per-cloudlet tally (`Tally`) of the placement it returns, as far as it has
worked it out, and the accounting completes it. FAR's placement of a slot
and its tally are one record per slot (`SlotState.far`), filled by
whichever reader comes first and read by every later one.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, replace
from operator import sub

from .model import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    DelayParams,
    PowerParams,
    RunTables,
    index_typecode,
)
from .solver import (
    Infeasible,
    Solution,
    SolverConfig,
    build_instance,
    check_ascending_ids,
    solve,
)


class Tally:
    """A placement's per-cloudlet tally, each part worked out by its first
    reader and only read after that.

    * `loads`: the placement's linearized and fixed-point load per cloudlet
      (`model.fold_loads`), given to the constructor if the caller has them.
    * `exact`: its exact power per cloudlet, from `sum()` of the hosted CPU
      figures, its maximum delay and its SLA violations.
    * `greedy`: only on a slot's record of FAR's placement (`SlotState.far`),
      which `far_assign` fills: (place, counts) from `far_placement`, the
      cloudlet of each avatar in ascending id as an `array` of
      `index_typecode` and the avatars per cloudlet; or (None, message) if
      the greedy failed, with the message of its Infeasible.

    None of the parts depends on green supply, so every kappa reads one
    record. A part is filled by one attribute store of a value that depends
    only on the slot's columns, the placement and the run's tables, so the
    fill is idempotent and threads may share a tally.
    """

    __slots__ = ("greedy", "loads", "exact")

    def __init__(self, loads: tuple | None = None) -> None:
        self.loads = loads
        self.greedy = self.exact = None


@dataclass(frozen=True)
class SlotState:
    """Everything a strategy may look at for one slot: the avatars as
    columns in ascending avatar id (`ids`, CPU figures `cpu`, eNBs `enb`),
    next-slot green supply, the previous placement, and the run's tables.

    `far` is the slot's record of FAR's placement, a `Tally`: the one
    passed as `record`, which must have been made for these columns and
    for tables equal to these, else a new one. The engine hands over the
    world's own record arrays with ids `range(n)` and the world's record
    for the slot, so every run on a world reads FAR's placement and tally
    from one record. A state made by `dataclasses.replace` gets a new
    record.

    Construction is the one check of a slot's avatars, which every layer
    after it trusts: it raises ValueError if the columns' lengths
    disagree, if the ids do not strictly ascend (a repeated id included),
    or naming the first avatar whose CPU figure lies outside [0, 100] (NaN
    included) or that is attached to an eNB the topology does not have.
    """

    ids: Sequence[int]
    cpu: Sequence[float]
    enb: Sequence[int]
    green_power: tuple[float, ...]
    prev_assignment: Assignment
    tables: RunTables
    record: InitVar[Tally | None] = None
    far: Tally = field(init=False, repr=False, compare=False)

    def __post_init__(self, record: Tally | None) -> None:
        object.__setattr__(self, "far", Tally() if record is None else record)
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
    """A strategy's decision for one slot. `tally`, if the strategy hands
    one over, is `assignment`'s own `Tally`, whose parts the slot
    accounting reads, filling in only those still missing."""

    assignment: Assignment
    solver_stats: Solution | None = None
    tally: Tally | None = None


def far_placement(ids: Sequence[int], enbs: Sequence[int],
                  tables: RunTables) -> tuple[array, list[int]]:
    """Nearest-with-room greedy: place avatar `ids[k]`, attached to eNB
    `enbs[k]`, in the given order at the nearest in-range cloudlet that
    still has room. Returns (place, counts): `place[k]`, the cloudlet of
    avatar `ids[k]`, in an `array` of `index_typecode`, and the number of
    avatars per cloudlet.

    When the nearest cloudlet is full the avatar overflows to the
    next-nearest with room, still within the delay bound. Raises Infeasible
    if every in-range cloudlet is full; that proves only that the greedy
    failed, not that no placement exists, and the message says so.
    """
    order, capacity = tables.reach_order, tables.capacity
    code = index_typecode(len(capacity))
    # When no cloudlet is the nearest of more avatars than it can host, no
    # nearest cloudlet ever runs out of room, and the greedy places every
    # avatar there, whatever their order.
    nearest = [o[0] if o else -1 for o in order]
    first = list(map(nearest.__getitem__, enbs))
    demand = Counter(first)
    if -1 not in demand and all(
            c <= capacity[i] for i, c in demand.items()):
        return array(code, first), [demand[i] for i in range(len(capacity))]
    room = list(capacity)
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
    return array(code, place), list(map(sub, capacity, room))


def far_assign(state: SlotState) -> StrategyOutcome:
    """FAR: the nearest-with-room greedy over avatars in ascending id.

    The greedy runs once per slot record (`state.far`), on the first call;
    every call returns a new `Assignment` over the recorded placement,
    made over the state's ids so that its `place` is read as it is, and
    hands over the record as its tally. If the greedy failed, every call
    raises Infeasible with its message."""
    far = state.far
    if far.greedy is None:
        try:
            far.greedy = far_placement(state.ids, state.enb, state.tables)
        except Infeasible as exc:
            far.greedy = (None, str(exc))
    place, counts = far.greedy
    if place is None:
        raise Infeasible(counts)  # the failure's message
    return StrategyOutcome(Assignment(state.ids, place), tally=far)


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
    its seed. FAR's placement is checked for coverage and reach like any
    other, although the greedy built it within reach and capacity; its
    capacity check reads the counts of the tally `far_assign` hands over,
    and its score that tally's per-cloudlet loads, which the evaluation
    fills from the instance if no reader has yet. The solver's own
    placement is feasible by construction, is made over the instance's
    ids, and is only scored, on its `place`. The outcome hands over the
    tally of the placement it returns: FAR's when FAR's placement stays,
    else a new `Tally` holding the loads the placement was scored by. The
    avatars' weights are worked out only if some step reads them
    (`MilpInstance`): a decision whose warm start is FAR's recorded
    placement and meets the root bound, with no previous placement that
    fits, weighs no avatar.

    When FAR's greedy finds no room for some avatar, a still-feasible
    previous placement is the warm start; failing that the solver runs
    unseeded and its placement is returned. Infeasible is raised only when
    the solver finds no placement at all.
    """
    cfg = config or SolverConfig()
    inst = build_instance(state.ids, state.cpu, state.enb, state.green_power,
                          state.tables)
    try:
        far = far_assign(state)
    except Infeasible:  # the greedy can fail where a placement exists
        warm, warm_power, tally = None, math.inf, None
    else:
        warm, tally = far.assignment, far.tally
        # the evaluation returns the tally's loads, folded if it had none
        _, warm_power, _, tally.loads = inst.evaluate(
            warm, (tally.greedy[1], tally.loads))
    prev = state.prev_assignment
    try:
        _, prev_power, _, prev_loads = inst.evaluate(prev)
    except ValueError:
        pass  # the previous placement does not fit this slot
    else:
        if prev_power < warm_power:
            warm, warm_power, tally = prev, prev_power, Tally(prev_loads)

    sol = solve(inst, replace(cfg, seed_assignment=warm))

    chosen = warm
    # the solver returns the seed object itself when nothing beat it
    if sol.assignment is not warm:
        loads = inst.loads(sol.assignment.place)
        if inst.score(sol.assignment.place, loads)[0] < warm_power:
            chosen, tally = sol.assignment, Tally(loads)
    return StrategyOutcome(chosen, sol, tally)
