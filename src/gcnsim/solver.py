"""Branch-and-bound solver for green-energy-aware avatar placement.

The per-slot decision is a pure assignment problem: place every avatar on
one cloudlet from its delay-feasible set, respect each cloudlet's hosting
capacity, and minimize total on-grid power, i.e.

    minimize  sum_i max(0, load_i - green_i)

where `load_i` is the sum of the placement weights of the avatars put on
cloudlet i. The problem is NP-hard (it contains the partition problem), so
`solve` runs depth-first branch and bound with an admissible aggregate
bound, truncated by node budget or relative gap, and returns the best
incumbent found. A walk still unproven after one dive pauses: a class-flow
bound (a max flow from avatars grouped by feasible set to the cloudlets'
green supply) becomes its root bound, and move-and-swap descents from the
incumbent, then the warm start, then transfer chains toward unused green
improve it while it misses that bound.
`brute_force` is an exhaustive oracle for small instances, used to
validate the search. Neither search recurses, so the number of avatars is
not limited by the interpreter's stack.

Arithmetic note: objectives and bounds are computed in fixed-point integer
watts (1/2^20 W resolution). All partial sums are exact, so two placements
whose objectives are mathematically equal compare equal regardless of
summation order, pruning at equality is safe, and the search is
bit-reproducible. Reported `Solution` values are the integer results
converted back to float watts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate, product, repeat
from operator import ge, itemgetter, mul

from .model import Assignment, RunTables, avatar_weights
from .refine import descent, flow_bound, transfer_chains

# Fixed-point scale for watt values inside the search (about 1e-6 W).
_SCALE = 1 << 20

# Relative-gap denominator floor, to keep gap finite at zero objective.
_TINY = 1e-12


class Infeasible(Exception):
    """No complete assignment satisfies the constraints."""


def _to_units(watts: float) -> int:
    return round(watts * _SCALE)


def _to_watts(units: int) -> float:
    return units / _SCALE


def check_ascending_ids(ids: Sequence[int]) -> None:
    """Raise ValueError unless `ids` strictly ascend (so no id repeats):
    O(1) for a `range`, else one C-level pass."""
    if (ids.step < 0 and len(ids) > 1 if type(ids) is range
            else any(map(ge, ids, ids[1:]))):
        raise ValueError("avatar ids must strictly ascend")


@dataclass
class MilpInstance:
    """One slot's placement problem.

    `weights[k]` is avatar k's placement weight in watts, `feasible_sets[k]`
    the cloudlets it may use, `green_power[i]` cloudlet i's green supply in
    watts and `count_capacity[i]` the number of avatars it can host.
    `avatar_ids` maps instance positions back to avatar identifiers; they
    strictly ascend, so instance positions are in ascending avatar id.

    The constructor converts every field and checks what `build_instance`
    takes from the run's tables as given (weights and capacities not
    negative, every feasible cloudlet known); both then run `_finish`.
    """

    weights: tuple[float, ...]
    feasible_sets: tuple[frozenset[int], ...]
    green_power: tuple[float, ...]
    count_capacity: tuple[int, ...]
    avatar_ids: Sequence[int] = ()

    def __post_init__(self) -> None:
        # frozenset(fs) and float(w) return fs and w themselves when they
        # already have the exact type, so canonical inputs are not copied.
        self.weights = tuple(map(float, self.weights))
        self.feasible_sets = tuple(map(frozenset, self.feasible_sets))
        self.green_power = tuple(map(float, self.green_power))
        self.count_capacity = tuple(map(int, self.count_capacity))
        self.avatar_ids = tuple(self.avatar_ids or range(len(self.weights)))
        if min(self.weights, default=0.0) < 0:
            raise ValueError("weights must be non-negative")
        if any(c < 0 for c in self.count_capacity):
            raise ValueError("capacities must be non-negative")
        # avatars on one eNB share one set: each distinct set is checked once
        m = len(self.green_power)
        ascending = dict.fromkeys(self.feasible_sets)
        for fs in ascending:
            if any(i < 0 or i >= m for i in fs):
                raise ValueError("feasible set references unknown cloudlet")
            ascending[fs] = tuple(sorted(fs))
        self._finish(ascending)

    def _finish(self, ascending: dict[frozenset[int], tuple[int, ...]]
                ) -> None:
        """Check the fields, with no per-avatar Python loop unless some
        feasible set is empty, then set what the search reads: `ascending`
        maps each feasible set to its cloudlets in ascending index, plus
        the fixed-point weights and green supply.

        Raises ValueError if the per-avatar or per-cloudlet lengths
        disagree, the ids do not strictly ascend or green power is
        negative; Infeasible naming the first avatar with an empty
        feasible set, or the total capacity if it is below the avatar
        count.
        """
        n, ids = len(self.weights), self.avatar_ids
        if len(self.feasible_sets) != n or len(ids) != n:
            raise ValueError("per-avatar field lengths disagree")
        check_ascending_ids(ids)
        if len(self.count_capacity) != len(self.green_power):
            raise ValueError("per-cloudlet field lengths disagree")
        if any(g < 0 for g in self.green_power):
            raise ValueError("green power must be non-negative")
        if frozenset() in ascending:  # does an avatar have an empty set?
            for avatar_id, fs in zip(ids, self.feasible_sets):
                if not fs:
                    raise Infeasible(
                        f"avatar {avatar_id} has an empty feasible set")
        if sum(self.count_capacity) < n:
            raise Infeasible(
                f"capacity {sum(self.count_capacity)} < {n} avatars")
        self._ascending = ascending
        # _to_units of each value, without a Python frame per value: the
        # values are floats by now, so float.__round__ is what round calls,
        # and a float scale (2**20 exactly) multiplies without converting
        scale = float(_SCALE)
        self._iw = tuple(map(float.__round__,
                             map(mul, self.weights, repeat(scale))))
        self._ig = tuple(map(float.__round__,
                             map(mul, self.green_power, repeat(scale))))
        # id(assignment) -> (assignment, place, power, units); holding the
        # assignment keeps its id from being reused while the entry lives
        self._evaluated: dict[int, tuple] = {}

    @property
    def n_avatars(self) -> int:
        return len(self.weights)

    @property
    def n_cloudlets(self) -> int:
        return len(self.green_power)

    def check_assignment(self, assignment: Assignment) -> Sequence[int]:
        """Check a complete assignment against the instance and return its
        cloudlet per instance position: its `place`, when it was made for
        these avatar ids, else a list read from its map.

        Raises ValueError if it misses an avatar or places one outside the
        instance, outside its feasible set, or on a cloudlet over capacity.
        """
        ids = self.avatar_ids
        try:  # the ids are distinct, so equal lengths mean no extra avatar
            place = assignment.cloudlets(ids)
        except KeyError:
            place = None
        if (place is None or len(place) != len(ids)
                or place is not assignment.place
                and len(assignment.placement) != len(ids)):
            raise ValueError("assignment does not cover the avatar population")
        if not all(map(frozenset.__contains__, self.feasible_sets, place)):
            for a, fs, i in zip(ids, self.feasible_sets, place):
                if i not in fs:
                    raise ValueError(f"avatar {a} placed outside its "
                                     "feasible set")
        used = Counter(place)
        for i, cap in enumerate(self.count_capacity):
            if used[i] > cap:
                raise ValueError(f"cloudlet {i} over capacity in assignment")
        return place

    def score(self, place: Sequence[int]) -> tuple[float, int]:
        """On-grid power of an index-form placement (a cloudlet per
        instance position) from one pass over it, in float watts and in
        fixed-point units.

        The float figure adds each cloudlet's weights left to right in
        ascending avatar id from 0.0, never with `sum()`, as
        `compute_slot_metrics` adds them, then sums the cloudlets' excess
        over green supply in index order. That is the engine's slot
        accounting term for term, and `SLOT_HOURS` is a power of two, so
        the float figure times `SLOT_HOURS` equals `compute_slot_metrics`'s
        `ongrid_approx_wh` bit for bit. The fixed-point figure is the
        search's exact objective.
        """
        m = self.n_cloudlets
        load, units = [0.0] * m, [0] * m
        for i, w, u in zip(place, self.weights, self._iw):
            load[i] += w
            units[i] += u
        return (sum(max(0.0, p - g) for p, g in zip(load, self.green_power)),
                sum(u - g for u, g in zip(units, self._ig) if u > g))

    def evaluate(self, assignment: Assignment
                 ) -> tuple[Sequence[int], float, int]:
        """`check_assignment` and then `score` of a complete assignment:
        (cloudlet per instance position, float power, fixed-point
        objective), worked out once per assignment object and instance.

        GEAR evaluates each of its warm starts with it, and `solve` takes
        its seed's entry from here, so a warm start is checked and scored
        once per decision. Raises ValueError as `check_assignment` does;
        a rejected assignment is not remembered.
        """
        entry = self._evaluated.get(id(assignment))
        if entry is None:
            place = self.check_assignment(assignment)
            entry = (assignment, place, *self.score(place))
            self._evaluated[id(assignment)] = entry
        return entry[1:]


@dataclass(frozen=True)
class SolverConfig:
    """Search budget and warm start for one `solve` call."""

    node_limit: int = 100_000
    gap_tolerance: float = 0.0
    seed_assignment: Assignment | None = None

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance must be non-negative")


@dataclass(frozen=True)
class Solution:
    """Result of a solve: incumbent assignment plus proof metadata.

    `stage` names the step of `solve` that returned: "seed", "dive",
    "descent" or "search"; `brute_force`'s exhaustive result says "search".
    """

    assignment: Assignment
    objective: float
    lower_bound: float
    gap: float
    nodes_explored: int
    proven_optimal: bool
    stage: str


def build_instance(ids: Sequence[int], cpus: Sequence[float],
                   enbs: Sequence[int], green: Sequence[float],
                   tables: RunTables) -> MilpInstance:
    """Assemble the placement problem for one slot from its columns in
    ascending avatar id and the run's tables.

    Each feasible set is the tables' frozenset for the avatar's eNB, whose
    cloudlets all exist, and each weight is `avatar_weights` of a CPU
    figure that the slot's `SlotState` range-checked, so the build skips
    the constructor's own checks. It raises what `MilpInstance._finish`
    raises; green power of the wrong length is a per-cloudlet length that
    disagrees.
    """
    inst = MilpInstance.__new__(MilpInstance)  # no per-avatar __post_init__
    inst.weights = tuple(avatar_weights(cpus, tables.power))
    inst.feasible_sets = _take(tables.reach, enbs)
    inst.green_power = tuple(map(float, green))
    inst.count_capacity = tables.capacity
    inst.avatar_ids = ids if type(ids) is range else tuple(ids)
    inst._finish(dict(zip(tables.reach, tables.reach_ascending)))
    return inst


def _int_objective(place, iw: tuple[int, ...], ig: tuple[int, ...]) -> int:
    """Exact on-grid power (fixed-point) of a complete index-form placement."""
    load = [0] * len(ig)
    for k, i in enumerate(place):
        load[i] += iw[k]
    return sum(li - gi for li, gi in zip(load, ig) if li > gi)


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


def _take(values: Sequence, positions: Sequence[int]) -> tuple:
    """values[k] for each k of positions, as a tuple, in one C-level call."""
    if len(positions) > 1:
        return itemgetter(*positions)(values)
    return tuple(values[k] for k in positions)


def solve(inst: MilpInstance, config: SolverConfig | None = None) -> Solution:
    """Branch and bound over placements, in steps; `Solution.stage` names
    the step that returned.

    Seed ("seed"): a `seed_assignment` is the initial incumbent, checked
    and scored through `MilpInstance.evaluate` (ValueError if it does not
    fit), so a seed GEAR has evaluated is not checked or scored again. If
    nothing beats it, the returned assignment is the seed object itself. A
    seed within the gap tolerance of the root bound, max(0, total weight -
    total green), is returned after one node, before any search set-up.

    Dive ("dive"): a depth-first walk (`_search`) under `node_limit`
    nodes. It branches on the heaviest unplaced avatar; children are its
    feasible cloudlets with room, in order of residual green supply, with
    sibling bounds and order worked out lazily (README, "Library use").
    Without a seed the budget binds only once a complete placement exists.
    A walk that returns without the pause below says "dive": it found a
    proof or exhausted the tree within its first n + 1 nodes for n avatars
    (one root-to-leaf path), or its budget ran out there (a `node_limit`
    of at most n + 1, or no incumbent before `node_limit` nodes).

    A walk still going after those n + 1 nodes, with an incumbent and
    budget left, pauses once there:

    1. The class-flow bound (`refine.flow_bound`), which dominates the
       aggregate bound, becomes the root bound; an incumbent within the
       gap tolerance of it is returned ("dive").
    2. A move-and-swap descent (`refine.descent`) runs from the dive's
       incumbent, and, if the flow bound is still missed by more than the
       tolerance, from the seed, unless there is none or it is that incumbent.
       If the bound is still missed, transfer chains alternated with the
       descent (`refine.transfer_chains`) run from the better incumbent.
       Each result replaces the incumbent only if it is strictly lower,
       and one within the tolerance of the flow bound is returned
       ("descent").
    3. Otherwise the walk goes on from where it paused, with the best
       incumbent, the flow bound as its root bound and the nodes left of
       `node_limit` ("search").

    `lower_bound` is the root bound the walk ended with (the flow bound
    once it paused), or the objective when the walk exhausted its tree;
    `gap` is taken against it. The walk does not recurse, and all
    ties break toward the lowest index, so runs are bit-reproducible.
    """
    cfg = config or SolverConfig()
    iw, ig = inst._iw, inst._ig
    tol = cfg.gap_tolerance
    root_bound = max(0, sum(iw) - sum(ig))

    seed_place: Sequence[int] | None = None
    best_obj: int | None = None
    if cfg.seed_assignment is not None:
        seed_place, _, best_obj = inst.evaluate(cfg.seed_assignment)

    stage = "dive"

    def after_dive(obj: int, place: Sequence[int]):
        """Steps 1 and 2, once the walk has paused; returns the root bound,
        objective and placement it goes on with."""
        nonlocal root_bound, stage
        root_bound = flow_bound(inst.feasible_sets, iw, ig, inst._ascending)
        fields = (inst.feasible_sets, iw, ig, inst.count_capacity,
                  inst._ascending)
        for start in (place, None if seed_place is place else seed_place):
            if start is None or obj - root_bound <= tol * obj:
                break
            better, better_obj = descent(start, *fields)
            if better_obj < obj:
                place, obj, stage = better, better_obj, "descent"
        if obj - root_bound > tol * obj:
            better, better_obj = transfer_chains(place, *fields)
            if better_obj < obj:
                place, obj, stage = better, better_obj, "descent"
        if obj - root_bound > tol * obj:
            stage = "search"
        return root_bound, obj, place

    if best_obj is not None and best_obj - root_bound <= tol * best_obj:
        best_place, nodes, stop, stopped_by_gap = seed_place, 1, True, True
        stage = "seed"
    else:
        best_obj, best_place, nodes, stop, stopped_by_gap = _search(
            inst, cfg, root_bound, best_obj, seed_place, after_dive)
    exhausted = (not stop) or (stopped_by_gap and best_obj == root_bound)

    if best_obj is None or best_place is None:
        raise Infeasible("no feasible placement exists")

    objective = _to_watts(best_obj)
    lb_units = best_obj if exhausted else root_bound
    lower_bound = _to_watts(lb_units)
    gap = 0.0 if best_obj == lb_units else (objective - lower_bound) / max(objective, _TINY)
    return Solution(
        assignment=(cfg.seed_assignment if best_place is seed_place
                    else Assignment(inst.avatar_ids, best_place)),
        objective=objective,
        lower_bound=lower_bound,
        gap=gap,
        nodes_explored=nodes,
        proven_optimal=exhausted or stopped_by_gap or gap <= tol,
        stage=stage,
    )


def _search(inst: MilpInstance, cfg: SolverConfig, root_bound: int,
            best_obj: int | None, best_place: Sequence[int] | None,
            after_dive: Callable | None = None):
    """The depth-first walk of `solve`, from the root.

    If the walk is still going after n + 1 nodes, with an incumbent and
    budget left, it calls `after_dive(best objective, best placement)`
    once and goes on with the (root bound, objective, placement) that
    returns, stopping at once if they meet the gap tolerance.

    Returns (best objective, best placement, nodes, stop, stopped_by_gap);
    the best placement is the `best_place` object passed in unless a leaf
    or `after_dive` improved on `best_obj`.
    """
    n = inst.n_avatars
    gap, node_limit = cfg.gap_tolerance, cfg.node_limit
    limit = node_limit if after_dive is None else min(node_limit, n + 1)
    iw, ig = inst._iw, inst._ig

    # Per-depth tables. Branch order: heaviest first, then lowest instance
    # index (the sort is stable, so equal weights keep their index order).
    # A list's bound __getitem__ is a cheaper sort key than a tuple's.
    order = sorted(range(n), key=list(iw).__getitem__, reverse=True)
    wd = _take(iw, order)
    # the weight left to place below each depth: wr[d] = sum(wd[d + 1:])
    wr = list(accumulate(reversed(wd), initial=0))
    wr.pop()
    wr.reverse()
    # each depth's feasible cloudlets, ascending
    fsd = _take(inst._ascending, _take(inst.feasible_sets, order))

    place = [0] * n            # cloudlet per instance position, on the path
    ex = [-g for g in ig]      # load - green per cloudlet
    room = list(inst.count_capacity)
    has_room, excess = room.__getitem__, ex.__getitem__
    # The open nodes, one per depth on the path: the node's deficit and
    # slack, and an iterator over its children not yet tried, built only
    # when the walk first comes back to the node. The child entered is
    # place[order[d]].
    dd = [0] * n
    ss = [0] * n
    pend: list = [None] * n
    nodes = 0
    d, deficit, slack = 0, 0, sum(ig)
    while True:
        nodes += 1  # enter the node at depth d
        if d == n:
            if best_obj is None or deficit < best_obj:
                best_obj = deficit
                best_place = place.copy()
                if best_obj - root_bound <= gap * best_obj:
                    # provably within tolerance
                    return best_obj, best_place, nodes, True, True
            i = -1
        else:
            if best_obj is not None and nodes >= limit:
                # The budget binds only once an incumbent exists, so
                # truncation still returns a feasible placement.
                if nodes >= node_limit:
                    return best_obj, best_place, nodes, True, False
                # the pause after the dive, at most once per walk
                limit = node_limit
                root_bound, best_obj, best_place = after_dive(best_obj,
                                                              best_place)
                if best_obj - root_bound <= gap * best_obj:
                    return best_obj, best_place, nodes, True, True
            dd[d], ss[d], pend[d] = deficit, slack, None
            # its first child: least (load - green, index) among the
            # feasible cloudlets with room
            i = -1
            for c in fsd[d]:
                if room[c]:
                    e = ex[c]
                    if i < 0 or e < e_min:
                        i, e_min = c, e
        while True:
            if i >= 0:
                # the child's bound, from the node's deficit and slack
                deficit, slack, wk = dd[d], ss[d], wd[d]
                e = ex[i]
                if e > 0:
                    deficit -= e
                else:
                    slack += e
                e += wk
                if e > 0:
                    deficit += e
                else:
                    slack -= e
                spill = wr[d] - slack
                if best_obj is None or deficit + (spill if spill > 0 else 0) < best_obj:
                    place[order[d]] = i
                    ex[i] = e
                    room[i] -= 1
                    d += 1
                    break
            # No child left, or this and every later sibling is pruned:
            # close the node and go back to its parent.
            if not d:
                return best_obj, best_place, nodes, False, False
            d -= 1
            i = place[order[d]]
            ex[i] -= wd[d]
            room[i] += 1
            pending = pend[d]
            if pending is None:
                # The node is back in its entry state, so its children in
                # (load - green, index) order start with the one just left.
                pending = pend[d] = iter(sorted(filter(has_room, fsd[d]),
                                                key=excess))
                next(pending)
            i = next(pending, -1)


def brute_force(inst: MilpInstance, enumeration_limit: int = 1_000_000) -> Solution:
    """Exhaustive oracle: enumerate every feasible placement.

    Enumerates the product of the avatars' ascending feasible sets, first
    avatar outermost, skips placements that overfill a cloudlet and keeps
    the first one that attains the minimum; `nodes_explored` counts the
    placements within capacity. Raises ValueError when the feasible-set
    product exceeds `enumeration_limit`, Infeasible when nothing fits.
    """
    combos = 1
    for fs in inst.feasible_sets:
        combos *= len(fs)
        if combos > enumeration_limit:
            raise ValueError(
                f"enumeration would exceed {enumeration_limit} placements")
    iw, ig = inst._iw, inst._ig
    cap = inst.count_capacity
    best_obj: int | None = None
    best_place: tuple[int, ...] | None = None
    leaves = 0
    for place in product(*_take(inst._ascending, inst.feasible_sets)):
        if any(place.count(i) > c for i, c in enumerate(cap)):
            continue
        leaves += 1
        obj = _int_objective(place, iw, ig)
        if best_obj is None or obj < best_obj:
            best_obj, best_place = obj, place
    if best_obj is None or best_place is None:
        raise Infeasible("no feasible placement exists")
    objective = _to_watts(best_obj)
    return Solution(
        assignment=Assignment(inst.avatar_ids, best_place),
        objective=objective,
        lower_bound=objective,
        gap=0.0,
        nodes_explored=leaves,
        proven_optimal=True,
        stage="search",
    )
