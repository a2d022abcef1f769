import gc
import hashlib
import random
import sys
from dataclasses import replace

import pytest

from gcnsim import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    Infeasible,
    InfeasibleAvatar,
    InsufficientCapacity,
    MilpInstance,
    SolverConfig,
    TooLarge,
    aggregate_bound,
    avatar_weights,
    brute_force,
    build_instance,
    run_tables,
    solve,
)

from conftest import (from_map, instance_from_loads, line_topology,
                      random_instance)


def full_instance(weights, green, cap_each=100):
    """Every avatar may use every cloudlet; capacity effectively unbounded."""
    m = len(green)
    return MilpInstance(weights=tuple(weights),
                        feasible_sets=tuple(frozenset(range(m)) for _ in weights),
                        green_power=tuple(green),
                        count_capacity=tuple([cap_each] * m))


class TestBuildInstance:
    def test_weights_from_power_model(self, power, delay):
        topo = line_topology(2.0, 2)
        loads = [AvatarLoad(0, 10.0, 0), AvatarLoad(1, 100.0, 1)]
        specs = [CloudletSpec(server_count=2), CloudletSpec(server_count=3)]
        inst = instance_from_loads(loads, specs, [5.0, 7.0], topo, power, delay)
        assert inst.weights == pytest.approx((7.3, 25.3), rel=1e-12)
        # bit for bit the model's weight, which the engine accounts with
        assert inst.weights == tuple(avatar_weights([10.0, 100.0], power))
        assert inst.count_capacity == (32, 48)
        # 2 km apart, SLA radius 3.003 km: both cloudlets reachable from both
        assert inst.feasible_sets == (frozenset({0, 1}), frozenset({0, 1}))

    def test_zero_avatars_solves_to_zero(self, power, delay):
        topo = line_topology(2.0, 2)
        specs = [CloudletSpec(server_count=1)] * 2
        inst = instance_from_loads([], specs, [0.0, 0.0], topo, power, delay)
        sol = solve(inst)
        assert sol.objective == 0.0
        assert sol.assignment.placement == {}
        assert sol.proven_optimal

    def test_empty_feasible_set_rejected(self):
        with pytest.raises(InfeasibleAvatar) as err:
            MilpInstance(weights=(10.0,), feasible_sets=(frozenset(),),
                         green_power=(0.0,), count_capacity=(5,),
                         avatar_ids=(42,))
        assert err.value.avatar_id == 42

    def test_first_avatar_with_empty_set_named(self):
        ok, empty = frozenset({0}), frozenset()
        with pytest.raises(InfeasibleAvatar) as err:
            MilpInstance(weights=(1.0,) * 4,
                         feasible_sets=(ok, empty, ok, empty),
                         green_power=(0.0,), count_capacity=(5,),
                         avatar_ids=(7, 8, 9, 10))
        assert err.value.avatar_id == 8

    @pytest.mark.parametrize("ids", [(3, 3), (4, 2)])
    def test_avatar_ids_must_strictly_ascend(self, ids):
        with pytest.raises(ValueError, match="strictly ascend"):
            MilpInstance(weights=(1.0, 1.0),
                         feasible_sets=(frozenset({0}),) * 2,
                         green_power=(0.0,), count_capacity=(5,),
                         avatar_ids=ids)

    def test_loads_taken_in_ascending_avatar_id(self, power, delay):
        topo = line_topology(2.0, 2)
        specs = [CloudletSpec(server_count=1)] * 2
        loads = [AvatarLoad(5, 100.0, 1), AvatarLoad(2, 10.0, 0)]
        inst = instance_from_loads(loads, specs, [0.0, 0.0], topo, power, delay)
        assert inst.avatar_ids == (2, 5)
        assert inst.weights == pytest.approx((7.3, 25.3), rel=1e-12)

    def test_unknown_cloudlet_rejected(self):
        with pytest.raises(ValueError, match="unknown cloudlet"):
            MilpInstance(weights=(1.0, 1.0),
                         feasible_sets=(frozenset({0}), frozenset({0, 2})),
                         green_power=(0.0, 0.0), count_capacity=(5, 5))

    def test_feasible_sets_become_frozensets(self):
        shared = frozenset({0, 1})
        inst = MilpInstance(weights=(1.0, 1.0, 1.0),
                            feasible_sets=(shared, [1, 0], shared),
                            green_power=(0.0, 0.0), count_capacity=(5, 5))
        assert inst.feasible_sets == (shared,) * 3
        assert inst.feasible_sets[0] is shared
        assert all(type(fs) is frozenset for fs in inst.feasible_sets)

    def test_capacity_shortfall_rejected(self, power, delay):
        topo = line_topology(2.0, 2)
        specs = [CloudletSpec(server_count=1)] * 2
        loads = [AvatarLoad(k, 50.0, 0) for k in range(65)]  # cap is 2*16=32
        with pytest.raises(InsufficientCapacity):
            instance_from_loads(loads, specs, [0.0, 0.0], topo, power, delay)

    def test_fixed_point_is_round_half_even_of_scaled_watts(self):
        # k / 2**21 for odd k lies exactly halfway between two units
        ties = [k / 2**21 for k in (1, 3, 5, 7, 2**21 + 1, 2**30 + 3)]
        rng = random.Random(31)
        weights = ties + [rng.uniform(0.0, 500.0) for _ in range(50)]
        green = list(reversed(ties)) + [rng.uniform(0.0, 900.0)
                                        for _ in range(10)]
        inst = MilpInstance(weights=tuple(weights),
                            feasible_sets=(frozenset({0}),) * len(weights),
                            green_power=tuple(green),
                            count_capacity=(len(weights),) * len(green))
        assert inst._iw == tuple(round(w * 2**20) for w in weights)
        assert inst._ig == tuple(round(g * 2**20) for g in green)
        assert inst._iw[:6] == (0, 2, 2, 4, 2**20, 2**29 + 2)
        assert all(type(u) is int for u in inst._iw + inst._ig)


class TestTableBuild:
    """`build_instance` trusts what the run's tables guarantee, but on the
    same fields it raises what the validating constructor raises."""

    @staticmethod
    def tables(power, delay, server_count=1, sites=2):
        specs = [CloudletSpec(server_count=server_count)] * sites
        return run_tables(line_topology(2.0, sites), specs, power, delay)

    @staticmethod
    def construct(ids, cpus, enbs, green, tables):
        """The validating constructor on the fields `build_instance` uses."""
        return MilpInstance(
            weights=tuple(avatar_weights(cpus, tables.power)),
            feasible_sets=tuple(tables.reach[e] for e in enbs),
            green_power=tuple(green), count_capacity=tables.capacity,
            avatar_ids=ids)

    def errors(self, *slot):
        """What `build_instance` and the constructor raise on one slot."""
        raised = []
        for make in (build_instance, self.construct):
            with pytest.raises(Exception) as err:
                make(*slot)
            raised.append(err.value)
        return raised

    def test_same_instance_as_the_constructor(self, power, delay):
        tables = self.tables(power, delay, server_count=3, sites=3)
        rng = random.Random(4)
        ids = tuple(sorted(rng.sample(range(500), 40)))
        cpus = [rng.uniform(10.0, 100.0) for _ in ids]
        enbs = [rng.randrange(3) for _ in ids]
        slot = (ids, cpus, enbs, (0.0, 40.0, 250.0), tables)
        built, made = build_instance(*slot), self.construct(*slot)
        assert built == made
        assert (built._iw, built._ig) == (made._iw, made._ig)
        assert ([built._ascending[fs] for fs in built.feasible_sets]
                == [made._ascending[fs] for fs in made.feasible_sets])
        assert solve(built) == solve(made)

    def test_first_avatar_on_an_enb_without_reach_named(self, power, delay):
        tables = self.tables(power, delay)
        cut = replace(tables, reach=(tables.reach[0], frozenset()),
                      reach_order=(tables.reach_order[0], ()),
                      reach_ascending=(tables.reach_ascending[0], ()))
        built, made = self.errors((3, 5, 8, 9), [50.0] * 4, [0, 1, 0, 1],
                                  [0.0, 0.0], cut)
        assert type(built) is type(made) is InfeasibleAvatar
        assert built.avatar_id == made.avatar_id == 5
        assert str(built) == str(made)

    def test_capacity_shortfall(self, power, delay):
        tables = self.tables(power, delay)  # 2 cloudlets of 16 avatars
        ids = range(33)
        built, made = self.errors(ids, [50.0] * 33, [0] * 33, [0.0, 0.0],
                                  tables)
        assert type(built) is type(made) is InsufficientCapacity
        assert str(built) == str(made) == "capacity 32 < 33 avatars"

    @pytest.mark.parametrize("ids", [(3, 3), (4, 2), range(2, 0, -1)])
    def test_ids_that_do_not_ascend(self, power, delay, ids):
        built, made = self.errors(ids, [50.0, 60.0], [0, 1], [0.0, 0.0],
                                  self.tables(power, delay))
        assert type(built) is type(made) is ValueError
        assert str(built) == str(made) == "avatar ids must strictly ascend"

    def test_negative_green(self, power, delay):
        built, made = self.errors((0, 1), [50.0, 60.0], [0, 1], [0.0, -1.0],
                                  self.tables(power, delay))
        assert type(built) is type(made) is ValueError
        assert str(built) == str(made) == "green power must be non-negative"

    def test_green_of_the_wrong_length(self, power, delay):
        built, made = self.errors((0, 1), [50.0, 60.0], [0, 1],
                                  [0.0, 0.0, 0.0], self.tables(power, delay))
        assert type(built) is type(made) is ValueError
        assert str(built) == str(made) == "per-cloudlet field lengths disagree"


class TestCheckAssignment:
    """Each rejection names what `check_assignment` promises to name."""

    @staticmethod
    def reach_instance():
        # avatars 3, 5, 8, 9 on a path of three cloudlets
        return MilpInstance(
            weights=(1.0,) * 4,
            feasible_sets=(frozenset({0}), frozenset({0, 1}),
                           frozenset({1, 2}), frozenset({2})),
            green_power=(0.0,) * 3, count_capacity=(2, 1, 2),
            avatar_ids=(3, 5, 8, 9))

    def test_fitting_assignment_returns_cloudlets_in_instance_order(self):
        inst = self.reach_instance()
        assert inst.check_assignment(
            from_map({9: 2, 8: 2, 5: 1, 3: 0})) == [0, 1, 2, 2]

    @pytest.mark.parametrize("placement", [
        {3: 0, 5: 1, 9: 2},              # avatar 8 missing
        {3: 0, 5: 1, 8: 2, 9: 2, 4: 0},  # avatar 4 is not in the instance
        {3: 0, 5: 1, 8: 2, 10: 2},       # as many avatars, one of them wrong
        {},
    ])
    def test_missing_or_extra_avatar_rejected(self, placement):
        with pytest.raises(ValueError, match="^assignment does not cover the "
                           "avatar population$"):
            self.reach_instance().check_assignment(from_map(placement))

    @pytest.mark.parametrize("place", [(0, 1, 2), (0, 1, 2, 2, 0)])
    def test_index_form_of_another_length_rejected(self, place):
        inst = self.reach_instance()  # made over the instance's own ids
        with pytest.raises(ValueError, match="^assignment does not cover the "
                           "avatar population$"):
            inst.check_assignment(Assignment(inst.avatar_ids, place))

    @pytest.mark.parametrize("placement, named", [
        ({8: 0, 3: 1, 5: 1, 9: 2}, 3),  # 8 and 3 stray: lowest id named
        ({3: 0, 5: 1, 8: 2, 9: 1}, 9),
        ({3: 0, 5: -1, 8: 2, 9: 2}, 5),  # not a cloudlet at all
        ({3: 0, 5: 7, 8: 2, 9: 2}, 5),
        ({3: 0, 5: 0, 8: 1, 9: 0}, 9),  # stray avatar reported before the
    ])                                  # over-full cloudlet 0
    def test_avatar_outside_its_set_named(self, placement, named):
        with pytest.raises(ValueError, match=f"^avatar {named} placed outside "
                           "its feasible set$"):
            self.reach_instance().check_assignment(from_map(placement))

    @pytest.mark.parametrize("placement, named", [
        ({0: 1, 1: 1, 2: 0, 3: 0}, 0),  # cloudlets 0 and 1 both over
        ({0: 0, 1: 1, 2: 1, 3: 2}, 1),
        ({0: 0, 1: 2, 2: 2, 3: 2}, 2),
    ])
    def test_cloudlet_over_capacity_named(self, placement, named):
        inst = MilpInstance(weights=(1.0,) * 4,
                            feasible_sets=(frozenset({0, 1, 2}),) * 4,
                            green_power=(0.0,) * 3, count_capacity=(1, 1, 2))
        with pytest.raises(ValueError, match=f"^cloudlet {named} over "
                           "capacity in assignment$"):
            inst.check_assignment(from_map(placement))


class TestAggregateBound:
    def test_root_is_total_demand_minus_total_green(self):
        inst = full_instance([60.0, 40.0], [30.0, 30.0])
        assert aggregate_bound(inst, {}) == pytest.approx(40.0, rel=1e-12)

    def test_root_zero_when_green_covers_everything(self):
        inst = full_instance([60.0, 40.0], [200.0, 200.0])
        assert aggregate_bound(inst, {}) == 0.0

    def test_committed_deficit_with_nothing_remaining(self):
        inst = full_instance([50.0], [30.0, 100.0])
        # deficit max(0,50-30)=20; no remaining weight to spill
        assert aggregate_bound(inst, {0: 0}) == pytest.approx(20.0, rel=1e-12)

    def test_unknown_avatar_rejected(self):
        inst = full_instance([50.0], [30.0, 100.0])
        with pytest.raises(KeyError):
            aggregate_bound(inst, {7: 0})

    def test_never_exceeds_subproblem_optimum(self):
        rng = random.Random(404)
        checked = 0
        while checked < 60:
            inst = random_instance(rng, max_avatars=6, max_cloudlets=3)
            fixed = {}
            for k in range(inst.n_avatars):
                if rng.random() < 0.5:
                    fixed[inst.avatar_ids[k]] = rng.choice(sorted(inst.feasible_sets[k]))
            counts = [0] * inst.n_cloudlets
            for i in fixed.values():
                counts[i] += 1
            if any(c > cap for c, cap in zip(counts, inst.count_capacity)):
                continue
            best = self._exhaustive_completion(inst, fixed)
            if best is None:
                continue
            # oracle works in floats, the bound in 2^-20 W fixed point
            assert aggregate_bound(inst, fixed) <= best + 1e-5
            checked += 1

    def test_child_bound_non_decreasing_in_residual_load(self):
        # The lemma behind solve's lazy sibling bounds: placing one more
        # avatar on a cloudlet with residual load - green e gives a bound
        # that is non-decreasing in e, so along the children in (e, index)
        # order the first one that is pruned prunes every later one.
        rng = random.Random(2024)
        regimes = set()
        for _ in range(400):
            inst = random_instance(rng, max_avatars=8, max_cloudlets=5)
            fixed = {a: rng.choice(sorted(inst.feasible_sets[k]))
                     for k, a in enumerate(inst.avatar_ids)
                     if rng.random() < 0.5}
            load = [0.0] * inst.n_cloudlets
            for k, a in enumerate(inst.avatar_ids):
                if a in fixed:
                    load[fixed[a]] += inst.weights[k]
            for k, a in enumerate(inst.avatar_ids):
                if a in fixed:
                    continue
                residual = sorted((load[i] - inst.green_power[i], i)
                                  for i in inst.feasible_sets[k])
                bounds = [aggregate_bound(inst, fixed | {a: i})
                          for _, i in residual]
                assert bounds == sorted(bounds), (residual, bounds)
                w = inst.weights[k]
                regimes.update("surplus" if e <= -w else
                               "partial" if e < 0 else "deficit"
                               for e, _ in residual)
        assert regimes == {"surplus", "partial", "deficit"}

    @staticmethod
    def _exhaustive_completion(inst, fixed):
        """Independent oracle: best objective over completions of `fixed`."""
        free = [k for k in range(inst.n_avatars) if inst.avatar_ids[k] not in fixed]
        load = [0.0] * inst.n_cloudlets
        used = [0] * inst.n_cloudlets
        for k in range(inst.n_avatars):
            aid = inst.avatar_ids[k]
            if aid in fixed:
                load[fixed[aid]] += inst.weights[k]
                used[fixed[aid]] += 1
        best = None

        def rec(pos):
            nonlocal best
            if pos == len(free):
                obj = sum(max(0.0, l - g) for l, g in zip(load, inst.green_power))
                if best is None or obj < best:
                    best = obj
                return
            k = free[pos]
            for i in sorted(inst.feasible_sets[k]):
                if used[i] >= inst.count_capacity[i]:
                    continue
                load[i] += inst.weights[k]
                used[i] += 1
                rec(pos + 1)
                load[i] -= inst.weights[k]
                used[i] -= 1

        rec(0)
        return best


class TestSolve:
    def test_even_split_reaches_zero_ongrid(self):
        inst = full_instance([3.0, 3.0, 4.0, 4.0], [7.0, 7.0])
        sol = solve(inst)
        assert sol.objective == 0.0
        assert sol.proven_optimal
        loads = [0.0, 0.0]
        for k, i in sol.assignment.placement.items():
            loads[i] += inst.weights[k]
        assert sorted(loads) == [7.0, 7.0]

    def test_single_cloudlet_has_no_choice(self):
        inst = full_instance([10.0, 20.0], [25.0])
        sol = solve(inst)
        assert sol.objective == pytest.approx(5.0, abs=1e-5)
        assert sol.proven_optimal

    def test_capacity_conflict_is_infeasible(self):
        inst = MilpInstance(weights=(10.0, 20.0),
                            feasible_sets=(frozenset({0}), frozenset({0, 1})),
                            green_power=(0.0, 0.0), count_capacity=(1, 1))
        tight = MilpInstance(weights=(10.0, 20.0),
                             feasible_sets=(frozenset({0}), frozenset({0})),
                             green_power=(0.0, 0.0), count_capacity=(1, 1))
        assert solve(inst).proven_optimal  # sanity: the relaxed one is fine
        with pytest.raises(Infeasible):
            solve(tight)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(91)
        infeasible = 0
        for _ in range(120):
            inst = random_instance(rng)
            try:
                expected = brute_force(inst)
            except Infeasible:
                infeasible += 1
                with pytest.raises(Infeasible):
                    solve(inst)
                continue
            got = solve(inst)
            assert got.proven_optimal
            assert got.objective == expected.objective
            assert got.lower_bound <= got.objective
            assert got.gap == 0.0
        assert infeasible < 30  # generator should mostly produce solvable cases

    def test_matches_brute_force_with_duplicate_weights(self):
        rng = random.Random(17)
        for _ in range(40):
            base = [round(rng.uniform(5, 25), 2) for _ in range(rng.randint(1, 4))]
            weights = base + base  # mirrored population splits perfectly
            half_units = sum(round(w * (1 << 20)) for w in base)
            green = (half_units / (1 << 20), half_units / (1 << 20))
            inst = full_instance(weights, green)
            assert brute_force(inst).objective == 0.0
            assert solve(inst).objective == 0.0

    def test_warm_start_never_worsened(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng)
            seed = self._greedy_seed(inst, rng)
            if seed is None:
                continue
            seeded = SolverConfig(node_limit=3, seed_assignment=seed)
            sol = solve(inst, seeded)
            seed_obj = self._objective_of(inst, seed)
            # float oracle vs fixed-point objective: allow quantization slack
            assert sol.objective <= seed_obj + 1e-5

    def test_zero_green_makes_every_placement_equal(self):
        rng = random.Random(29)
        inst = full_instance([rng.uniform(5, 25) for _ in range(6)], [0.0, 0.0, 0.0])
        sol = solve(inst)
        assert sol.objective == pytest.approx(sum(inst.weights), abs=1e-4)
        assert sol.proven_optimal
        assert sol.nodes_explored <= 10  # root bound closes the gap immediately

    def test_node_limit_truncates_but_returns_feasible(self):
        rng = random.Random(31)
        inst = full_instance([rng.uniform(5, 25) for _ in range(8)],
                             [20.0, 20.0, 20.0, 20.0])
        sol = solve(inst, SolverConfig(node_limit=5))
        place = sol.assignment.placement
        assert set(place) == set(inst.avatar_ids)
        # budget binds once the first dive completes, so at most limit + depth
        assert sol.nodes_explored <= 5 + inst.n_avatars + 1
        assert sol.lower_bound <= sol.objective

    def test_gap_tolerance_allows_early_stop(self):
        inst = full_instance([3.0, 3.0, 4.0, 4.0, 5.0, 5.0], [12.0, 12.0])
        sol = solve(inst, SolverConfig(gap_tolerance=0.5))
        assert sol.proven_optimal
        assert sol.gap <= 0.5

    def test_truncated_solve_reports_honest_gap(self):
        rng = random.Random(47)
        # one cloudlet takes all the green: optimum is well above the root
        # bound, so a budget-starved run must admit a positive gap
        inst = MilpInstance(
            weights=tuple(rng.uniform(5, 25) for _ in range(10)),
            feasible_sets=tuple(frozenset({k % 2, 2}) for k in range(10)),
            green_power=(0.0, 0.0, 500.0), count_capacity=(10, 10, 1))
        seed_sol = solve(inst)  # full search for a reference incumbent
        sol = solve(inst, SolverConfig(node_limit=12,
                                       seed_assignment=seed_sol.assignment))
        assert sol.lower_bound <= sol.objective
        if not sol.proven_optimal:
            assert sol.gap > 0.0

    def test_unproven_solve_reports_the_root_aggregate_bound(self):
        # the optimum needs a search, which two nodes cannot finish
        inst = full_instance([6.0, 5.0, 4.0, 3.0, 2.0], [10.0, 10.0])
        sol = solve(inst, SolverConfig(node_limit=2))
        assert not sol.proven_optimal
        assert sol.lower_bound == aggregate_bound(inst, {})

    def test_deep_search_leaves_recursion_limit_unchanged(self):
        # one cloudlet: a single dive 5000 frames deep, past the default limit
        inst = full_instance([1.0] * 5000, [0.0], cap_each=5000)
        limit = sys.getrecursionlimit()
        assert limit < 5000
        assert solve(inst).proven_optimal
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("gap", [0.0, 1.0])  # 1.0: the seed shortcut
    def test_search_state_freed_without_cyclic_gc(self, gap):
        inst = random_instance(random.Random(3))
        seed = solve(inst).assignment
        gc.collect()
        gc.disable()
        try:
            solve(random_instance(random.Random(3)))
            solve(inst, SolverConfig(gap_tolerance=gap, seed_assignment=seed))
            brute_force(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deterministic_across_calls(self):
        rng = random.Random(37)
        for _ in range(10):
            inst = random_instance(rng)
            try:
                a = solve(inst)
            except Infeasible:
                continue
            b = solve(inst)
            assert a == b

    @staticmethod
    def _greedy_seed(inst, rng):
        used = [0] * inst.n_cloudlets
        placement = {}
        for k in range(inst.n_avatars):
            options = [i for i in sorted(inst.feasible_sets[k])
                       if used[i] < inst.count_capacity[i]]
            if not options:
                return None
            i = rng.choice(options)
            placement[inst.avatar_ids[k]] = i
            used[i] += 1
        return from_map(placement)

    @staticmethod
    def _objective_of(inst, assignment):
        load = [0.0] * inst.n_cloudlets
        for k in range(inst.n_avatars):
            load[assignment.placement[inst.avatar_ids[k]]] += inst.weights[k]
        return sum(max(0.0, l - g) for l, g in zip(load, inst.green_power))


class TestVisitOrder:
    """Which nodes the search enters, in which order, and where it stops.

    Every `Solution` field depends on the walk: the placement on which leaf
    came first, `nodes_explored` on every node entered, and the bound, gap
    and proof flag on where a budget or gap test stopped it. The digest was
    captured from the code before entering a node stopped sorting its
    children; a change to the walk that is meant to visit the same nodes
    must leave it alone.
    """

    DIGEST = "bc219a041a6ebbe0ec9cd9b06859157f19ac6b28164a2b739ab39288e4448ca1"

    @staticmethod
    def _case(rng, power):
        n = rng.randint(1, 10)
        m = rng.randint(1, 5)
        # few distinct weights and sets: repeats form symmetry groups
        pool = avatar_weights([rng.uniform(10.0, 100.0)
                               for _ in range(rng.randint(1, n))], power)
        sets = [frozenset(i for i in range(m) if rng.random() < 0.6)
                or frozenset({rng.randrange(m)}) for _ in range(3)]
        weights = [rng.choice(pool) for _ in range(n)]
        fsets = [rng.choice(sets) for _ in range(n)]
        # total room n plus a little slack, so capacities often bind
        caps = [0] * m
        for _ in range(n + rng.randint(0, 2)):
            caps[rng.randrange(m)] += 1
        # few distinct green supplies: children tie on residual green
        greens = [0.0, rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)]
        inst = MilpInstance(
            weights=tuple(weights), feasible_sets=tuple(fsets),
            green_power=tuple(rng.choice(greens) for _ in range(m)),
            count_capacity=tuple(caps))
        seed = None
        if rng.random() < 0.5:
            seed = TestSolve._greedy_seed(inst, rng)
        config = SolverConfig(node_limit=rng.choice([1, 2, 5, 20, 100_000]),
                              gap_tolerance=rng.choice([0.0, 0.05, 0.3]),
                              seed_assignment=seed)
        return inst, config

    def test_solutions_match_pinned_digest(self, power):
        rng = random.Random(9)
        h = hashlib.sha256()
        seen = set()
        for _ in range(400):
            inst, config = self._case(rng, power)
            try:
                sol = solve(inst, config)
            except Infeasible:
                h.update(b"infeasible;")
                seen.add("infeasible")
                continue
            seed_back = sol.assignment is config.seed_assignment
            h.update(repr((sorted(sol.assignment.placement.items()),
                           sol.objective, sol.lower_bound, sol.gap,
                           sol.nodes_explored, sol.proven_optimal,
                           seed_back)).encode() + b";")
            seen.add("proven" if sol.proven_optimal else "unproven")
            if seed_back:
                seen.add("seed returned")
            elif config.seed_assignment is not None:
                seen.add("seed improved")
        assert seen == {"infeasible", "proven", "unproven", "seed returned",
                        "seed improved"}
        assert h.hexdigest() == self.DIGEST

    def test_second_child_entered_after_first_is_left(self):
        # Avatar 0 (heavier, branched first) may use any cloudlet; avatar 1
        # only cloudlet 1. Avatar 0's children in (load - green, index)
        # order are cloudlets 1, 2, 0: 1 and 2 tie on residual green and
        # the lower index goes first. Cloudlet 1 leads to a 3 W leaf, so
        # the walk leaves it and enters cloudlet 2, whose leaf reaches 0 W,
        # the root bound.
        inst = MilpInstance(weights=(8.0, 7.0),
                            feasible_sets=(frozenset({0, 1, 2}),
                                           frozenset({1})),
                            green_power=(10.0, 12.0, 12.0),
                            count_capacity=(2, 2, 2))
        sol = solve(inst)
        assert sol.assignment.placement == {0: 2, 1: 1}
        assert sol.objective == 0.0
        # root, child on 1, its leaf, child on 2, its leaf
        assert sol.nodes_explored == 5

    def test_node_with_every_cloudlet_full_closes_without_a_child(self):
        # Avatar 0 goes first to green cloudlet 0 and fills it; avatar 1,
        # which may use only cloudlet 0, then has no child, so that node
        # closes. Avatar 0's second child, the dark cloudlet 1, leads to
        # the only placement.
        inst = MilpInstance(weights=(6.0, 5.0),
                            feasible_sets=(frozenset({0, 1}), frozenset({0})),
                            green_power=(10.0, 0.0),
                            count_capacity=(1, 1))
        sol = solve(inst)
        assert sol.assignment.placement == {0: 1, 1: 0}
        assert sol.objective == 6.0
        assert sol.proven_optimal
        # root, the closed node, child on 1, its leaf
        assert sol.nodes_explored == 4
        assert sol.objective == brute_force(inst).objective


class TestBruteForce:
    def test_prefers_green_cloudlet(self):
        inst = full_instance([10.0], [10.0, 0.0])
        sol = brute_force(inst)
        assert sol.objective == 0.0
        assert sol.assignment.placement == {0: 0}
        assert sol.proven_optimal

    def test_one_placement_deeper_than_the_recursion_limit(self):
        # 1500 avatars, each with feasible set {0}: a single placement, and
        # more avatars than the interpreter's default recursion limit
        inst = full_instance([1.0] * 1500, [10.0], cap_each=1500)
        sol = brute_force(inst)
        assert sol.objective == 1490.0
        assert sol.nodes_explored == 1

    def test_guard_rejects_huge_enumerations(self):
        inst = full_instance([10.0] * 30, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(TooLarge):
            brute_force(inst)

    def test_optimum_never_below_aggregate_conservation(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = random_instance(rng)
            try:
                sol = brute_force(inst)
            except Infeasible:
                continue
            floor = max(0.0, sum(inst.weights) - sum(inst.green_power))
            # float floor vs fixed-point optimum: quantization slack
            assert sol.objective >= floor - 1e-5
