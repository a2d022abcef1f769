import gc
import hashlib
import random
import sys
from bisect import insort
from collections import Counter
from itertools import combinations
from dataclasses import fields, replace

import pytest

from gcnsim import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    Infeasible,
    MilpInstance,
    ScenarioConfig,
    Solution,
    SolverConfig,
    World,
    avatar_weights,
    brute_force,
    build_instance,
    default_delay_params,
    run,
    run_tables,
    solve,
    solver,
    strategy,
)
from gcnsim.refine import (_state, _widest_chain, descent, flow_bound,
                           transfer_chains)
from gcnsim.solver import (_int_objective, _search, _take, _to_watts,
                           fixed_point)

from conftest import (aggregate_bound, class_instance, from_map,
                      instance_from_loads, line_topology, random_instance)


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
        # the build leaves the weights to their first read, here
        assert not {"weights", "_iw"} & vars(built).keys()
        for field in fields(MilpInstance):
            assert getattr(built, field.name) == getattr(made, field.name)
        assert built == made
        assert (built._iw, built._ig) == (made._iw, made._ig)
        assert ([built._ascending[fs] for fs in built.feasible_sets]
                == [made._ascending[fs] for fs in made.feasible_sets])
        assert solve(built) == solve(made)

    def test_same_solution_as_the_constructor_on_a_day(self, gear_day_1000):
        # every GEAR slot of a 1000-UE day, seeded with FAR's placement
        for state in gear_day_1000[2]:
            slot = (state.ids, state.cpu, state.enb, state.green_power,
                    state.tables)
            seeded = SolverConfig(
                seed_assignment=strategy.far_assign(state).assignment)
            built, made = (solve(make(*slot), seeded)
                           for make in (build_instance, self.construct))
            for field in fields(Solution):
                assert getattr(built, field.name) == getattr(made, field.name)

    def test_first_avatar_on_an_enb_without_reach_named(self, power, delay):
        tables = self.tables(power, delay)
        cut = replace(tables, reach=(tables.reach[0], frozenset()),
                      reach_order=(tables.reach_order[0], ()),
                      reach_ascending=(tables.reach_ascending[0], ()))
        built, made = self.errors((3, 5, 8, 9), [50.0] * 4, [0, 1, 0, 1],
                                  [0.0, 0.0], cut)
        assert type(built) is type(made) is Infeasible
        assert str(built) == str(made) == "avatar 5 has an empty feasible set"

    def test_capacity_shortfall(self, power, delay):
        tables = self.tables(power, delay)  # 2 cloudlets of 16 avatars
        ids = range(33)
        built, made = self.errors(ids, [50.0] * 33, [0] * 33, [0.0, 0.0],
                                  tables)
        assert type(built) is type(made) is Infeasible
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


class TestRootBound:
    """`solve` takes the total weight of its root bound from the seed's
    tally; it is the bound the avatars' own weights give, exactly."""

    @staticmethod
    def derived(monkeypatch, decide) -> tuple[int, str]:
        """The root bound in fixed point that `solve` derives when
        `decide()` calls it, with the stage it returns from: the bound it
        hands its walk, or for a seed stop the lower bound it reports,
        which is that root bound."""
        handed = []

        def walk(inst, cfg, root_bound, *args):
            handed.append(root_bound)
            return _search(inst, cfg, root_bound, *args)
        with monkeypatch.context() as m:
            m.setattr(solver, "_search", walk)
            sol = decide()
        assert bool(handed) is (sol.stage != "seed")
        return ((handed[0] if handed else fixed_point([sol.lower_bound])[0]),
                sol.stage)

    @staticmethod
    def expected(inst) -> int:
        return max(0, sum(inst._iw) - sum(inst._ig))

    def test_random_instances(self, monkeypatch):
        rng = random.Random(31)
        stages = []
        for _ in range(400):
            inst = random_instance(rng)
            try:  # the optimum seeds a stop wherever it meets the bound
                seed = (brute_force(inst).assignment if rng.random() < 0.5
                        else TestSolve._greedy_seed(inst, rng))
            except Infeasible:
                continue
            if seed is None:
                continue
            bound, stage = self.derived(monkeypatch, lambda: solve(
                inst, SolverConfig(seed_assignment=seed)))
            assert bound == self.expected(inst)
            stages.append(stage)
        assert stages.count("seed") > 50
        assert len(stages) - stages.count("seed") > 50

    def test_a_day_at_1000_ues(self, gear_day_1000, monkeypatch):
        # each decision as GEAR makes it: the seed's tally is the FAR
        # record's loads
        stages = []
        for state in gear_day_1000[2]:
            bound, stage = self.derived(
                monkeypatch, lambda: strategy.gear_assign(state).solver_stats)
            inst = build_instance(state.ids, state.cpu, state.enb,
                                  state.green_power, state.tables)
            assert bound == self.expected(inst)
            stages.append(stage)
        assert Counter(stages) == {"seed": 64, "dive": 32}


class TestVisitOrder:
    """Which nodes the search enters, in which order, and where it stops.

    Every `Solution` field depends on the walk: the placement on which leaf
    came first, `nodes_explored` on every node entered, and the bound, gap
    and proof flag on where a budget or gap test stopped it. The digest
    hashes `Solution.stage` too, over enough cases that every stage occurs.
    It pins a walk that tries every feasible cloudlet with room at each
    node, also for interchangeable avatars (equal fixed-point weight and
    the same feasible set). A walk that forces those onto non-decreasing
    cloudlets gives another `Solution` in 149 of the 1,022 feasible cases,
    each with interchangeable avatars: against it this walk's objective is
    lower in 6 and higher in 1, and 4 proofs are lost. A change to the walk
    that is meant to visit the same nodes must leave it alone.
    """

    DIGEST = "01cc64e8328044ebaf77572179595930e887fcf1518c6fd5fd17309491ebaec4"

    @staticmethod
    def _case(rng, power):
        n = rng.randint(1, 10)
        m = rng.randint(1, 5)
        # few distinct weights and sets, so avatars are often
        # interchangeable
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
        for _ in range(1500):
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
                           seed_back, sol.stage)).encode() + b";")
            seen.add("proven" if sol.proven_optimal else "unproven")
            seen.add(sol.stage)
            if seed_back:
                seen.add("seed returned")
            elif config.seed_assignment is not None:
                seen.add("seed improved")
        assert seen == {"infeasible", "proven", "unproven", "seed returned",
                        "seed improved", "seed", "dive", "descent", "search"}
        assert h.hexdigest() == self.DIGEST

    def test_second_child_entered_after_first_is_left(self):
        # Avatar 0 (heavier, branched first) may use cloudlets 0 and 1,
        # avatar 1 cloudlets 0 and 2; each cloudlet hosts one avatar. Avatar
        # 0's children in (load - green, index) order are cloudlets 0, 1.
        # Cloudlet 0 leaves avatar 1 only the dark cloudlet 2, whose 4 W
        # leaf beats the 7 W seed; the walk then leaves cloudlet 0 and
        # enters cloudlet 1, whose leaf reaches the 3 W optimum.
        inst = MilpInstance(weights=(8.0, 4.0),
                            feasible_sets=(frozenset({0, 1}),
                                           frozenset({0, 2})),
                            green_power=(10.0, 5.0, 0.0),
                            count_capacity=(1, 1, 1))
        seed = Assignment(range(2), [1, 2])
        # The walk pauses after its dive, and both descents miss the 0 W
        # class-flow bound: from the dive's leaf nothing moves, and from
        # the seed avatar 0 moves to cloudlet 0, which gives that same 4 W
        # leaf, no lower than the incumbent.
        assert _flow_bound(inst) == 0
        assert _descent(inst, [0, 2]) == ([0, 2], fixed_point([4.0])[0])
        assert _descent(inst, [1, 2]) == ([0, 2], fixed_point([4.0])[0])
        sol = solve(inst, SolverConfig(seed_assignment=seed))
        assert sol.assignment.placement == {0: 1, 1: 0}
        assert sol.objective == brute_force(inst).objective == 3.0
        # root, child on 0, its leaf, child on 1, its leaf
        assert sol.nodes_explored == 5
        assert sol.stage == "search" and sol.proven_optimal

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


def _flow_bound(inst):
    """`refine.flow_bound` on an instance's own fixed-point fields."""
    return flow_bound(inst.feasible_sets, inst._iw, inst._ig, inst._ascending)


def _descent(inst, start):
    """`refine.descent` from `start` on an instance's own fields."""
    return descent(start, inst.feasible_sets, inst._iw, inst._ig,
                   inst.count_capacity, inst._ascending)


def _scan_all_descent(start, sets, weights, green, capacity, reach):
    """`refine.descent` without its skip rule: every pass scans every
    avatar over its green. The reference the skip must agree with."""
    place = list(start)
    ex, room, on = _state(place, weights, green, capacity)
    to = list(map(reach.__getitem__, sets))
    moved = True
    while moved:
        moved = False
        for k, a in enumerate(place):
            if ex[a] <= 0:
                continue
            w = weights[k]
            for b in to[k]:
                if ex[b] < 0 and room[b] and 0 < w < ex[a] - ex[b]:
                    ex[a] -= w
                    ex[b] += w
                    room[a] += 1
                    room[b] -= 1
                    place[k] = b
                    on[a].remove(k)
                    insort(on[b], k)
                    moved = True
                    break
        if moved:
            continue
        for k, a in enumerate(place):
            if ex[a] <= 0:
                continue
            w = weights[k]
            for b in to[k]:
                if ex[b] >= 0:
                    continue
                for j in on[b]:
                    t = w - weights[j]
                    if 0 < t < ex[a] - ex[b] and a in sets[j]:
                        ex[a] -= t
                        ex[b] += t
                        place[k], place[j] = b, a
                        on[a].remove(k)
                        insort(on[a], j)
                        on[b].remove(j)
                        insort(on[b], k)
                        moved = True
                        break
                if place[k] != a:
                    break
    return place, sum(e for e in ex if e > 0)


def _scan_all_chains(start, sets, weights, green, capacity, reach):
    """`refine.transfer_chains` alternated with `_scan_all_descent`."""
    place = list(start)
    to = list(map(reach.__getitem__, sets))
    while True:
        ex, room, on = _state(place, weights, green, capacity)
        chain = _widest_chain(ex, room, on, weights, to)
        if chain is None:
            return place, sum(e for e in ex if e > 0)
        for k, b in chain:
            place[k] = b
        place, _ = _scan_all_descent(place, sets, weights, green, capacity,
                                     reach)


def _assert_descents_match(start, *fields):
    """`descent` and `transfer_chains` from `start` give the scan-all
    reference's (placement, objective); returns whether the descent moved."""
    place, obj = descent(start, *fields)
    assert (place, obj) == _scan_all_descent(start, *fields)
    assert transfer_chains(start, *fields) == _scan_all_chains(start, *fields)
    return place != list(start)


class TestAfterTheDive:
    """The steps `solve` takes only when its walk is still unproven after
    the first n + 1 nodes: the class-flow bound, the descent and the rest
    of the walk."""

    def test_flow_bound_between_aggregate_bound_and_optimum(self, power):
        rng = random.Random(61)
        checked = above = 0
        while checked < 300:
            inst = class_instance(rng, power)
            try:
                optimum = brute_force(inst).objective
            except Infeasible:
                continue
            checked += 1
            flow = _flow_bound(inst)
            aggregate = fixed_point([aggregate_bound(inst, {})])[0]
            assert aggregate <= flow <= fixed_point([optimum])[0]
            above += flow > aggregate
        assert above > 30  # reach binds often enough for the test to bite

    @staticmethod
    def _gale(inst):
        """max(0, max over class sets S of weight(S) - green(N(S))) in
        fixed point, from the instance's avatars alone."""
        weight = {}
        for fs, w in zip(inst.feasible_sets, inst._iw):
            weight[fs] = weight.get(fs, 0) + w
        best = 0
        for size in range(1, len(weight) + 1):
            for chosen in combinations(weight, size):
                reached = frozenset().union(*chosen)
                best = max(best, sum(map(weight.get, chosen))
                           - sum(inst._ig[i] for i in reached))
        return best

    @staticmethod
    def _left_by_direct_routing(inst):
        """Weight that routing each class straight to its cloudlets, in
        ascending index and first-seen class order, leaves unplaced."""
        weight = {}
        for fs, w in zip(inst.feasible_sets, inst._iw):
            weight[fs] = weight.get(fs, 0) + w
        green, left = list(inst._ig), 0
        for fs, w in weight.items():
            for i in sorted(fs):
                amount = min(w, green[i])
                w -= amount
                green[i] -= amount
            left += w
        return left

    def test_flow_bound_equals_gales_formula(self, power):
        # 600 instances of at most 3 classes on up to 4 cloudlets, then 600
        # of up to 10 avatars, each with its own random set, on up to 5.
        # In some the direct routing strands weight that only a path back
        # through an already routed class can place.
        rng = random.Random(89)
        rerouted = 0
        for case in range(1200):
            inst = (class_instance(rng, power) if case < 600
                    else random_instance(rng, max_avatars=10,
                                         max_cloudlets=5))
            assert len(set(inst.feasible_sets)) <= 10
            bound = _flow_bound(inst)
            assert bound == self._gale(inst)
            rerouted += self._left_by_direct_routing(inst) > bound
        assert rerouted > 100

    def test_descent_skip_changes_nothing(self, power, bell_trace,
                                          monkeypatch):
        # From dive incumbents and from random seeds on the random and the
        # class-structured corpora, and from every start `solve` descends
        # from on the 7 ms-SLA searching day, the descent and the chains
        # give what the reference that scans every avatar gives.
        rng = random.Random(97)
        starts = []
        for case in range(600):
            inst = (random_instance(rng, max_avatars=10, max_cloudlets=5)
                    if case < 300 else class_instance(rng, power))
            seed = TestSolve._greedy_seed(inst, rng)
            if seed is None:
                continue
            dive = solve(inst, SolverConfig(node_limit=inst.n_avatars + 1,
                                            seed_assignment=seed))
            fields = (inst.feasible_sets, inst._iw, inst._ig,
                      inst.count_capacity, inst._ascending)
            for start in (dive.assignment, seed):
                starts.append((inst.check_assignment(start), *fields))
        random_starts = len(starts)
        monkeypatch.setattr(solver, "descent",
                            lambda *args: starts.append(args)
                            or descent(*args))
        delay = replace(default_delay_params(), sla_max_delay=7.0)
        run(ScenarioConfig(ue_count=300, slot_count=48, rng_seed=1), "gear",
            bell_trace, SolverConfig(node_limit=2000), delay=delay)
        moved = sum(_assert_descents_match(*args) for args in starts)
        assert random_starts > 900 and moved > 150
        assert len(starts) - random_starts == 4  # test_golden.py's 4

    def test_descent_fits_and_never_scores_above_its_start(self, power):
        rng = random.Random(67)
        improved = 0
        for _ in range(300):
            inst = class_instance(rng, power)
            seed = TestSolve._greedy_seed(inst, rng)
            if seed is None:
                continue
            start = inst.check_assignment(seed)
            place, obj = _descent(inst, start)
            inst.check_assignment(Assignment(inst.avatar_ids, place))
            assert obj == _int_objective(place, inst._iw, inst._ig)
            before = _int_objective(start, inst._iw, inst._ig)
            assert obj <= before
            improved += obj < before
        assert improved > 20

    @staticmethod
    def _scan_order_instance(weights, start, greens, caps):
        """Nine cloudlets; every avatar reaches 0, 1 and 8 through one
        frozenset whose iteration order is not ascending."""
        reach = frozenset([8, 1, 0])
        assert list(reach) != sorted(reach)
        inst = MilpInstance(weights=weights,
                            feasible_sets=(reach,) * len(weights),
                            green_power=greens, count_capacity=caps)
        return _descent(inst, start)

    def test_descent_scans_cloudlets_in_ascending_index(self):
        # A 1-move: avatar 0 over green on cloudlet 0; cloudlets 1 and 8
        # would each take it within their supply, and 1 comes first.
        greens = (0.0, 10.0) + (0.0,) * 6 + (10.0,)
        assert self._scan_order_instance((10.0,), [0], greens,
                                         (1,) * 9) == ([1], 0)
        # A swap: cloudlets 1 and 8 are full, so avatar 0 trades places with
        # the lighter avatar on cloudlet 1, the first it reaches.
        place, obj = self._scan_order_instance((10.0, 4.0, 4.0), [0, 1, 8],
                                               greens, (1,) * 9)
        assert (place, obj) == ([1, 0, 8], fixed_point([4.0])[0])

    def test_descent_proves_what_the_dive_left_open(self):
        # No avatar reaches cloudlet 1, whose 12 W of green the aggregate
        # bound counts: 33 W of weight against 32 W of green gives it 1 W,
        # the flow bound 33 - 20 = 13 W. The dive ends on 15 W, and the
        # descent reaches 13 W.
        inst = MilpInstance(
            weights=(6.0, 8.0, 3.0, 7.0, 9.0),
            feasible_sets=(frozenset({0, 3}),) + (frozenset({0, 2}),) * 3
            + (frozenset({0, 3}),),
            green_power=(10.0, 12.0, 2.0, 8.0), count_capacity=(2, 1, 2, 2))
        dive = solve(inst, SolverConfig(node_limit=inst.n_avatars + 1))
        assert (dive.stage, dive.objective, dive.proven_optimal) == (
            "dive", 15.0, False)
        sol = solve(inst)
        assert sol.stage == "descent"
        assert sol.objective == sol.lower_bound == _to_watts(_flow_bound(inst))
        assert sol.objective == brute_force(inst).objective == 13.0
        assert aggregate_bound(inst, {}) == 1.0
        assert sol.proven_optimal
        assert sol.nodes_explored == 7  # the dive's 6 nodes and one more

    def test_walk_goes_on_under_the_flow_bound(self):
        # One class reaches cloudlets 0-2 (15 W of green) with 29 W, so the
        # flow bound is 14 W against an aggregate bound of 5 W. Capacities
        # keep the optimum at 15 W, which the dive already found; the
        # descent cannot reach 14 W, and the walk goes on.
        inst = MilpInstance(weights=(6.0, 6.0, 9.0, 8.0),
                            feasible_sets=(frozenset({0, 1, 2}),) * 4,
                            green_power=(10.0, 2.0, 3.0, 9.0),
                            count_capacity=(1, 1, 3, 1))
        assert aggregate_bound(inst, {}) == 5.0
        assert brute_force(inst).objective == 15.0
        cut = solve(inst, SolverConfig(node_limit=20))
        assert (cut.stage, cut.objective, cut.proven_optimal) == (
            "search", 15.0, False)
        assert cut.lower_bound == _to_watts(_flow_bound(inst)) == 14.0
        assert cut.gap == pytest.approx(1 / 15)
        assert cut.nodes_explored == 20
        # with the default budget the walk exhausts the tree
        sol = solve(inst)
        assert (sol.stage, sol.objective, sol.lower_bound) == (
            "search", 15.0, 15.0)
        assert sol.proven_optimal and sol.nodes_explored == 21

    def test_descent_runs_where_reach_does_not_bind(self):
        # Both avatars' reach covers all the weight, so the class-flow bound
        # is the aggregate bound, 0 W. The dive puts both on cloudlet 0 (4 W
        # over its green), and the descent moves avatar 0 to cloudlet 1.
        inst = MilpInstance(weights=(7.0, 7.0),
                            feasible_sets=(frozenset({0, 1}), frozenset({0})),
                            green_power=(10.0, 8.0), count_capacity=(2, 2))
        assert (_flow_bound(inst) == fixed_point([aggregate_bound(inst, {})])[0]
                == 0)
        dive = solve(inst, SolverConfig(node_limit=inst.n_avatars + 1))
        assert (dive.stage, dive.objective) == ("dive", 4.0)
        sol = solve(inst)
        assert sol.stage == "descent" and sol.proven_optimal
        assert sol.assignment.placement == {0: 1, 1: 0}
        assert sol.objective == sol.lower_bound == 0.0
        assert sol.nodes_explored == 4  # the dive's 3 nodes and one more

    def test_seed_descent_reaches_the_bound_the_first_misses(self):
        # Avatar 1 (heavier) dives onto cloudlet 0, which hosts one avatar,
        # so avatar 0 goes to cloudlet 2, 2 W over its green, beating the
        # 6 W seed. No single move or swap improves that leaf, but from the
        # seed avatar 1 moves from cloudlet 2 to cloudlet 1 and reaches the
        # 0 W class-flow bound.
        inst = MilpInstance(weights=(4.0, 8.0),
                            feasible_sets=(frozenset({0, 2}),
                                           frozenset({0, 1, 2})),
                            green_power=(12.0, 8.0, 2.0),
                            count_capacity=(1, 2, 2))
        seed = Assignment(range(2), [0, 2])
        assert _flow_bound(inst) == 0
        dive = solve(inst, SolverConfig(node_limit=inst.n_avatars + 1,
                                        seed_assignment=seed))
        assert dive.assignment.placement == {0: 2, 1: 0}
        assert dive.objective == 2.0
        assert _descent(inst, [2, 0])[1] == fixed_point([2.0])[0]
        assert _descent(inst, [0, 2]) == ([0, 1], 0)
        sol = solve(inst, SolverConfig(seed_assignment=seed))
        assert sol.stage == "descent" and sol.proven_optimal
        assert sol.assignment.placement == {0: 0, 1: 1}
        assert sol.objective == sol.lower_bound == 0.0
        assert sol.nodes_explored == 4

    def test_chain_proves_what_moves_and_swaps_leave_open(self):
        # No avatar reaches cloudlet 0, so the flow bound is 12 - 7 = 5 W
        # against an aggregate bound of 0 W. The dive puts avatar 0 on
        # cloudlet 3 (1 W over its green) and avatar 1, which cloudlet 3
        # can no longer host, on the dark cloudlet 1: 7 W. No move or swap
        # improves that, but a chain does: avatar 1 moves from cloudlet 1 to
        # 3, which is then 7 W over its green, and avatar 0 leaves 3 for the
        # 2 W of cloudlet 2.
        inst = MilpInstance(weights=(6.0, 6.0),
                            feasible_sets=(frozenset({1, 2, 3}),
                                           frozenset({1, 3})),
                            green_power=(8.0, 0.0, 2.0, 5.0),
                            count_capacity=(2, 1, 1, 1))
        assert aggregate_bound(inst, {}) == 0.0
        assert _flow_bound(inst) == fixed_point([5.0])[0]
        dive = solve(inst, SolverConfig(node_limit=inst.n_avatars + 1))
        assert dive.assignment.placement == {0: 3, 1: 1}
        assert dive.objective == 7.0
        assert _descent(inst, [3, 1]) == ([3, 1], fixed_point([7.0])[0])
        ex, room, on = _state([3, 1], inst._iw, inst._ig, inst.count_capacity)
        assert _widest_chain(ex, room, on, inst._iw,
                             [(1, 2, 3), (1, 3)]) == [(1, 3), (0, 2)]
        sol = solve(inst)
        assert sol.stage == "descent" and sol.proven_optimal
        assert sol.assignment.placement == {0: 2, 1: 3}
        assert sol.objective == sol.lower_bound == 5.0
        assert sol.objective == brute_force(inst).objective
        assert sol.nodes_explored == 4  # the dive's 3 nodes and one more

    def test_chain_lowers_unused_green_only_where_it_ends(self, power):
        # Random placements that fill every cloudlet but one, which has room
        # for one more avatar, and each avatar reaching two cloudlets. Every
        # chain found leaves, at each step, the cloudlet the step before
        # entered, along distinct cloudlets, within reach and capacity; no
        # cloudlet's unused green rises, and the end's falls.
        rng = random.Random(83)
        lengths = []
        for _ in range(300):
            n, m = rng.randint(2, 20), rng.randint(2, 6)
            sets = [frozenset(rng.sample(range(m), 2)) for _ in range(4)]
            weights = avatar_weights([rng.uniform(10.0, 100.0)
                                      for _ in range(n)], power)
            fsets = [rng.choice(sets) for _ in range(n)]
            place = [rng.choice(sorted(fs)) for fs in fsets]
            caps = [place.count(i) for i in range(m)]
            caps[rng.randrange(m)] += 1
            inst = MilpInstance(
                weights=weights, feasible_sets=fsets,
                green_power=[rng.uniform(0.0, 2 * sum(weights) / m)
                             for _ in range(m)],
                count_capacity=caps)
            ex, room, on = _state(place, inst._iw, inst._ig, caps)
            chain = _widest_chain(ex, room, on, inst._iw,
                                  _take(inst._ascending, inst.feasible_sets))
            if chain is None:
                continue
            lengths.append(len(chain))
            left = [place[k] for k, _ in chain]
            entered = [i for _, i in chain]
            assert left[1:] == entered[:-1]
            assert len(set(left + entered)) == len(chain) + 1
            for k, i in chain:
                assert i in inst.feasible_sets[k]
                place[k] = i
            inst.check_assignment(Assignment(inst.avatar_ids, place))
            after = _state(place, inst._iw, inst._ig, caps)[0]
            for i, (e0, e1) in enumerate(zip(ex, after)):
                unused0, unused1 = max(0, -e0), max(0, -e1)
                assert (unused1 < unused0 if i == entered[-1]
                        else unused1 <= unused0)
            assert _int_objective(place, inst._iw, inst._ig) < sum(
                e for e in ex if e > 0)
        assert len(lengths) > 50 and sum(k > 1 for k in lengths) > 5

    @pytest.mark.parametrize("world_seed, slot, objective",
                             [(1001, 40, 40.111), (2001, 59, 42.325)])
    def test_tight_sla_walks_proven_by_a_chain(self, bell_trace, monkeypatch,
                                               world_seed, slot, objective):
        # Two 7 ms-SLA solves that moves and swaps leave unproven, and that
        # the walk after them does not prove in 100k nodes: transfer chains
        # reach their class-flow bound.
        solutions = []
        solve_first = strategy.solve

        def recording_solve(inst, config=None):
            solutions.append(solve_first(inst, config))
            return solutions[-1]

        monkeypatch.setattr(strategy, "solve", recording_solve)
        delay = replace(default_delay_params(), sla_max_delay=7.0)
        run(ScenarioConfig(ue_count=300, rng_seed=world_seed), "gear",
            bell_trace, delay=delay)
        sol = solutions[slot]
        assert sol.stage == "descent" and sol.proven_optimal
        assert sol.objective == sol.lower_bound
        assert round(sol.objective, 3) == objective

    def test_never_above_the_plain_walk(self, power, monkeypatch):
        # On random instances whose walk pauses, solve's answer is never
        # above the walk's without the pause at the same budget, and every
        # answer it calls optimal is the brute-force optimum: 400 instances
        # with green supply drawn per cloudlet, then 400 with one supply
        # shared by every cloudlet.
        paused, chained = [], []
        monkeypatch.setattr(solver, "flow_bound",
                            lambda *args: paused.append(args)
                            or flow_bound(*args))
        monkeypatch.setattr(solver, "transfer_chains",
                            lambda *args: chained.append(args)
                            or transfer_chains(*args))
        rng = random.Random(79)
        checked = better = 0
        while checked < 800:
            inst = class_instance(rng, power, equal_green=checked >= 400)
            seed = (TestSolve._greedy_seed(inst, rng) if rng.random() < 0.5
                    else None)
            config = SolverConfig(node_limit=rng.choice([10, 20, 100_000]),
                                  seed_assignment=seed)
            paused.clear()
            try:
                sol = solve(inst, config)
            except Infeasible:
                continue
            if not paused:
                continue
            checked += 1
            seed_place = seed_obj = None
            if seed is not None:
                seed_place, _, seed_obj, _ = inst.evaluate(seed)
            root = max(0, sum(inst._iw) - sum(inst._ig))
            plain = _search(inst, config, root, seed_obj, seed_place)[0]
            assert fixed_point([sol.objective])[0] <= plain
            better += fixed_point([sol.objective])[0] < plain
            if sol.proven_optimal:
                assert sol.objective == brute_force(inst).objective
        assert better > 20
        assert len(chained) > 200  # both descents missed the flow bound

    # A budget of at most n + 1 nodes never reaches the steps after the
    # first dive, so these solves are the dive alone. The digest pins a
    # dive that tries every cloudlet for interchangeable avatars too; one
    # that forces them onto non-decreasing cloudlets gives another
    # `Solution` in 23 of the 215 feasible cases, each with interchangeable
    # avatars: against it this dive's objective is lower in 1 and 1 proof
    # is lost.
    SHORT_BUDGET_DIGEST = (
        "7d0b0b153b8494356999d42e06f70f8fb9db35d366e2d2187858efef6998d2ed")

    def test_budget_within_the_first_dive_solves_as_before(self, power):
        rng = random.Random(71)
        h = hashlib.sha256()
        for _ in range(300):
            inst, config = TestVisitOrder._case(rng, power)
            config = replace(config,
                             node_limit=rng.randint(1, inst.n_avatars + 1))
            try:
                sol = solve(inst, config)
            except Infeasible:
                h.update(b"infeasible;")
                continue
            assert sol.stage in ("seed", "dive")
            h.update(repr((sorted(sol.assignment.placement.items()),
                           sol.objective, sol.lower_bound, sol.gap,
                           sol.nodes_explored, sol.proven_optimal,
                           sol.assignment is config.seed_assignment)
                          ).encode() + b";")
        assert h.hexdigest() == self.SHORT_BUDGET_DIGEST

    def test_gear_never_above_far_over_a_tight_sla_world(self, bell_trace,
                                                         monkeypatch):
        stages = []
        solve_first = strategy.solve

        def recording_solve(inst, config=None):
            sol = solve_first(inst, config)
            stages.append(sol.stage)
            return sol

        monkeypatch.setattr(strategy, "solve", recording_solve)
        config = ScenarioConfig(ue_count=300, rng_seed=1)
        delay = replace(default_delay_params(), sla_max_delay=7.0)
        world = World(config)
        far = run(config, "far", bell_trace, delay=delay, world=world)
        gear = run(config, "gear", bell_trace, delay=delay, world=world)
        assert len(gear.slots) == len(stages) == 96
        assert "descent" in stages  # the steps after the dive did run
        for f, g in zip(far.slots, gear.slots):
            assert g.ongrid_approx_wh <= f.ongrid_approx_wh

    def test_every_solve_proven_on_an_equal_cpu_world(self, bell_trace,
                                                      monkeypatch):
        # Equal CPU figures make many avatars interchangeable. Slot 40 is
        # the first of this world's slots whose solve a dive that forced
        # interchangeable avatars onto non-decreasing cloudlets walks to
        # the node limit unproven; the walk that tries every cloudlet
        # proves all 41.
        proven = []
        solve_first = strategy.solve

        def recording_solve(inst, config=None):
            sol = solve_first(inst, config)
            proven.append(sol.proven_optimal)
            return sol

        monkeypatch.setattr(strategy, "solve", recording_solve)
        config = ScenarioConfig(ue_count=300, cpu_range=(50.0, 50.0),
                                rng_seed=1, slot_count=41)
        run(config, "gear", bell_trace, SolverConfig(node_limit=100_000))
        assert len(proven) == 41 and all(proven)


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
        with pytest.raises(ValueError, match="enumeration would exceed"):
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
