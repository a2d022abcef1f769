import importlib
import random
from dataclasses import replace

import pytest

from gcnsim import (
    AvatarLoad,
    CloudletSpec,
    ScenarioConfig,
    SolarTrace,
    SolverConfig,
    World,
    compute_slot_metrics,
    enb_indices,
    init_topology,
    init_ues,
    run,
    step_mobility,
)
from gcnsim import engine, model, solver, strategy
from gcnsim.solver import Infeasible
from gcnsim.strategy import StrategyOutcome, far_assign

from conftest import from_map, line_topology, state_from_loads


def dark_trace():
    return SolarTrace(tuple([0.0] * 24))


def single_site_state(loads, green, power, delay, server_count=2):
    topo = line_topology(1.0, 1)
    specs = (CloudletSpec(server_count=server_count),)
    prev = from_map({a.avatar_id: 0 for a in loads})
    return state_from_loads(loads, (green,), prev, topo, specs, power, delay)


class TestSlotMetrics:
    def test_seventeen_avatars_both_models(self, power, delay):
        loads = [AvatarLoad(k, 10.0, 0) for k in range(17)]
        state = single_site_state(loads, 0.0, power, delay)
        outcome = StrategyOutcome(state.prev_assignment)
        metrics = compute_slot_metrics(3, state, outcome)
        # two active servers: 199.1 W * 0.25 h; linearized: 124.1 W * 0.25 h
        assert metrics.ongrid_exact_wh == pytest.approx(49.775, rel=1e-12)
        assert metrics.ongrid_approx_wh == pytest.approx(31.025, rel=1e-12)
        assert metrics.slot == 3
        assert metrics.max_delay_ms == 0.0
        assert metrics.sla_violations == 0
        assert metrics.migrations == 0

    def test_green_surplus_no_ongrid(self, power, delay):
        loads = [AvatarLoad(0, 10.0, 0)]
        state = single_site_state(loads, 1000.0, power, delay)
        outcome = StrategyOutcome(state.prev_assignment)
        metrics = compute_slot_metrics(0, state, outcome)
        assert metrics.ongrid_exact_wh == 0.0
        assert metrics.ongrid_approx_wh == 0.0

    def test_migrations_counted_against_previous(self, grid_topo, power,
                                                 delay):
        specs = tuple(CloudletSpec(server_count=2)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(0, 50.0, 5), AvatarLoad(1, 50.0, 6)]

        def moved(prev):
            state = state_from_loads(loads, (0.0,) * 16, prev, grid_topo,
                                     specs, power, delay)
            outcome = far_assign(state)
            assert outcome.assignment.placement == {0: 5, 1: 6}
            return compute_slot_metrics(0, state, outcome).migrations
        assert moved(from_map({0: 5, 1: 2})) == 1
        # an avatar the previous placement does not place counts as moved
        assert moved(from_map({0: 5})) == 1
        assert moved(from_map({})) == 2


class TestRun:
    def test_empty_world_produces_zero_metrics(self, bell_trace):
        cfg = ScenarioConfig(ue_count=0, slot_count=12)
        result = run(cfg, "far", bell_trace)
        assert len(result.slots) == 12
        assert result.total_ongrid_exact_wh == 0.0
        assert result.total_ongrid_approx_wh == 0.0
        assert result.total_migrations == 0
        assert all(s.max_delay_ms == 0.0 for s in result.slots)

    def test_dark_day_strategies_agree_exactly(self):
        cfg = ScenarioConfig(ue_count=40, slot_count=20)
        far = run(cfg, "far", dark_trace())
        gear = run(cfg, "gear", dark_trace())
        assert far.total_ongrid_approx_wh == gear.total_ongrid_approx_wh
        assert far.total_ongrid_exact_wh == gear.total_ongrid_exact_wh
        assert far.slots == gear.slots  # identical placements slot by slot

    def test_common_random_numbers_across_strategies(self, bell_trace):
        cfg = ScenarioConfig(ue_count=30, slot_count=48)
        far = run(cfg, "far", bell_trace)
        gear = run(cfg, "gear", bell_trace)
        for fs, gs in zip(far.slots, gear.slots):
            assert fs.green == gs.green
            # same world: the linearized demand is placement-independent
            assert sum(fs.power_approx) == pytest.approx(sum(gs.power_approx),
                                                         rel=1e-12)

    def test_reproducible(self, bell_trace):
        cfg = ScenarioConfig(ue_count=25, slot_count=30)
        assert run(cfg, "gear", bell_trace) == run(cfg, "gear", bell_trace)

    def test_slot_dominance_and_conservation(self, bell_trace):
        cfg = ScenarioConfig(ue_count=60, slot_count=96)
        far = run(cfg, "far", bell_trace)
        gear = run(cfg, "gear", bell_trace)
        for fs, gs in zip(far.slots, gear.slots):
            assert gs.ongrid_approx_wh <= fs.ongrid_approx_wh
            for s in (fs, gs):
                floor = 0.25 * max(0.0, sum(s.power_approx) - sum(s.green))
                assert s.ongrid_approx_wh >= floor - 1e-6

    def test_exact_accounting_dominates_linearized(self, bell_trace):
        cfg = ScenarioConfig(ue_count=45, slot_count=96)
        for strategy in ("far", "gear"):
            result = run(cfg, strategy, bell_trace)
            for s in result.slots:
                assert s.ongrid_exact_wh >= s.ongrid_approx_wh - 1e-9
                # the gap is only the server-count ceiling: under one standby
                # share per occupied cloudlet, energy-scaled
                occupied = sum(1 for p in s.power_approx if p > 0.0)
                ceiling = 0.25 * 80.0 * (1 - 1 / 16) * occupied
                assert s.ongrid_exact_wh - s.ongrid_approx_wh <= ceiling + 1e-9

    def test_sla_clean_everywhere(self, bell_trace, delay):
        cfg = ScenarioConfig(ue_count=50, slot_count=96)
        for strategy in ("far", "gear"):
            result = run(cfg, strategy, bell_trace)
            assert all(s.sla_violations == 0 for s in result.slots)
            assert all(s.max_delay_ms <= delay.sla_max_delay for s in result.slots)

    def test_totals_are_slot_sums(self, bell_trace):
        cfg = ScenarioConfig(ue_count=20, slot_count=24)
        result = run(cfg, "gear", bell_trace)
        assert result.total_ongrid_exact_wh == sum(s.ongrid_exact_wh
                                                   for s in result.slots)
        assert result.total_ongrid_approx_wh == sum(s.ongrid_approx_wh
                                                    for s in result.slots)
        assert result.total_migrations == sum(s.migrations for s in result.slots)

    def test_unknown_strategy_rejected(self, bell_trace):
        with pytest.raises(ValueError):
            run(ScenarioConfig(), "nearest", bell_trace)

    def test_infeasible_scenario_reports_cleanly(self, bell_trace):
        cfg = ScenarioConfig(ue_count=5000, capacity_range=(1, 1))
        with pytest.raises(Infeasible):
            run(cfg, "far", bell_trace)

    def test_gear_survives_far_greedy_failure(self, bell_trace):
        # FAR's greedy runs out of room at slot 23, but a placement exists
        cfg = ScenarioConfig(capacity_range=(1, 2), ue_count=300,
                             slot_count=48, rng_seed=1)
        with pytest.raises(Infeasible, match="slot 23"):
            run(cfg, "far", bell_trace)
        gear = run(cfg, "gear", bell_trace)
        assert len(gear.slots) == 48
        assert all(s.sla_violations == 0 for s in gear.slots)

    def test_node_budget_respected_but_feasible(self, bell_trace):
        cfg = ScenarioConfig(ue_count=40, slot_count=48)
        tight = run(cfg, "gear", bell_trace, SolverConfig(node_limit=50))
        roomy = run(cfg, "gear", bell_trace, SolverConfig(node_limit=100_000))
        assert all(s.sla_violations == 0 for s in tight.slots)
        assert roomy.total_ongrid_approx_wh <= tight.total_ongrid_approx_wh + 1e-9


class TestWorld:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Count calls of the slot kernel, one per drawn slot."""
        calls = [0]
        step = engine.step_mobility

        def counted(*args):
            calls[0] += 1
            return step(*args)
        monkeypatch.setattr(engine, "step_mobility", counted)
        return calls

    def test_shared_world_matches_fresh_runs(self, bell_trace):
        cfg = ScenarioConfig(ue_count=60, slot_count=48, rng_seed=5)
        world = World(cfg)
        for strategy in ("far", "gear"):
            assert (run(cfg, strategy, bell_trace, world=world)
                    == run(cfg, strategy, bell_trace))

    def test_world_reused_at_another_kappa(self, bell_trace):
        cfg = ScenarioConfig(ue_count=60, slot_count=48)
        world = World(cfg)
        run(cfg, "far", bell_trace, world=world)
        derated = replace(cfg, kappa=0.3)
        for strategy in ("gear", "far"):
            assert (run(derated, strategy, bell_trace, world=world)
                    == run(derated, strategy, bell_trace))

    @pytest.mark.parametrize("change", [{"ue_count": 61}, {"rng_seed": 2},
                                        {"slot_count": 47}])
    def test_world_of_another_config_rejected(self, bell_trace, change):
        cfg = ScenarioConfig(ue_count=60, slot_count=48)
        with pytest.raises(ValueError, match="world"):
            run(replace(cfg, **change), "far", bell_trace, world=World(cfg))

    def test_each_slot_drawn_once(self, bell_trace, kernel_calls):
        cfg = ScenarioConfig(ue_count=30, slot_count=7)
        world = World(cfg)
        assert kernel_calls[0] == 0  # construction draws no slot
        run(cfg, "far", bell_trace, world=world)
        assert kernel_calls[0] == 7
        run(cfg, "gear", bell_trace, world=world)
        assert kernel_calls[0] == 7

    def test_private_world_keeps_only_the_slot_being_read(
            self, bell_trace, monkeypatch):
        made = []

        class Recorded(World):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)
        monkeypatch.setattr(engine, "World", Recorded)
        cfg = ScenarioConfig(ue_count=10, slot_count=4)
        shared = World(cfg)
        assert run(cfg, "far", bell_trace) == run(cfg, "far", bell_trace,
                                                  world=shared)
        private, = made
        assert private.columns(3) == shared.columns(3)
        with pytest.raises(IndexError):
            private.columns(2)  # read once, in order: slot 2 was not kept

    def test_drawn_cpu_out_of_range_rejected(self, monkeypatch):
        step = engine.step_mobility

        def overdrawn(*args):
            cpu, enbs = step(*args)
            cpu[-1] = 100.5
            return cpu, enbs
        monkeypatch.setattr(engine, "step_mobility", overdrawn)
        with pytest.raises(ValueError, match=r"^avatar 2 has CPU 100.5, "
                           r"outside \[0, 100\]$"):
            run(ScenarioConfig(ue_count=3, slot_count=2), "far", dark_trace())

    def test_slots_drawn_in_order_and_replayed(self):
        world = World(ScenarioConfig(ue_count=5, slot_count=3))
        with pytest.raises(IndexError):
            world.columns(1)
        first = [list(column) for column in world.columns(0)]
        assert [len(column) for column in first] == [5, 5]  # ids 0..4
        assert [list(column) for column in world.columns(0)] == first
        world.columns(1)
        world.columns(2)
        with pytest.raises(IndexError):
            world.columns(3)
        assert [list(column) for column in world.columns(0)] == first

    @pytest.mark.parametrize("grid_dim, code", [(4, "B"), (17, "H")])
    def test_enbs_recorded_as_the_kernel_draws_them(self, grid_dim, code):
        # one byte per avatar and slot on the default 16-site grid
        cfg = ScenarioConfig(grid_dim=grid_dim, ue_count=200, slot_count=3)
        world = World(cfg)
        rng = random.Random(cfg.rng_seed)
        ues = init_ues(cfg, init_topology(cfg, rng)[0], rng)
        for t in range(cfg.slot_count):
            _, enbs = step_mobility(ues, 900.0, cfg, rng)
            assert enbs.typecode == code
            assert world.columns(t)[1] == enbs
            assert list(enbs) == enb_indices(ues.x, ues.y, grid_dim,
                                              cfg.area_side)


class TestOncePerRun:
    """What no slot changes is computed once per run, and the engine hands
    the world's columns to the strategies without per-avatar objects."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count calls of `name` through every binding in the package."""
        calls = [0]
        modules = [importlib.import_module(f"gcnsim.{m}")
                   for m in ("model", "scenario", "solver", "strategy",
                             "engine", "cli")]
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_reach_and_delay_tabulated_once_whatever_the_slot_count(
            self, bell_trace, monkeypatch):
        counts = {}
        for k in (1, 6):
            with monkeypatch.context() as m:
                order = self.count_calls(m, "nearest_feasible_order")
                delay = self.count_calls(m, "propagation_delay")
                cfg = ScenarioConfig(ue_count=40, slot_count=k)
                for strategy in ("far", "gear"):
                    run(cfg, strategy, bell_trace)
                counts[k] = (order[0], delay[0])
        sites = ScenarioConfig().grid_dim ** 2
        assert counts[1] == counts[6] == (2, 2 * sites * sites)  # two runs

    def test_engine_decisions_build_no_avatar_objects(
            self, bell_trace, monkeypatch):
        rows = [0]
        from_columns = AvatarLoad.from_columns.__func__

        def counted(cls, *args):
            rows[0] += 1
            return from_columns(cls, *args)
        monkeypatch.setattr(AvatarLoad, "from_columns", classmethod(counted))
        decisions = [0]
        gear = engine.gear_assign

        def gear_counted(*args, **kwargs):
            decisions[0] += 1
            return gear(*args, **kwargs)
        monkeypatch.setattr(engine, "gear_assign", gear_counted)
        cfg = ScenarioConfig(ue_count=40, slot_count=5)
        for strategy in ("far", "gear"):
            run(cfg, strategy, bell_trace)
        assert decisions[0] == 5
        assert rows[0] == 0


class TestOncePerDecision:
    """One GEAR decision at 1000 avatars weighs the slot once, builds no
    placement map, and checks and scores each warm start at most once."""

    @pytest.fixture(scope="class")
    def states(self, bell_trace):
        """Slot 0 of a 1000-avatar day, as the engine hands it to GEAR: all
        dark, so FAR's placement meets the root bound; and the same slot
        with green supply on every third cloudlet, where the solver dives
        and improves on FAR."""
        captured = []
        gear = engine.gear_assign

        def capture(state, *args):
            captured.append(state)
            return gear(state, *args)
        engine.gear_assign = capture
        try:
            run(ScenarioConfig(ue_count=1000, slot_count=1), "gear",
                bell_trace)
        finally:
            engine.gear_assign = gear
        dark = captured[0]
        sunny = replace(dark, green_power=tuple(
            300.0 if i % 3 == 0 else 0.0 for i in range(len(dark.green_power))))
        return {"root stop": dark, "dive": sunny}

    def test_initial_placement_is_in_the_slots_index_form(self, states):
        # made over the slot's own ids, so slot 0 reads its index form
        # instead of mapping its dict
        state = states["root stop"]
        ids = range(len(state.cpu))
        prev = state.prev_assignment
        assert prev.ids == ids
        assert prev.cloudlets(ids) is prev.place

    @pytest.mark.parametrize("kind", ["root stop", "dive"])
    def test_each_fact_established_once(self, states, kind, monkeypatch):
        state = states[kind]
        weighed = TestOncePerRun.count_calls(monkeypatch, "avatar_weights")
        made = []
        init = model.Assignment.__init__

        def counted_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(model.Assignment, "__init__", counted_init)
        fars = []
        far_assign = strategy.far_assign

        def far(state):
            fars.append(far_assign(state))
            return fars[-1]
        monkeypatch.setattr(strategy, "far_assign", far)
        checked, scored = [], []
        check = solver.MilpInstance.check_assignment
        score = solver.MilpInstance.score

        def counted_check(inst, assignment):
            checked.append([assignment])
            checked[-1].append(check(inst, assignment))  # its index form
            return checked[-1][1]

        def counted_score(inst, place):
            scored.append(place)
            return score(inst, place)
        monkeypatch.setattr(solver.MilpInstance, "check_assignment",
                            counted_check)
        monkeypatch.setattr(solver.MilpInstance, "score", counted_score)

        outcome = strategy.gear_assign(state)

        far_made, sol = fars[0].assignment, outcome.solver_stats
        improved = sol.assignment is not far_made
        assert (sol.nodes_explored > 1) is improved is (kind == "dive")
        assert outcome.assignment is (sol.assignment if improved else far_made)
        assert weighed[0] == 1
        # FAR's placement, and the solver's when it improved on FAR
        assert len(made) == 1 + improved
        assert made[0] is far_made and made[-1] is sol.assignment
        assert not any("placement" in vars(a) for a in made)
        # each check is [assignment] plus, if it passed, the index form
        far_checks = [c for c in checked if c[0] is far_made]
        assert len(far_checks) == 1
        assert sum(p is far_checks[0][1] for p in scored) == 1
        prev_checks = [c for c in checked if c[0] is state.prev_assignment]
        assert len(prev_checks) <= 1
        assert sum(p is c[1] for p in scored for c in prev_checks
                   if len(c) == 2) <= 1
