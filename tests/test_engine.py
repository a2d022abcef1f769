import importlib
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from gcnsim import (
    AvatarLoad,
    CloudletSpec,
    ScenarioConfig,
    SolarTrace,
    SolverConfig,
    World,
    compute_slot_metrics,
    default_delay_params,
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

    def test_private_world_kept_whole_once_the_run_returns(
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
        assert engine._last_world is private
        for t in range(cfg.slot_count):  # every slot replays, in any order
            assert private.columns(3 - t) == shared.columns(3 - t)

    def test_far_then_gear_at_any_kappa_draw_the_world_once(
            self, bell_trace, kernel_calls):
        cfg = ScenarioConfig(ue_count=30, slot_count=7)
        derated = replace(cfg, kappa=0.3)
        runs = [(cfg, "far"), (cfg, "gear"), (derated, "gear")]
        results = [run(c, strategy, bell_trace) for c, strategy in runs]
        assert kernel_calls[0] == cfg.slot_count
        assert results == [run(c, strategy, bell_trace, world=World(c))
                           for c, strategy in runs]

    def test_another_config_drops_the_remembered_world(self, bell_trace,
                                                        kernel_calls):
        a = ScenarioConfig(ue_count=30, slot_count=7)
        b = replace(a, rng_seed=2)
        first = run(a, "far", bell_trace)
        run(b, "far", bell_trace)
        assert run(a, "far", bell_trace) == first
        assert kernel_calls[0] == 3 * a.slot_count  # a is drawn twice

    def test_run_that_raises_remembers_nothing(self, bell_trace, monkeypatch,
                                               kernel_calls):
        cfg = ScenarioConfig(ue_count=3, slot_count=4)
        counted = engine.step_mobility

        def overdrawn_last_slot(*args):
            cpu, enbs = counted(*args)
            if kernel_calls[0] == cfg.slot_count:
                cpu[-1] = 100.5
            return cpu, enbs
        monkeypatch.setattr(engine, "step_mobility", overdrawn_last_slot)
        with pytest.raises(ValueError, match="avatar 2 has CPU 100.5"):
            run(cfg, "far", bell_trace)  # fails with the world fully drawn
        monkeypatch.setattr(engine, "step_mobility", counted)
        assert (run(cfg, "far", bell_trace)
                == run(cfg, "far", bell_trace, world=World(cfg)))
        assert kernel_calls[0] == 3 * cfg.slot_count  # the run redrew

    def test_given_world_neither_reads_nor_fills_the_remembered_one(
            self, bell_trace, kernel_calls):
        cfg = ScenarioConfig(ue_count=30, slot_count=7)
        run(cfg, "far", bell_trace, world=World(cfg))
        run(cfg, "far", bell_trace)
        assert kernel_calls[0] == 2 * cfg.slot_count  # not filled
        run(cfg, "gear", bell_trace, world=World(cfg))
        assert kernel_calls[0] == 3 * cfg.slot_count  # not read
        run(cfg, "gear", bell_trace)
        assert kernel_calls[0] == 3 * cfg.slot_count  # nor dropped

    def test_readme_library_example_draws_its_world_once(self, capsys,
                                                         kernel_calls):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("\n## Library use\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        saved, unit = capsys.readouterr().out.split(maxsplit=1)
        assert unit == "Wh saved\n"
        assert float(saved) > 0
        assert kernel_calls[0] == ScenarioConfig().slot_count  # 96

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
        init_topology(cfg, rng)
        ues = init_ues(cfg, rng)
        for t in range(cfg.slot_count):
            _, enbs = step_mobility(ues, cfg, rng)
            assert enbs.typecode == code
            assert world.columns(t)[1] == enbs
            assert list(enbs) == enb_indices(ues.x, ues.y, grid_dim,
                                              cfg.area_side)


@pytest.fixture
def greedy_calls(monkeypatch):
    """Count runs of FAR's greedy for a slot (the initial placement,
    called from the engine, is not counted)."""
    calls = [0]
    greedy = strategy.far_placement

    def counted(*args):
        calls[0] += 1
        return greedy(*args)
    monkeypatch.setattr(strategy, "far_placement", counted)
    return calls


class TestFarRecord:
    """FAR's placement and tally are worked out once per world slot and
    (power, delay) pair, and every run on the world reads them."""

    def test_far_first_and_gear_first_days_agree(self, bell_trace):
        cfg = ScenarioConfig(ue_count=60, slot_count=48, rng_seed=3)
        far_first, gear_first = World(cfg), World(cfg)
        far = run(cfg, "far", bell_trace, world=far_first)
        gear = run(cfg, "gear", bell_trace, world=far_first)
        assert run(cfg, "gear", bell_trace, world=gear_first) == gear
        assert run(cfg, "far", bell_trace, world=gear_first) == far
        # GEAR moves away from FAR on some slots and keeps it on others
        moved = [f != g for f, g in zip(far.slots, gear.slots)]
        assert True in moved and False in moved

    def test_far_first_and_gear_first_agree_at_1000_ues(self, bell_trace,
                                                        gear_day_1000):
        # GEAR-first fills each record's loads from its instance, and its
        # accounting reads the loads its decisions folded
        gear_first, gear, _ = gear_day_1000
        cfg = gear_first.config
        far_first = World(cfg)
        far = run(cfg, "far", bell_trace, world=far_first)
        assert run(cfg, "gear", bell_trace, world=far_first) == gear
        assert run(cfg, "far", bell_trace, world=gear_first) == far
        assert gear.total_ongrid_approx_wh < far.total_ongrid_approx_wh

    def test_kappa_sweep_runs_the_greedy_once_per_slot(self, bell_trace,
                                                        greedy_calls):
        cfg = ScenarioConfig(ue_count=30, slot_count=7)
        derated = replace(cfg, kappa=0.3)
        runs = [(cfg, "far"), (cfg, "gear"), (derated, "gear")]
        results = [run(c, name, bell_trace) for c, name in runs]
        assert greedy_calls[0] == cfg.slot_count
        assert results == [run(c, name, bell_trace, world=World(c))
                           for c, name in runs]

    def test_another_delay_recomputes_the_record(self, bell_trace,
                                                 greedy_calls):
        cfg = ScenarioConfig(ue_count=60, slot_count=12)
        world = World(cfg)
        tight = replace(default_delay_params(), sla_max_delay=7.0)
        first = run(cfg, "far", bell_trace, world=world)
        assert greedy_calls[0] == cfg.slot_count
        assert (run(cfg, "far", bell_trace, delay=tight, world=world)
                == run(cfg, "far", bell_trace, delay=tight, world=World(cfg)))
        assert greedy_calls[0] == 3 * cfg.slot_count
        # the world keeps one pair's records: the first pair's are gone
        assert run(cfg, "far", bell_trace, world=world) == first
        assert greedy_calls[0] == 4 * cfg.slot_count

    def test_far_failure_recorded_with_its_message(self, bell_trace,
                                                   greedy_calls):
        # FAR's greedy runs out of room at slot 23, but a placement exists
        cfg = ScenarioConfig(capacity_range=(1, 2), ue_count=300,
                             slot_count=24, rng_seed=1)
        world = World(cfg)
        with pytest.raises(Infeasible, match="^slot 23: FAR's "
                           "nearest-with-room greedy failed") as first:
            run(cfg, "far", bell_trace, world=world)
        gear = run(cfg, "gear", bell_trace, world=world)  # falls back
        with pytest.raises(Infeasible) as again:
            run(cfg, "far", bell_trace, world=world)
        assert str(again.value) == str(first.value)
        assert greedy_calls[0] == cfg.slot_count
        # GEAR first: the same fallback, and FAR then fails alike
        gear_first = World(cfg)
        assert run(cfg, "gear", bell_trace, world=gear_first) == gear
        with pytest.raises(Infeasible) as after_gear:
            run(cfg, "far", bell_trace, world=gear_first)
        assert str(after_gear.value) == str(first.value)

    def test_world_keeps_no_assignment_or_placement_map(self, bell_trace):
        cfg = ScenarioConfig(ue_count=50, slot_count=12)
        world = World(cfg)
        for name in ("far", "gear"):
            run(cfg, name, bell_trace, world=world)
        kept = list(vars(world).values())
        while kept:
            value = kept.pop()
            assert not isinstance(value, (model.Assignment, dict))
            if isinstance(value, (list, tuple)):
                kept.extend(value)
            elif isinstance(value, strategy.Tally):
                kept.extend([value.greedy, value.loads, value.exact])
        records = world.far_records(default_delay_params())
        assert len(records) == cfg.slot_count
        for record in records:
            place, counts = record.greedy
            # one byte per avatar, and a few numbers per cloudlet
            assert place.typecode == "B" and len(place) == cfg.ue_count
            assert len(counts) == len(record.loads[0]) == 16

    def test_threads_sharing_a_world_agree(self, bell_trace):
        cfg = ScenarioConfig(ue_count=40, slot_count=12)
        world = World(cfg)
        for t in range(cfg.slot_count):
            world.columns(t)  # a fully drawn world is only read
        expected = [run(cfg, name, bell_trace, world=World(cfg))
                    for name in ("far", "gear")]
        results, errors = [], []

        def day(order):
            try:
                got = {name: run(cfg, name, bell_trace, world=world)
                       for name in order}
                results.append([got["far"], got["gear"]])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=day, args=(order,))
                       for order in [("far", "gear"), ("gear", "far")] * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * len(threads)


class TestTally:
    """A tally a strategy hands over is its assignment's tally: the slot
    accounting reads the figures a fresh tally of the placement gives."""

    DAY = ScenarioConfig(ue_count=60, slot_count=48, rng_seed=3)
    DAYS = {
        # UEs that never move: GEAR keeps the previous placement at slots
        # 38 and 39 (test_strategy's static day)
        "static": (ScenarioConfig(ue_count=200, slot_count=48, rng_seed=1,
                                  speed_range=(0.0, 0.0)), ("gear",)),
        "far-first": (DAY, ("far", "gear")),
        "gear-first": (DAY, ("gear", "far")),
        # FAR's greedy fails at slot 23, where GEAR falls back
        "far-fails": (ScenarioConfig(capacity_range=(1, 2), ue_count=300,
                                     slot_count=24, rng_seed=1),
                      ("gear", "far")),
    }

    @pytest.mark.parametrize("kind", DAYS)
    def test_handed_over_tally_accounts_as_a_fresh_one(self, kind,
                                                       bell_trace,
                                                       monkeypatch):
        account, handed = engine.compute_slot_metrics, []

        def compared(t, state, outcome):
            metrics = account(t, state, outcome)
            fresh = account(t, state, StrategyOutcome(outcome.assignment))
            assert metrics == fresh, f"slot {t}"
            handed.append(("record" if outcome.tally is state.far else
                           "previous" if outcome.assignment
                           is state.prev_assignment else "other"))
            return metrics
        monkeypatch.setattr(engine, "compute_slot_metrics", compared)
        cfg, order = self.DAYS[kind]
        world = World(cfg)
        for name in order:
            if (kind, name) == ("far-fails", "far"):
                with pytest.raises(Infeasible, match="^slot 23: "):
                    run(cfg, name, bell_trace, world=world)
            else:
                run(cfg, name, bell_trace, world=world)
        assert {"record", "other"} <= set(handed)
        if kind == "static":
            assert "previous" in handed


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
    """One GEAR decision at 1000 avatars weighs the slot at most once, and
    not at all when it stops at FAR's placement, builds no placement map,
    and checks and scores each warm start at most once; FAR's placement,
    counts and loads come from the slot's record, worked out at most once
    per record."""

    @staticmethod
    def count_weighing(monkeypatch, avatars: int) -> list[int]:
        """Count the slot's weighings through every binding: calls of
        `avatar_weights`, and of `fixed_point` on `avatars` values (green
        supply, one value per cloudlet, is converted in every decision)."""
        weighed = TestOncePerRun.count_calls(monkeypatch, "avatar_weights")
        converted = [0]
        fixed_point = solver.fixed_point

        def counted(watts):
            watts = tuple(watts)
            converted[0] += len(watts) == avatars
            return fixed_point(watts)
        for module in (solver, engine):
            monkeypatch.setattr(module, "fixed_point", counted)
        return [weighed, converted]

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
    def test_each_fact_established_once(self, states, kind, monkeypatch,
                                        greedy_calls):
        state = states[kind]
        weighed, converted = self.count_weighing(monkeypatch, len(state.cpu))
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
        checked, scored, folded = [], [], []
        check = solver.MilpInstance.check_assignment
        score = solver.MilpInstance.score
        fold = solver.MilpInstance.loads

        def counted_check(inst, assignment, counts=None):
            checked.append([assignment, counts])
            checked[-1].append(check(inst, assignment, counts))  # index form
            return checked[-1][2]

        def counted_score(inst, place, loads=None):
            scored.append((place, loads))
            return score(inst, place, loads)

        def counted_fold(inst, place):
            folded.append(place)
            return fold(inst, place)
        monkeypatch.setattr(solver.MilpInstance, "check_assignment",
                            counted_check)
        monkeypatch.setattr(solver.MilpInstance, "score", counted_score)
        monkeypatch.setattr(solver.MilpInstance, "loads", counted_fold)
        # the run that captured the root stop filled its record; the dive's
        # state, made by replace, has a record of its own, still empty
        filled = state.far.greedy is not None
        assert filled is (kind == "root stop")

        outcome = strategy.gear_assign(state)

        far_made, sol = fars[0].assignment, outcome.solver_stats
        improved = sol.assignment is not far_made
        assert (sol.nodes_explored > 1) is improved is (kind == "dive")
        assert outcome.assignment is (sol.assignment if improved else far_made)
        # the root stop reads FAR's loads from the record and its total
        # weight from them; the dive weighs the slot to fold FAR's loads
        # and to search
        assert weighed[0] == converted[0] == (kind == "dive")
        # FAR's placement, and the solver's when it improved on FAR
        assert len(made) == 1 + improved
        assert made[0] is far_made and made[-1] is sol.assignment
        assert not any("placement" in vars(a) for a in made)
        # each check is [assignment, counts] plus, if it passed, the index
        # form
        far_checks = [c for c in checked if c[0] is far_made]
        assert len(far_checks) == 1
        far_place = far_checks[0][2]
        assert far_place is far_made.place
        # FAR's capacity check reads the record's counts and its score the
        # record's loads, folded only if no reader had filled them
        assert far_checks[0][1] is state.far.greedy[1]
        assert [loads for p, loads in scored if p is far_place] == [
            state.far.loads]
        assert sum(p is far_place for p in folded) == (not filled)
        assert greedy_calls[0] == (not filled)
        prev_checks = [c for c in checked if c[0] is state.prev_assignment]
        assert len(prev_checks) <= 1
        assert sum(p is c[2] for p, _ in scored for c in prev_checks
                   if len(c) == 3) <= 1

    def test_a_root_stop_weighs_no_avatar(self, gear_day_1000, monkeypatch):
        # every decision of the day that stops at FAR's recorded placement,
        # where the previous placement does not fit, weighs nothing
        stops = 0
        for state in gear_day_1000[2]:
            with monkeypatch.context() as m:
                weighed, converted = self.count_weighing(m, len(state.cpu))
                sol = strategy.gear_assign(state).solver_stats
            inst = solver.build_instance(state.ids, state.cpu, state.enb,
                                         state.green_power, state.tables)
            with pytest.raises(ValueError):
                inst.check_assignment(state.prev_assignment)
            if sol.stage == "seed":
                stops += 1
                assert weighed[0] == converted[0] == 0
            else:
                assert weighed[0] == converted[0] == 1
        assert stops == 64
