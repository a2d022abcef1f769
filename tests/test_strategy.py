import functools
import math
import operator
import random
from dataclasses import replace

import pytest

from gcnsim import (
    AvatarLoad,
    CloudletSpec,
    Infeasible,
    PowerParams,
    SolverConfig,
    avatar_weights,
    brute_force,
    build_instance,
    propagation_delay,
    run_tables,
)
from gcnsim import ScenarioConfig, engine, run
from gcnsim.engine import compute_slot_metrics
from gcnsim.model import SLOT_HOURS
from gcnsim.solver import _int_objective
from gcnsim.strategy import SlotState, far_assign, far_placement, gear_assign

from conftest import (from_map, instance_from_loads, line_topology,
                      state_from_loads)


def make_state(topo, loads, green, prev=None, specs=None, power=None, delay=None,
               default_power=None, default_delay=None):
    power = power or default_power
    delay = delay or default_delay
    specs = specs or tuple(CloudletSpec(server_count=2)
                           for _ in range(topo.site_count))
    prev = prev if prev is not None else from_map(
        {a.avatar_id: a.attached_enb for a in loads})
    return state_from_loads(loads, green, prev, topo, specs, power, delay)


@pytest.fixture
def state_factory(grid_topo, power, delay):
    def factory(loads, green, **kwargs):
        return make_state(grid_topo, loads, green,
                          default_power=power, default_delay=delay, **kwargs)
    return factory


def instance_of(state):
    return build_instance(state.ids, state.cpu, state.enb,
                          list(state.green_power), state.tables)


def power_of(inst, assignment):
    """GEAR's float score of a complete assignment."""
    return inst.score(assignment.cloudlets(inst.avatar_ids))[0]


def zero_green(topo):
    return [0.0] * topo.site_count


class TestSlotState:
    def test_enb_outside_the_topology_rejected(self, grid_topo,
                                               state_factory):
        loads = [AvatarLoad(0, 50.0, 3), AvatarLoad(4, 50.0, 16),
                 AvatarLoad(2, 50.0, 17)]
        with pytest.raises(ValueError, match="^avatar 2 is attached to eNB "
                           "17, outside the 16-site topology$"):
            state_factory(loads, zero_green(grid_topo))

    @staticmethod
    def direct_state(topo, power, delay, cpu, enb):
        """A state built with the dataclass constructor, ids 0..n-1."""
        specs = (CloudletSpec(server_count=2),) * topo.site_count
        return SlotState(range(len(enb)), cpu, enb, tuple(zero_green(topo)),
                         from_map({}), run_tables(topo, specs, power, delay))

    @pytest.mark.parametrize("enb", [-1, 16])
    def test_directly_built_state_checks_its_enbs(self, grid_topo, power,
                                                  delay, enb):
        with pytest.raises(ValueError, match=f"^avatar 1 is attached to eNB "
                           f"{enb}, outside the 16-site topology$"):
            self.direct_state(grid_topo, power, delay, [50.0] * 3,
                              [3, enb, 17])

    @pytest.mark.parametrize("cpu", [-0.5, 100.5, math.nan])
    def test_directly_built_state_checks_its_cpu(self, grid_topo, power,
                                                 delay, cpu):
        # between two figures in range, where min() and max() miss a NaN
        with pytest.raises(ValueError, match=f"^avatar 1 has CPU {cpu}, "
                           r"outside \[0, 100\]$"):
            self.direct_state(grid_topo, power, delay, [50.0, cpu, 60.0],
                              [3, 3, 3])

    def test_cpu_rejected_before_an_instance_weighs_it(self, grid_topo,
                                                       power, delay):
        # build_instance trusts the state and skips MilpInstance's weight
        # check, where avatar 0 would weigh -14.7 W.
        cpu = [-100.0, 50.0, 250.0]
        assert avatar_weights(cpu, power)[0] == pytest.approx(-14.7)
        with pytest.raises(ValueError, match=r"^avatar 0 has CPU -100.0, "
                           r"outside \[0, 100\]$"):
            self.direct_state(grid_topo, power, delay, cpu, [0, 0, 1])

    @pytest.mark.parametrize("ids", [(0, 0), (4, 2)])
    def test_ids_must_strictly_ascend(self, grid_topo, power, delay, ids):
        specs = (CloudletSpec(server_count=2),) * grid_topo.site_count
        with pytest.raises(ValueError, match="^avatar ids must strictly "
                           "ascend$"):
            SlotState(ids, [50.0, 60.0], [3, 3],
                      tuple(zero_green(grid_topo)), from_map({}),
                      run_tables(grid_topo, specs, power, delay))

    def test_repeated_load_id_rejected(self, grid_topo, state_factory):
        loads = [AvatarLoad(0, 50.0, 3), AvatarLoad(0, 60.0, 3)]
        with pytest.raises(ValueError, match="^avatar ids must strictly "
                           "ascend$"):
            state_factory(loads, zero_green(grid_topo), prev=from_map({}))

    def test_directly_built_state_checks_its_column_lengths(
            self, grid_topo, power, delay):
        with pytest.raises(ValueError, match="^per-avatar column lengths "
                           "disagree$"):
            self.direct_state(grid_topo, power, delay, [50.0], [3, 4])


class TestFar:
    def test_colocated_cloudlet_preferred(self, grid_topo, state_factory):
        loads = [AvatarLoad(0, 50.0, 5)]
        outcome = far_assign(state_factory(loads, zero_green(grid_topo)))
        assert outcome.assignment.placement == {0: 5}

    def test_overflow_goes_to_next_nearest(self, grid_topo, power, delay):
        # one avatar per cloudlet at most, both UEs in cell 5
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(0, 50.0, 5), AvatarLoad(1, 50.0, 5)]
        state = make_state(grid_topo, loads, zero_green(grid_topo), specs=specs,
                           power=tiny, default_delay=delay)
        outcome = far_assign(state)
        assert outcome.assignment.placement[0] == 5
        # the 2-km ring around site 5 is {1, 4, 6, 9}; lowest index wins
        assert outcome.assignment.placement[1] == 1
        d = grid_topo.distances[1][5]
        assert d == pytest.approx(2.0)

    def test_all_reachable_cloudlets_full(self, grid_topo, delay):
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        # corner cell 0 reaches only {0, 1, 4, 5}: a fifth avatar cannot fit
        loads = [AvatarLoad(k, 50.0, 0) for k in range(5)]
        state = make_state(grid_topo, loads, zero_green(grid_topo), specs=specs,
                           power=tiny, default_delay=delay)
        with pytest.raises(Infeasible):
            far_assign(state)

    def test_greedy_failure_names_avatar_enb_and_full_cloudlets(
            self, grid_topo, delay):
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(k, 50.0, 0) for k in range(5)]
        state = make_state(grid_topo, loads, zero_green(grid_topo), specs=specs,
                           power=tiny, default_delay=delay)
        with pytest.raises(Infeasible) as err:
            far_assign(state)
        # sites 1 and 4 tie at 2 km: the lower index is nearer
        assert str(err.value) == (
            "FAR's nearest-with-room greedy failed: no room for avatar 4 at "
            "eNB 0, whose in-range cloudlets (nearest first) 0, 1, 4, 5 are "
            "all full; this does not prove that no placement exists")

    def test_placement_independent_of_load_order(self, grid_topo, delay):
        # one avatar per cloudlet, eight UEs crowding the centre cells: who
        # is placed first decides who overflows, and FAR places in ascending
        # avatar id whatever order the loads come in
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(k, 50.0, enb)
                 for k, enb in enumerate([5, 6, 5, 9, 6, 5, 10, 9])]
        reference = far_assign(make_state(
            grid_topo, loads, zero_green(grid_topo), specs=specs, power=tiny,
            default_delay=delay)).assignment.placement
        rng = random.Random(5)
        reordered = set()
        for _ in range(20):
            shuffled = rng.sample(loads, len(loads))
            state = make_state(grid_topo, shuffled, zero_green(grid_topo),
                               specs=specs, power=tiny, default_delay=delay)
            assert far_assign(state).assignment.placement == reference
            greedy_in_given_order = far_placement(
                [a.avatar_id for a in shuffled],
                [a.attached_enb for a in shuffled],
                run_tables(grid_topo, specs, tiny, delay)).placement
            reordered.add(greedy_in_given_order != reference)
        assert True in reordered  # capacity binds: order matters to the greedy

    @staticmethod
    def _greedy(pairs, tables):
        """The nearest-with-room greedy, one avatar at a time; None if it
        finds no room for some avatar."""
        room = list(tables.capacity)
        placement = {}
        for avatar_id, enb in pairs:
            for i in tables.reach_order[enb]:
                if room[i] > 0:
                    placement[avatar_id] = i
                    room[i] -= 1
                    break
            else:
                return None
        return placement

    def test_placement_is_the_one_at_a_time_greedy(self, grid_topo, delay):
        # FAR places every avatar at its nearest cloudlet in one pass when
        # no cloudlet is the nearest of more avatars than it hosts; random
        # slots on both sides of that line, and slots where the greedy
        # fails, give what the one-at-a-time greedy gives
        rng = random.Random(12)
        kinds = set()
        for _ in range(300):
            specs = tuple(CloudletSpec(server_count=rng.randint(1, 3))
                          for _ in range(grid_topo.site_count))
            tables = run_tables(grid_topo, specs,
                                PowerParams(server_capacity=rng.choice([1, 4])),
                                delay)
            n = rng.randint(0, 60)
            ids = rng.sample(range(1000), n)
            enbs = [rng.randrange(grid_topo.site_count) for _ in range(n)]
            pairs = list(zip(ids, enbs))
            nearest = [tables.reach_order[enb][0] for enb in enbs]
            overflow = any(nearest.count(i) > c
                           for i, c in enumerate(tables.capacity))
            expected = self._greedy(pairs, tables)
            if expected is None:
                kinds.add("greedy fails")
                with pytest.raises(Infeasible, match="greedy failed"):
                    far_placement(ids, enbs, tables)
                continue
            kinds.add("overflow" if overflow else "all nearest")
            got = far_placement(ids, enbs, tables).placement
            assert list(got.items()) == list(expected.items())
        assert kinds == {"greedy fails", "overflow", "all nearest"}

    def test_empty_reach_fails_with_the_greedys_message(self, grid_topo,
                                                        power, delay):
        specs = tuple(CloudletSpec(server_count=2)
                      for _ in range(grid_topo.site_count))
        tables = run_tables(grid_topo, specs, power, delay)
        no_reach = replace(tables, reach_order=((),) + tables.reach_order[1:])
        with pytest.raises(Infeasible) as err:
            far_placement([3, 7], [5, 0], no_reach)
        assert str(err.value) == (
            "FAR's nearest-with-room greedy failed: no room for avatar 7 at "
            "eNB 0, whose in-range cloudlets (nearest first)  are all full; "
            "this does not prove that no placement exists")


class TestGear:
    def test_zero_green_returns_far_placement(self, grid_topo, state_factory):
        rng = random.Random(2)
        loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                 for k in range(12)]
        state = state_factory(loads, zero_green(grid_topo))
        far = far_assign(state)
        gear = gear_assign(state)
        assert gear.assignment.placement == far.assignment.placement
        assert gear.solver_stats is not None
        assert gear.solver_stats.objective == pytest.approx(
            sum(7.3 + 0.2 * (a.total_cpu - 10.0) for a in loads), abs=1e-4)

    def test_green_rich_cloudlet_attracts_everything(self, power, delay):
        # three sites in a line; UEs sit at the middle one and can reach all
        topo = line_topology(2.0, 3)
        specs = tuple(CloudletSpec(server_count=2) for _ in range(3))
        loads = [AvatarLoad(k, 40.0, 1) for k in range(5)]
        green = [0.0, 0.0, 1000.0]
        state = make_state(topo, loads, green, specs=specs,
                           default_power=power, default_delay=delay)
        gear = gear_assign(state)
        assert all(i == 2 for i in gear.assignment.placement.values())
        inst = instance_from_loads(loads, list(specs), green, topo, power,
                                   delay)
        assert gear.solver_stats.objective == brute_force(inst).objective

    def test_never_worse_than_far(self, grid_topo, state_factory):
        rng = random.Random(6)
        for _ in range(15):
            loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                     for k in range(rng.randint(1, 25))]
            green = [rng.uniform(0, 120) for _ in range(16)]
            state = state_factory(loads, green)
            far = far_assign(state)
            gear = gear_assign(state, SolverConfig(node_limit=2000))
            inst = instance_of(state)
            assert (power_of(inst, gear.assignment)
                    <= power_of(inst, far.assignment))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_scorer_is_the_engines_linearized_accounting(
            self, state_factory, shuffle):
        rng = random.Random(12)
        for _ in range(20):
            loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                     for k in range(rng.randint(1, 40))]
            if shuffle:
                rng.shuffle(loads)
            green = [rng.choice((0.0, rng.uniform(0, 300))) for _ in range(16)]
            state = state_factory(loads, green)
            for outcome in (far_assign(state),
                            gear_assign(state, SolverConfig(node_limit=2000))):
                metrics = compute_slot_metrics(0, state, outcome)
                assert (power_of(instance_of(state), outcome.assignment)
                        * SLOT_HOURS == metrics.ongrid_approx_wh)

    @pytest.mark.parametrize("strategy", ["far", "gear"])
    def test_one_pass_score_is_the_accounting_on_every_slot_of_a_day(
            self, bell_trace, strategy, monkeypatch):
        # The float half of GEAR's one-pass score against the engine's
        # accounting, and its fixed-point half against the search's own
        # objective, on the index form every placement carries.
        days = []
        account = engine.compute_slot_metrics

        def recorded(slot, state, outcome):
            days.append((state, outcome, account(slot, state, outcome)))
            return days[-1][2]
        monkeypatch.setattr(engine, "compute_slot_metrics", recorded)
        run(ScenarioConfig(), strategy, bell_trace,
            SolverConfig(node_limit=2000))
        assert len(days) == ScenarioConfig().slot_count
        for state, outcome, metrics in days:
            inst = instance_of(state)
            place = outcome.assignment.cloudlets(state.ids)
            power, units = inst.score(place)
            assert power == metrics.ongrid_approx_wh / SLOT_HOURS
            assert units == _int_objective(place, inst._iw, inst._ig)
        assert any(sum(metrics.green) > 0 for _, _, metrics in days)

    def test_engine_adds_each_cloudlets_weights_left_to_right(
            self, state_factory, power):
        # A plain left fold on every Python: sum() of floats is compensated
        # from 3.12 and would round differently from the scorer.
        rng = random.Random(13)
        for _ in range(20):
            loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                     for k in range(rng.randint(1, 60))]
            rng.shuffle(loads)
            state = state_factory(loads, [0.0] * 16)
            for outcome in (far_assign(state),
                            gear_assign(state, SolverConfig(node_limit=2000))):
                placement = outcome.assignment.placement
                by_id = sorted(loads, key=lambda a: a.avatar_id)
                metrics = compute_slot_metrics(0, state, outcome)
                weights = avatar_weights([a.total_cpu for a in by_id], power)
                for i, p in enumerate(metrics.power_approx):
                    hosted = [w for a, w in zip(by_id, weights)
                              if placement[a.avatar_id] == i]
                    assert p == functools.reduce(operator.add, hosted, 0.0)

    def test_placement_independent_of_load_order(self, state_factory):
        # Equal weights on one eNB tie in the search; ties break by avatar
        # id, not by the position a load happens to have.
        rng = random.Random(14)
        for _ in range(10):
            loads = [AvatarLoad(k, rng.choice((20.0, 40.0, 60.0)),
                                rng.randrange(16))
                     for k in range(rng.randint(2, 30))]
            green = [rng.choice((0.0, rng.uniform(0, 300))) for _ in range(16)]
            reference = gear_assign(state_factory(loads, green)).assignment
            for _ in range(3):
                shuffled = rng.sample(loads, len(loads))
                gear = gear_assign(state_factory(shuffled, green))
                assert gear.assignment.placement == reference.placement

    def test_respects_sla_everywhere(self, grid_topo, state_factory, delay):
        rng = random.Random(8)
        loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                 for k in range(30)]
        green = [rng.uniform(0, 300) for _ in range(16)]
        state = state_factory(loads, green)
        for outcome in (far_assign(state), gear_assign(state)):
            for a in loads:
                i = outcome.assignment.placement[a.avatar_id]
                assert propagation_delay(i, a.attached_enb, grid_topo,
                                         delay) <= delay.sla_max_delay

    def test_deterministic(self, grid_topo, state_factory):
        rng = random.Random(10)
        loads = [AvatarLoad(k, rng.uniform(10, 100), rng.randrange(16))
                 for k in range(20)]
        green = [rng.uniform(0, 200) for _ in range(16)]
        state = state_factory(loads, green)
        first = gear_assign(state)
        second = gear_assign(state)
        assert first.assignment == second.assignment
        assert (compute_slot_metrics(0, state, first)
                == compute_slot_metrics(0, state, second))

    def test_feasible_previous_placement_can_win_the_warm_start(
            self, grid_topo, state_factory):
        # previous slot already parked the avatar on the green cloudlet;
        # FAR would move it home, GEAR should keep it put
        loads = [AvatarLoad(0, 50.0, 5)]
        green = [0.0] * 16
        green[6] = 500.0
        prev = from_map({0: 6})
        state = state_factory(loads, green, prev=prev)
        gear = gear_assign(state)
        assert gear.assignment.placement == {0: 6}
        assert compute_slot_metrics(0, state, gear).migrations == 0

    def test_static_day_keeps_the_previous_placement(self, bell_trace,
                                                     monkeypatch):
        # The traffic the previous-placement warm start serves: with UEs
        # that never move, it fits every slot, and on this day GEAR returns
        # it itself, unbeaten by FAR and the solver, at slots 38 and 39.
        decide, kept = engine.gear_assign, []

        def recorded(state, config=None):
            outcome = decide(state, config)
            kept.append(outcome.assignment is state.prev_assignment)
            return outcome
        monkeypatch.setattr(engine, "gear_assign", recorded)
        run(ScenarioConfig(ue_count=200, slot_count=48, rng_seed=1,
                           speed_range=(0.0, 0.0)), "gear", bell_trace)
        assert [t for t, k in enumerate(kept) if k] == [38, 39]

    def test_infeasible_previous_placement_is_discarded(
            self, grid_topo, state_factory):
        # cloudlet 15 is out of range for cell 0: the stale placement cannot seed
        loads = [AvatarLoad(0, 50.0, 0)]
        prev = from_map({0: 15})
        state = state_factory(loads, zero_green(grid_topo), prev=prev)
        gear = gear_assign(state)
        assert gear.assignment.placement == {0: 0}
        assert compute_slot_metrics(0, state, gear).migrations == 1

    def test_far_failure_warm_starts_from_feasible_previous(
            self, grid_topo, delay):
        # one avatar per cloudlet; avatar 0 takes site 5, so the fourth
        # avatar of corner cell 0 finds {0, 1, 4, 5} full, although moving
        # avatar 0 to site 6 would make room
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(0, 50.0, 5)] + [AvatarLoad(k, 50.0, 0)
                                            for k in range(1, 5)]
        prev = from_map({0: 6, 1: 0, 2: 1, 3: 4, 4: 5})
        state = make_state(grid_topo, loads, zero_green(grid_topo), prev=prev,
                           specs=specs, power=tiny, default_delay=delay)
        with pytest.raises(Infeasible):
            far_assign(state)
        gear = gear_assign(state)
        assert gear.assignment == prev
        assert compute_slot_metrics(0, state, gear).migrations == 0

    def test_far_failure_without_previous_solves_unseeded(
            self, grid_topo, delay):
        tiny = PowerParams(server_capacity=1)
        specs = tuple(CloudletSpec(server_count=1)
                      for _ in range(grid_topo.site_count))
        loads = [AvatarLoad(0, 50.0, 5)] + [AvatarLoad(k, 50.0, 0)
                                            for k in range(1, 5)]
        stale = from_map({k: 15 for k in range(5)})
        state = make_state(grid_topo, loads, zero_green(grid_topo), prev=stale,
                           specs=specs, power=tiny, default_delay=delay)
        gear = gear_assign(state)
        placement = gear.assignment.placement
        assert sorted(placement[k] for k in range(1, 5)) == [0, 1, 4, 5]
        assert placement[0] not in (0, 1, 4, 5)
        for a in loads:
            assert propagation_delay(placement[a.avatar_id], a.attached_enb,
                                     grid_topo, delay) <= delay.sla_max_delay
        assert gear.assignment == gear.solver_stats.assignment
