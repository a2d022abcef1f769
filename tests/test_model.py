import math
import random

import pytest

from gcnsim import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    DelayParams,
    PowerParams,
    StrategyOutcome,
    active_server_count,
    avatar_weights,
    cloudlet_power_exact,
    compute_slot_metrics,
    default_delay_params,
    nearest_feasible_order,
    ongrid_energy,
    propagation_delay,
)

from conftest import from_map, line_topology, state_from_loads


def account(cpus, power, placement=None, n_cloudlets=1):
    """The engine's accounting of avatars 0..n-1 with the given CPU figures,
    all on cloudlet 0 unless `placement` maps them elsewhere."""
    placement = from_map(placement or dict.fromkeys(range(len(cpus)), 0))
    state = state_from_loads(
        [AvatarLoad(k, u, 0) for k, u in enumerate(cpus)],
        (0.0,) * n_cloudlets, placement, line_topology(1.0, n_cloudlets),
        (CloudletSpec(server_count=1),) * n_cloudlets, power,
        default_delay_params())
    return compute_slot_metrics(0, state, StrategyOutcome(placement))


class TestServerCounting:
    def test_empty_cloudlet_needs_no_server(self):
        assert active_server_count(0, 16) == 0

    def test_exact_fill(self):
        assert active_server_count(16, 16) == 1

    def test_one_over_forces_second_server(self):
        assert active_server_count(17, 16) == 2

    @pytest.mark.parametrize("count", range(0, 70, 7))
    @pytest.mark.parametrize("cap", [1, 3, 16])
    def test_matches_ceiling(self, count, cap):
        assert active_server_count(count, cap) == math.ceil(count / cap)


class TestServerPower:
    """One-server cloudlets: the closed form reduces to a single server's draw."""

    def test_single_full_load_avatar(self, power):
        # 80 + 0.3 + 0.2*100 = 100.3 W
        assert cloudlet_power_exact([100.0], power) == pytest.approx(100.3, rel=1e-12)

    def test_full_server_mid_load(self, power):
        # 80 + 16*0.3 + 16*0.2*55 = 80 + 4.8 + 176 = 260.8 W
        assert cloudlet_power_exact([55.0] * 16, power) == pytest.approx(260.8, rel=1e-12)

    def test_additive_in_avatars(self, power):
        rng = random.Random(3)
        group = [rng.uniform(10, 100) for _ in range(10)]
        before = cloudlet_power_exact(group, power)
        after = cloudlet_power_exact(group + [42.0], power)
        assert after - before == pytest.approx(0.3 + 0.2 * 42.0, rel=1e-12)


class TestCloudletPower:
    def test_two_servers_seventeen_avatars(self, power):
        # 2*80 + 17*0.3 + 17*0.2*10 = 160 + 5.1 + 34 = 199.1 W
        assert cloudlet_power_exact([10.0] * 17, power) == pytest.approx(199.1, rel=1e-12)

    def test_empty_cloudlet_draws_nothing(self, power):
        assert cloudlet_power_exact([], power) == 0.0

    def test_full_server_boundary_matches_linearized(self, power):
        group = [10.0] * 16
        exact = cloudlet_power_exact(group, power)
        # 80 + 16*0.3 + 32 = 116.8 W, no ceiling slack at a full server
        assert exact == pytest.approx(116.8, rel=1e-12)
        metrics = account(group, power)
        assert metrics.power_exact == (exact,)
        assert metrics.power_approx[0] == pytest.approx(exact, rel=1e-12)

    def test_linearized_never_exceeds_exact(self, power):
        rng = random.Random(11)
        for _ in range(50):
            cpus = [rng.uniform(10, 100) for _ in range(rng.randint(0, 90))]
            split = {k: rng.randrange(2) for k in range(len(cpus))}
            metrics = account(cpus, power, split, n_cloudlets=2)
            for exact, approx in zip(metrics.power_exact, metrics.power_approx):
                gap = exact - approx
                assert gap >= -1e-9
                # slack is only the server-count ceiling: strictly under one
                # standby share
                assert gap < 80.0 * (1 - 1 / 16) + 1e-9


class TestAvatarWeight:
    @pytest.mark.parametrize("cpu,expected", [(10.0, 7.3), (100.0, 25.3), (0.0, 5.3)])
    def test_hand_values(self, power, cpu, expected):
        # 80/16 + 0.3 + 0.2*u
        assert avatar_weights([cpu], power) == [pytest.approx(expected, rel=1e-12)]

    def test_strictly_increasing_in_cpu(self, power):
        grid = [i * 2.5 for i in range(41)]
        weights = avatar_weights(grid, power)
        assert len(weights) == len(grid)
        assert all(a < b for a, b in zip(weights, weights[1:]))


class TestLinearizedCloudletPower:
    """The engine's linearized accounting: each cloudlet's avatar weights."""

    def test_mixed_pair(self, power):
        # 7.3 + 25.3 = 32.6 W
        assert account([10.0, 100.0], power).power_approx == pytest.approx(
            (32.6,), rel=1e-12)

    def test_empty(self, power):
        assert account([], power).power_approx == (0.0,)

    def test_total_invariant_under_reassignment(self, power):
        rng = random.Random(5)
        group = [rng.uniform(10, 100) for _ in range(30)]
        total = sum(account(group, power, n_cloudlets=4).power_approx)
        for _ in range(10):
            split = {k: rng.randrange(4) for k in range(len(group))}
            resummed = sum(account(group, power, split, 4).power_approx)
            assert resummed == pytest.approx(total, rel=1e-9)


class TestAssignment:
    def test_one_placement_whatever_its_form(self):
        a = Assignment(range(3), (2, 0, 2))
        assert a == Assignment((0, 1, 2), (2, 0, 2))  # range against tuple
        assert a == Assignment(range(3), [2, 0, 2])   # list against tuple
        assert a != Assignment(range(3), (2, 0, 1))
        with pytest.raises(TypeError):
            hash(a)

    def test_map_built_once_on_first_read(self):
        a = Assignment(range(3), (2, 0, 2))
        assert "placement" not in vars(a)
        assert a.placement is a.placement == {0: 2, 1: 0, 2: 2}

    def test_counts_read_the_index_form(self):
        a = Assignment(range(4), (2, 0, 2, 2))
        assert a.counts(4) == [1, 0, 3, 0]
        assert "placement" not in vars(a)

    def test_ids_in_another_order_give_the_same_map(self):
        a = Assignment((2, 0, 1), (5, 3, 4))
        assert a.placement == {0: 3, 1: 4, 2: 5}
        assert a == Assignment(range(3), (3, 4, 5))
        assert a.cloudlets(range(3)) == [3, 4, 5]


class TestPropagationDelay:
    def test_colocated_is_zero(self, grid_topo, delay):
        assert propagation_delay(3, 3, grid_topo, delay) == 0.0

    def test_two_km_hop(self, grid_topo, delay):
        # 3.33 ms/km * 2 km
        assert propagation_delay(0, 1, grid_topo, delay) == pytest.approx(6.66, rel=1e-12)

    def test_beyond_sla_radius(self, delay):
        topo = line_topology(3.1, 2)
        d = propagation_delay(0, 1, topo, delay)
        assert d == pytest.approx(10.323, rel=1e-12)
        assert d > delay.sla_max_delay


class TestFeasibleSet:
    """Rows of the reachability table: one per eNB, nearest cloudlet first."""

    def test_corner_site_reaches_four(self, grid_topo, delay):
        # sites within 10/3.33 = 3.003 km of (1,1): itself, two at 2 km, diagonal
        row = nearest_feasible_order(grid_topo, delay)[0]
        assert set(row) == {0, 1, 4, 5}
        # the 2 km tie between 1 and 4 breaks toward the lower index
        assert row == [0, 1, 4, 5]

    def test_zero_budget_keeps_colocated_only(self, grid_topo):
        params = DelayParams(dist_coeff=3.33, sla_max_delay=0.0)
        assert set(nearest_feasible_order(grid_topo, params)[6]) == {6}

    def test_unbounded_budget_reaches_all(self, grid_topo):
        params = DelayParams(dist_coeff=3.33, sla_max_delay=1e9)
        assert set(nearest_feasible_order(grid_topo, params)[0]) == set(range(16))

    def test_shrinks_as_budget_tightens(self, grid_topo):
        budgets = [1e9, 20.0, 10.0, 6.0, 0.0]
        sets = [set(nearest_feasible_order(grid_topo, DelayParams(sla_max_delay=b))[9])
                for b in budgets]
        for wider, tighter in zip(sets, sets[1:]):
            assert tighter <= wider
        assert all(9 in s for s in sets)


class TestOngridEnergy:
    def test_green_surplus_draws_nothing(self):
        assert ongrid_energy(100.0, 120.0) == 0.0

    def test_partial_gap(self):
        assert ongrid_energy(120.0, 100.0) == pytest.approx(5.0, rel=1e-12)

    def test_no_green(self):
        assert ongrid_energy(100.0, 0.0) == pytest.approx(25.0, rel=1e-12)

    def test_nonnegative_and_convex_in_demand(self):
        green = 50.0
        xs = [0.0, 25.0, 50.0, 75.0, 100.0]
        ys = [ongrid_energy(x, green) for x in xs]
        assert all(y >= 0 for y in ys)
        for a, b, c in zip(ys, ys[1:], ys[2:]):
            assert c - b >= b - a - 1e-12


class TestParamValidation:
    def test_power_params_reject_nonpositive(self):
        with pytest.raises(ValueError):
            PowerParams(standby_power=0.0)
        with pytest.raises(ValueError):
            PowerParams(server_capacity=0)

    def test_delay_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            DelayParams(dist_coeff=0.0)
        with pytest.raises(ValueError):
            DelayParams(sla_max_delay=-1.0)

    def test_avatar_loads_from_columns_match_the_record_constructor(self):
        cpu, enbs = [10.0, 55.5, 100.0], [0, 7, 3]
        built = AvatarLoad.from_columns(range(3), cpu, enbs)
        assert built == tuple(map(AvatarLoad, range(3), cpu, enbs))
        assert all(type(a) is AvatarLoad for a in built)
        assert (built[1].avatar_id, built[1].total_cpu,
                built[1].attached_enb) == (1, 55.5, 7)
