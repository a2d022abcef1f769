import math
import random

import pytest

from gcnsim import (
    ScenarioConfig,
    SolarTrace,
    UEColumns,
    enb_indices,
    green_power,
    init_topology,
    init_ues,
    load_scenario_config,
    load_solar_trace,
    propagation_delay,
    run_tables,
    step_mobility,
)
from gcnsim.scenario import ParseError, _draw_destination
from gcnsim.model import Assignment, CloudletSpec
from gcnsim.strategy import far_placement


def flat_trace(value):
    return SolarTrace(tuple([value] * 24))


class TestTopology:
    def test_default_grid_geometry(self):
        topo, specs = init_topology(ScenarioConfig(), random.Random(0))
        assert topo.site_count == 16
        assert topo.site_positions[0] == (1.0, 1.0)
        assert topo.site_positions[15] == (7.0, 7.0)
        near = min(topo.distances[0][j] for j in range(16) if j != 0)
        assert near == pytest.approx(2.0)

    def test_distance_matrix_shape(self):
        topo, _ = init_topology(ScenarioConfig(), random.Random(1))
        for i in range(16):
            assert topo.distances[i][i] == 0.0
            for j in range(16):
                assert topo.distances[i][j] == topo.distances[j][i]
                assert topo.distances[i][j] >= 0.0

    def test_capacities_within_range(self):
        topo, specs = init_topology(ScenarioConfig(), random.Random(2))
        assert all(10 <= s.server_count <= 30 for s in specs)

    def test_inner_four_sites_are_urban(self):
        _, specs = init_topology(ScenarioConfig(), random.Random(3))
        urban = {i for i, s in enumerate(specs) if s.zone == "urban"}
        assert urban == {5, 6, 9, 10}


def initial_placement(ues, cfg, topo, specs, power, delay):
    """The engine's initial placement: the shared greedy in avatar order."""
    enbs = enb_indices(ues.x, ues.y, cfg.grid_dim, cfg.area_side)
    ids = range(len(enbs))
    return Assignment(ids, far_placement(ids, enbs,
                                         run_tables(topo, specs, power,
                                                    delay))[0])


class TestInitUes:
    def test_empty_world(self, power, delay):
        cfg = ScenarioConfig(ue_count=0)
        topo, specs = init_topology(cfg, random.Random(4))
        ues = init_ues(cfg, random.Random(4))
        assignment = initial_placement(ues, cfg, topo, specs, power, delay)
        assert ues.x == [] and assignment.placement == {}

    def test_initial_placements_respect_sla(self, power, delay):
        cfg = ScenarioConfig(ue_count=300)
        rng = random.Random(5)
        topo, specs = init_topology(cfg, rng)
        ues = init_ues(cfg, rng)
        assignment = initial_placement(ues, cfg, topo, specs, power, delay)
        enbs = enb_indices(ues.x, ues.y, cfg.grid_dim, cfg.area_side)
        for k, e in enumerate(enbs):
            i = assignment.placement[k]
            assert propagation_delay(i, e, topo, delay) <= delay.sla_max_delay

    def test_same_seed_same_world(self, power, delay):
        cfg = ScenarioConfig(ue_count=50)

        def build():
            rng = random.Random(cfg.rng_seed)
            topo, specs = init_topology(cfg, rng)
            ues = init_ues(cfg, rng)
            return ues, initial_placement(ues, cfg, topo, specs, power, delay)

        assert build() == build()


def one_ue(position, waypoint):
    """A one-UE population for the slot kernel."""
    return UEColumns([position[0]], [position[1]], [waypoint[0]],
                     [waypoint[1]])


class TestMobility:
    def test_fixed_speed_straight_line_step(self):
        cfg = ScenarioConfig(speed_range=(1.0, 1.0))
        ue = one_ue((0.0, 4.0), (4.0, 4.0))
        step_mobility(ue, cfg, random.Random(0))
        # 1 m/s for 900 s = 0.9 km toward the waypoint
        assert ue.x[0] == pytest.approx(0.9, rel=1e-12)
        assert ue.y[0] == pytest.approx(4.0)

    def test_zero_speed_stays_put(self):
        cfg = ScenarioConfig(speed_range=(0.0, 0.0))
        ue = one_ue((2.0, 2.0), (6.0, 6.0))
        step_mobility(ue, cfg, random.Random(1))
        assert (ue.x[0], ue.y[0]) == (2.0, 2.0)
        assert (ue.wx[0], ue.wy[0]) == (6.0, 6.0)

    def test_arrival_clamps_and_redraws_waypoint(self):
        cfg = ScenarioConfig(speed_range=(10.0, 10.0))
        ue = one_ue((4.0, 4.0), (4.5, 4.0))
        step_mobility(ue, cfg, random.Random(2))
        assert (ue.x[0], ue.y[0]) == (4.5, 4.0)  # no overshoot past the waypoint
        assert (ue.wx[0], ue.wy[0]) != (4.5, 4.0)
        assert 0 <= ue.wx[0] <= 8 and 0 <= ue.wy[0] <= 8

    def test_positions_never_leave_area(self):
        cfg = ScenarioConfig()
        rng = random.Random(6)
        ue = one_ue((rng.uniform(0, 8), rng.uniform(0, 8)), (4.0, 4.0))
        for _ in range(200):
            step_mobility(ue, cfg, rng)
            assert 0 <= ue.x[0] <= 8 and 0 <= ue.y[0] <= 8

    def test_waypoints_concentrate_at_area_center(self):
        cfg = ScenarioConfig(speed_range=(1e9, 1e9))
        rng = random.Random(7)
        ue = one_ue((4.0, 4.0), (4.0, 4.0))
        xs, ys = [], []
        for _ in range(4000):
            step_mobility(ue, cfg, rng)  # teleport to each waypoint
            xs.append(ue.x[0])
            ys.append(ue.y[0])
        assert sum(xs) / len(xs) == pytest.approx(4.0, abs=0.07)
        assert sum(ys) / len(ys) == pytest.approx(4.0, abs=0.07)

    def test_returns_each_ues_cell(self):
        cfg = ScenarioConfig(speed_range=(0.0, 0.0))
        ues = UEColumns([1.0, 3.9, 8.0], [1.0, 0.1, 8.0], [1.0, 3.9, 8.0],
                        [1.0, 0.1, 8.0])
        _, enbs = step_mobility(ues, cfg, random.Random(3))
        assert list(enbs) == [0, 1, 15]


class CountingGauss(random.Random):
    """`random.Random`'s own stream, counting its `gauss` calls."""

    calls = 0

    def gauss(self, mu=0.0, sigma=1.0):
        self.calls += 1
        return super().gauss(mu, sigma)


def gauss_destination(cfg, rng):
    """A waypoint drawn through `rng.gauss`, one coordinate a call,
    redrawn until inside the area."""
    while True:
        x = rng.gauss(cfg.dest_mean, cfg.dest_stddev)
        y = rng.gauss(cfg.dest_mean, cfg.dest_stddev)
        if 0.0 <= x <= cfg.area_side and 0.0 <= y <= cfg.area_side:
            return (x, y)


def reference_step(ues, cfg, rng):
    """`step_mobility`'s contract one UE at a time: every waypoint through
    `rng.gauss`, and the cells by `enb_indices`. Returns the CPU and eNB
    lists and the arrival count."""
    cpu, arrivals = [], 0
    for k in range(len(ues.x)):
        speed = rng.uniform(*cfg.speed_range)
        px, py = ues.x[k], ues.y[k]
        dx, dy = ues.wx[k] - px, ues.wy[k] - py
        remaining = math.hypot(dx, dy)
        travel = speed * 900.0 / 1000.0
        if travel >= remaining:
            arrivals += 1
            ues.x[k], ues.y[k] = ues.wx[k], ues.wy[k]
            ues.wx[k], ues.wy[k] = gauss_destination(cfg, rng)
        else:
            frac = travel / remaining
            ues.x[k], ues.y[k] = px + dx * frac, py + dy * frac
        cpu.append(rng.uniform(*cfg.cpu_range))
    return cpu, enb_indices(ues.x, ues.y, cfg.grid_dim, cfg.area_side), arrivals


def random_config(seed, **fixed):
    """A config drawn from `seed`, with the `fixed` fields as given;
    waypoints center on the middle of the area."""
    draw = random.Random(seed)
    side = fixed.get("area_side", draw.uniform(1.0, 20.0))
    lo = draw.uniform(0.0, 6.0)
    fields = dict(grid_dim=draw.randint(1, 6), area_side=side,
                  ue_count=draw.randint(20, 60),
                  speed_range=(lo, lo + draw.uniform(0.0, 6.0)),
                  dest_mean=side / 2, dest_stddev=side * draw.uniform(0.05, 0.3),
                  rng_seed=seed)
    return ScenarioConfig(**{**fields, **fixed})


def kernel_against_reference(cfg, kernel_rng, ref_rng, slots=8):
    """Draw the same world with the kernel and with `reference_step`, each
    from its own stream, and assert after each slot that positions,
    waypoints, CPU, eNBs and stream state agree. Returns the reference's
    arrivals per slot."""
    init_topology(cfg, kernel_rng)
    init_topology(cfg, ref_rng)
    ues, ref = init_ues(cfg, kernel_rng), init_ues(cfg, ref_rng)
    arrivals = []
    for _ in range(slots):
        cpu, enbs = step_mobility(ues, cfg, kernel_rng)
        ref_cpu, ref_enbs, arrived = reference_step(ref, cfg, ref_rng)
        assert ues == ref
        assert (list(cpu), list(enbs)) == (ref_cpu, ref_enbs)
        assert kernel_rng.getstate() == ref_rng.getstate()
        arrivals.append(arrived)
    return arrivals


# name: (fields fixed on a random config, None or what the case must
# exercise, given the config, the arrivals per slot and the reference's
# gauss calls)
KERNEL_CASES = {
    "every UE arrives": (
        {"speed_range": (10.0, 10.0), "area_side": 5.0},
        lambda cfg, arrivals, calls: set(arrivals) == {cfg.ue_count}),
    "no UE moves": (
        {"speed_range": (0.0, 0.0)},
        lambda cfg, arrivals, calls: set(arrivals) == {0}),
    "tiny area": ({"area_side": 0.01}, None),
    "large area": ({"area_side": 500.0}, None),
    "out-of-area redraws": (
        {"area_side": 8.0, "dest_stddev": 8.0},
        # two gauss calls per arrival, more when a waypoint is redrawn
        lambda cfg, arrivals, calls: calls > 2 * sum(arrivals)),
    "17x17 grid": ({"grid_dim": 17}, None),
    "3x3 cells over 7 km": ({"grid_dim": 3, "area_side": 7.0}, None),
    "random 1": ({}, None),
    "random 2": ({}, None),
}


class TestKernel:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_matches_the_per_ue_reference(self, name):
        fixed, exercised = KERNEL_CASES[name]
        cfg = random_config(list(KERNEL_CASES).index(name), **fixed)
        ref_rng = CountingGauss(cfg.rng_seed)
        arrivals = kernel_against_reference(cfg, random.Random(cfg.rng_seed),
                                            ref_rng)
        assert exercised is None or exercised(cfg, arrivals, ref_rng.calls)

    def test_draw_destination_is_the_gauss_pair(self):
        # wide enough that about half of the pairs are redrawn
        cfg = ScenarioConfig(dest_stddev=4.0)
        ours, ref = random.Random(22), CountingGauss(22)
        for _ in range(500):
            assert _draw_destination(cfg, ours) == gauss_destination(cfg, ref)
            assert ours.getstate() == ref.getstate()
        assert ref.calls > 2 * 500


def enb_of(position, cfg=ScenarioConfig()):
    """The cell of one position on the config's grid (default: 4x4 over
    8 km)."""
    return enb_indices([position[0]], [position[1]], cfg.grid_dim,
                       cfg.area_side)[0]


class TestCellAttachment:
    def test_cell_interior(self):
        assert enb_of((1.0, 1.0)) == 0
        assert enb_of((3.9, 0.1)) == 1

    def test_half_open_boundary(self):
        assert enb_of((2.0, 0.0)) == 1

    def test_outer_corner_is_closed(self):
        assert enb_of((8.0, 8.0)) == 15


class TestUtilization:
    def test_range_and_determinism(self):
        cfg = ScenarioConfig()

        def first_draw():
            cpu, _ = step_mobility(one_ue((4.0, 4.0), (5.0, 5.0)), cfg,
                                   random.Random(8))
            return cpu[0]

        draws = [first_draw() for _ in range(5)]
        assert len(set(draws)) == 1  # fresh seed, same first draw
        rng = random.Random(9)
        ue = one_ue((4.0, 4.0), (5.0, 5.0))
        samples = [step_mobility(ue, cfg, rng)[0][0]
                   for _ in range(2000)]
        assert all(10.0 <= u <= 100.0 for u in samples)


class TestGreenPower:
    def test_direct_product(self):
        spec = CloudletSpec(server_count=10)
        assert green_power(flat_trace(400.0), 0, spec, 0.0) == pytest.approx(
            400.0 * 5.0 * 0.46, rel=1e-12)

    def test_urban_derating(self):
        spec = CloudletSpec(server_count=10, zone="urban")
        assert green_power(flat_trace(400.0), 0, spec, 0.30) == pytest.approx(
            920.0 * 0.7, rel=1e-12)

    def test_dark_hour_supplies_nothing(self):
        spec = CloudletSpec(server_count=10)
        assert green_power(flat_trace(0.0), 40, spec, 0.0) == 0.0

    def test_piecewise_constant_within_hour(self):
        values = tuple(float(h) for h in range(24))
        trace = SolarTrace(values)
        spec = CloudletSpec(server_count=10, panel_area=1.0, panel_efficiency=1.0)
        assert [green_power(trace, s, spec, 0.0) for s in range(8)] == [
            0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]


class TestTraceIO:
    def test_all_dark_day_parses(self, tmp_path):
        p = tmp_path / "dark.csv"
        p.write_text("hour,irradiance_w_per_m2\n"
                     + "".join(f"{h},0.0\n" for h in range(24)))
        trace = load_solar_trace(str(p))
        assert trace.hourly_irradiance == tuple([0.0] * 24)

    def test_missing_row_is_count_error(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("hour,irradiance_w_per_m2\n"
                     + "".join(f"{h},1.0\n" for h in range(23)))
        with pytest.raises(ValueError, match="expected 24 rows, got 23"):
            load_solar_trace(str(p))

    def test_bad_header_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("hour,watts\n" + "".join(f"{h},1.0\n" for h in range(24)))
        with pytest.raises(ParseError) as err:
            load_solar_trace(str(p))
        assert err.value.line_no == 1

    def test_negative_value_is_parse_error(self, tmp_path):
        p = tmp_path / "neg.csv"
        rows = [f"{h},1.0" for h in range(24)]
        rows[5] = "5,-2.0"
        p.write_text("hour,irradiance_w_per_m2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            load_solar_trace(str(p))
        assert err.value.line_no == 7

    def test_out_of_order_hours_rejected(self, tmp_path):
        p = tmp_path / "ooo.csv"
        rows = [f"{h},1.0" for h in range(24)]
        rows[3], rows[4] = rows[4], rows[3]
        p.write_text("hour,irradiance_w_per_m2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            load_solar_trace(str(p))

    def test_bundled_bell_trace_is_bell_shaped(self, bell_trace):
        dark_hours = [h for h, v in enumerate(bell_trace.hourly_irradiance)
                      if v == 0.0]
        assert dark_hours == [0, 1, 2, 3, 4, 5, 6, 7, 17, 18, 19, 20, 21, 22, 23]
        assert max(bell_trace.hourly_irradiance) == bell_trace.hourly_irradiance[12]


class TestConfigFile:
    def test_full_round_trip(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text(
            "# scenario under test\n"
            "grid_dim = 3\n"
            "area_side = 6.0\n"
            "ue_count = 42\n"
            "slot_count = 8\n"
            "capacity_range = 5,7\n"
            "speed_range = 1.0,2.0\n"
            "dest_mean = 3.0\n"
            "dest_stddev = 1.1\n"
            "cpu_range = 20,90\n"
            "panel_area = 4.0\n"
            "panel_efficiency = 0.4\n"
            "kappa = 0.25\n"
            "urban_region = 1,1,5,5\n"
            "rng_seed = 99\n"
        )
        cfg = load_scenario_config(str(p))
        assert cfg == ScenarioConfig(
            grid_dim=3, area_side=6.0, ue_count=42, slot_count=8,
            capacity_range=(5, 7), speed_range=(1.0, 2.0), dest_mean=3.0,
            dest_stddev=1.1, cpu_range=(20.0, 90.0), panel_area=4.0,
            panel_efficiency=0.4, kappa=0.25,
            urban_region=(1.0, 1.0, 5.0, 5.0), rng_seed=99)

    def test_empty_file_keeps_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("\n# nothing here\n")
        assert load_scenario_config(str(p)) == ScenarioConfig()

    def test_area_alone_centres_the_waypoints(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text("area_side = 2.0\n")
        cfg = load_scenario_config(str(p))
        assert cfg == ScenarioConfig(area_side=2.0, dest_mean=1.0)
        assert type(cfg.dest_mean) is float

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("ue_count = 10\nwibble = 3\n")
        with pytest.raises(ParseError) as err:
            load_scenario_config(str(p))
        assert err.value.line_no == 2

    def test_malformed_value_rejected(self, tmp_path):
        p = tmp_path / "bad2.cfg"
        p.write_text("ue_count = plenty\n")
        with pytest.raises(ParseError):
            load_scenario_config(str(p))

    def test_invalid_combination_rejected(self, tmp_path):
        p = tmp_path / "bad3.cfg"
        p.write_text("kappa = 1.5\n")
        with pytest.raises(ValueError) as err:
            load_scenario_config(str(p))
        assert str(err.value) == f"{p}: kappa must be in [0, 1]"


class TestConfigValidation:
    def test_waypoint_mean_defaults_to_the_middle_of_the_area(self):
        assert ScenarioConfig().dest_mean == 4.0  # the pinned streams' mean
        assert ScenarioConfig() == ScenarioConfig(dest_mean=4.0)
        assert ScenarioConfig(area_side=2.0).dest_mean == 1.0
        assert ScenarioConfig(area_side=2.0, dest_mean=0.5).dest_mean == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"grid_dim": 0},
        {"ue_count": -1},
        {"kappa": -0.1},
        {"capacity_range": (5, 3)},
        {"cpu_range": (5.0, 120.0)},
        {"area_side": 0.0},
        {"urban_region": (5.0, 0.0, 1.0, 8.0)},
        {"speed_range": (-10.0, -5.0)},
        {"dest_mean": 100.0},
        {"dest_mean": -0.5},
        {"dest_stddev": -1.4},
        {"dest_stddev": math.inf},
        {"dest_stddev": 1e300},
        {"urban_region": (math.nan, 0.0, 1.0, 1.0)},
        {"panel_area": math.nan},
        {"area_side": math.nan},
        {"dest_stddev": 40.0},
        {"panel_area": -5.0},
        {"panel_efficiency": -1.0},
        {"panel_efficiency": 1.5},
        {"grid_dim": 33},
        {"ue_count": 100_001},
        {"slot_count": 96 * 365 + 1},
    ])
    def test_rejects(self, kwargs):
        # the message names the first key given
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} "):
            ScenarioConfig(**kwargs)
