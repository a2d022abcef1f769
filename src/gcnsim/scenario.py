"""Experimental world: topology, UE mobility, CPU loads, solar supply.

A scenario is a square grid of eNB/cloudlet sites covering a square area.
UEs roam by a modified random waypoint model whose destinations are drawn
from a normal distribution centered on the middle of the area, so traffic
concentrates in the urban core. Green supply comes from an hourly solar
irradiance trace scaled by each cloudlet's panel; urban panels can be
derated by a factor kappa to model dirtier urban skies.

All randomness flows through a single `random.Random` stream per run, and
every draw happens in a fixed order (per slot: per UE ascending, speed
first, then destination redraws, then CPU), so a seed pins down the whole
world evolution byte for byte.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, fields
from math import cos as _cos, log as _log, sin as _sin, sqrt as _sqrt

from .model import SLOT_HOURS, CloudletSpec, SiteTopology

_TWOPI = 2.0 * math.pi  # random.TWOPI, which random.Random.gauss reads


class ParseError(ValueError):
    """A config or trace file line failed to parse."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    grid_dim: int = 4
    area_side: float = 8.0
    ue_count: int = 200
    slot_count: int = 96
    capacity_range: tuple[int, int] = (10, 30)
    speed_range: tuple[float, float] = (0.0, 10.0)
    dest_mean: float = 4.0
    dest_stddev: float = 1.4
    cpu_range: tuple[float, float] = (10.0, 100.0)
    panel_area: float = 5.0
    panel_efficiency: float = 0.46
    kappa: float = 0.0
    urban_region: tuple[float, float, float, float] = (2.0, 2.0, 6.0, 6.0)
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.grid_dim < 1:
            raise ValueError("grid_dim must be >= 1")
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if self.ue_count < 0:
            raise ValueError("ue_count must be non-negative")
        if self.slot_count < 0:
            raise ValueError("slot_count must be non-negative")
        for name in ("capacity_range", "speed_range", "cpu_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must be ordered low..high")
        if self.capacity_range[0] < 1:
            raise ValueError("capacity_range must start at >= 1 server")
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must be in [0, 1]")
        if not (0 <= self.cpu_range[0] and self.cpu_range[1] <= 100):
            raise ValueError("cpu_range must lie within [0, 100]")
        x0, y0, x1, y1 = self.urban_region
        if x0 > x1 or y0 > y1:
            raise ValueError("urban_region must be an ordered rectangle")


@dataclass
class UEColumns:
    """Every UE's position and current waypoint in km, one list per
    coordinate, indexed by avatar id. `step_mobility` advances them in
    place."""

    x: list[float]
    y: list[float]
    wx: list[float]
    wy: list[float]


@dataclass(frozen=True)
class SolarTrace:
    """Hourly solar irradiance for one day, W/m^2."""

    hourly_irradiance: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_irradiance) != 24:
            raise ValueError(
                f"expected 24 hourly values, got {len(self.hourly_irradiance)}")
        if any(v < 0 for v in self.hourly_irradiance):
            raise ValueError("irradiance values must be non-negative")


def init_topology(config: ScenarioConfig,
                  rng: random.Random) -> tuple[SiteTopology, tuple[CloudletSpec, ...]]:
    """Build the site grid and draw each cloudlet's rack size.

    Sites sit at cell centers; a cloudlet is urban when its center falls
    inside the configured urban rectangle.
    """
    g = config.grid_dim
    cell = config.area_side / g
    positions = tuple(
        (cell * (gx + 0.5), cell * (gy + 0.5))
        for gy in range(g) for gx in range(g)
    )
    distances = tuple(
        tuple(math.dist(p, q) for q in positions) for p in positions
    )
    topo = SiteTopology(site_positions=positions, distances=distances)
    x0, y0, x1, y1 = config.urban_region
    specs = tuple(
        CloudletSpec(
            server_count=rng.randint(*config.capacity_range),
            panel_area=config.panel_area,
            panel_efficiency=config.panel_efficiency,
            zone="urban" if x0 <= px <= x1 and y0 <= py <= y1 else "rural",
        )
        for px, py in positions
    )
    return topo, specs


def enb_indices(xs: Iterable[float], ys: Iterable[float], grid_dim: int,
                area_side: float) -> list[int]:
    """Site index of the square cell containing each position (xs[k], ys[k]).

    Cells are half-open on their low edges; the outer boundary of the last
    row/column is closed so the whole area is covered.
    """
    cell = area_side / grid_dim
    last = grid_dim - 1
    out = []
    for x, y in zip(xs, ys):
        # min(int(x / cell), last) per axis, without the call
        gx, gy = int(x / cell), int(y / cell)
        out.append((gy if gy < last else last) * grid_dim
                   + (gx if gx < last else last))
    return out


def _draw_destination(config: ScenarioConfig,
                      rng: random.Random) -> tuple[float, float]:
    # Redraw until inside the area rather than clamping, so no probability
    # mass piles up on the boundary. Both coordinates are drawn before the
    # test: `gauss` keeps a second deviate between calls.
    side = config.area_side
    while True:
        x = rng.gauss(config.dest_mean, config.dest_stddev)
        y = rng.gauss(config.dest_mean, config.dest_stddev)
        if 0.0 <= x <= side and 0.0 <= y <= side:
            return (x, y)


def init_ues(config: ScenarioConfig, topo: SiteTopology,
             rng: random.Random) -> UEColumns:
    """Scatter UEs uniformly over the area, each with a first waypoint, in
    ascending avatar id.

    Each UE also draws a first speed, which nothing reads (`step_mobility`
    draws a fresh one every slot) but the stream keeps. The initial avatar
    placement is not drawn here; the engine derives it from the UE
    positions.
    """
    ues = UEColumns([], [], [], [])
    for _ in range(config.ue_count):
        ues.x.append(rng.uniform(0.0, config.area_side))
        ues.y.append(rng.uniform(0.0, config.area_side))
        wx, wy = _draw_destination(config, rng)
        ues.wx.append(wx)
        ues.wy.append(wy)
        rng.uniform(*config.speed_range)
    return ues


def step_mobility(ues: UEColumns, slot_seconds: float, config: ScenarioConfig,
                  rng: random.Random) -> tuple[array, array]:
    """Advance every UE by one slot of random-waypoint motion and draw its
    avatar's CPU for the slot; return the slot's CPU (percent, kernel floor
    included) and eNB index per avatar, the eNBs in the smallest unsigned
    array type that holds the grid's site indices.

    Each UE draws a fresh speed, moves straight toward its waypoint and
    stops there exactly (no overshoot); on arrival the next waypoint is
    drawn immediately. The draw order is per UE in ascending avatar id:
    the speed, then any waypoint redraws, then the CPU. Each uniform draw is
    `random.Random.uniform`'s own expression, a + (b - a) * random().

    The waypoint draw and the cell rule are `_draw_destination`'s and
    `enb_indices`'s, inlined so each UE is drawn and located in one pass.
    Each waypoint is one Box-Muller pair computed as `random.Random.gauss`
    computes it. That is exact because waypoints always take their
    deviates in pairs, so `gauss_next` is None whenever one is drawn. When
    `rng.gauss_next` is set on entry, or `rng`'s class overrides `gauss`,
    every waypoint is drawn through `_draw_destination` instead.
    """
    xs, ys, wxs, wys = ues.x, ues.y, ues.wx, ues.wy
    random_, hypot = rng.random, math.hypot
    pair = rng.gauss_next is None and type(rng).gauss is random.Random.gauss
    side, mu, sigma = config.area_side, config.dest_mean, config.dest_stddev
    speed_lo, cpu_lo = config.speed_range[0], config.cpu_range[0]
    speed_span = config.speed_range[1] - speed_lo
    cpu_span = config.cpu_range[1] - cpu_lo
    g = config.grid_dim
    cell, last = side / g, g - 1
    n = len(xs)
    cpu = array("d", [0.0]) * n
    sites = g * g
    enbs = array("B" if sites <= 1 << 8 else "H" if sites <= 1 << 16 else "L",
                 [0]) * n
    for k in range(n):  # the draw order is part of the World contract
        speed = speed_lo + speed_span * random_()
        px, py = xs[k], ys[k]
        dx, dy = wxs[k] - px, wys[k] - py
        remaining = hypot(dx, dy)
        travel = speed * slot_seconds / 1000.0  # km per slot
        if travel >= remaining:
            px, py = wxs[k], wys[k]
            if pair:
                while True:  # _draw_destination, one gauss pair a try
                    x2pi = random_() * _TWOPI
                    g2rad = _sqrt(-2.0 * _log(1.0 - random_()))
                    wx = mu + (_cos(x2pi) * g2rad) * sigma
                    wy = mu + (_sin(x2pi) * g2rad) * sigma
                    if 0.0 <= wx <= side and 0.0 <= wy <= side:
                        break
                wxs[k], wys[k] = wx, wy
            else:
                wxs[k], wys[k] = _draw_destination(config, rng)
        else:
            frac = travel / remaining
            px, py = px + dx * frac, py + dy * frac
        xs[k], ys[k] = px, py
        cpu[k] = cpu_lo + cpu_span * random_()
        gx, gy = int(px / cell), int(py / cell)  # enb_indices's cell rule
        enbs[k] = (gy if gy < last else last) * g + (gx if gx < last else last)
    return cpu, enbs


def green_power(trace: SolarTrace, slot: int, spec: CloudletSpec,
                kappa: float) -> float:
    """Green supply (W) of one cloudlet in one slot of `SLOT_HOURS`.

    Piecewise-constant within each hour of the trace; urban cloudlets are
    derated by kappa.
    """
    hour = int(slot * SLOT_HOURS) % 24
    watts = trace.hourly_irradiance[hour] * spec.panel_area * spec.panel_efficiency
    if spec.zone == "urban":
        watts *= (1.0 - kappa)
    return watts


TRACE_HEADER = "hour,irradiance_w_per_m2"


def load_solar_trace(path: str) -> SolarTrace:
    """Read an hourly irradiance file: a header line, then 24 `H,V` rows
    with H ascending 0..23 and V a non-negative decimal."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise ParseError(path, 1, f"expected header '{TRACE_HEADER}'")
    values: list[float] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            raise ParseError(path, line_no, "blank line in trace body")
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected 'hour,value'")
        try:
            hour = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"malformed row {text!r}") from None
        if hour != len(values):
            raise ParseError(path, line_no,
                             f"hour {hour} out of order (expected {len(values)})")
        if value < 0:
            raise ParseError(path, line_no, "irradiance must be non-negative")
        values.append(value)
    if len(values) != 24:
        raise ValueError(f"{path}: expected 24 rows, got {len(values)}")
    return SolarTrace(hourly_irradiance=tuple(values))


# Each config key parses like its ScenarioConfig default: an int, a float,
# or a comma-separated tuple of the default's length and element type.
_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _parse_like(default, value: str):
    if isinstance(default, tuple):
        return tuple(type(d)(part) for d, part
                     in zip(default, value.split(","), strict=True))
    return type(default)(value)


def load_scenario_config(path: str) -> ScenarioConfig:
    """Read a scenario config: `key = value` lines using the ScenarioConfig
    field names, `#` comments, pairs and rectangles comma-separated.
    Each value is read as the type of the field's default. Unspecified
    fields keep their defaults. Raises ParseError naming the line that
    does not parse, and ValueError naming the file when the values fail
    `ScenarioConfig`'s checks."""
    overrides: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(path, line_no, "expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _DEFAULTS:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        try:
            overrides[key] = _parse_like(_DEFAULTS[key], value)
        except ValueError:
            raise ParseError(path, line_no,
                             f"malformed value for {key!r}: {value!r}") from None
    try:
        return ScenarioConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
