"""gcnsim: a deterministic simulator of a solar-powered cloudlet network,
with a branch-and-bound placement engine for green-aware avatar migration."""

from .model import (
    Assignment,
    AvatarLoad,
    CloudletSpec,
    DelayParams,
    PowerParams,
    RunTables,
    SiteTopology,
    active_server_count,
    avatar_weights,
    cloudlet_power_exact,
    default_delay_params,
    default_power_params,
    nearest_feasible_order,
    ongrid_energy,
    propagation_delay,
    run_tables,
)
from .solver import (
    Infeasible,
    MilpInstance,
    Solution,
    SolverConfig,
    brute_force,
    build_instance,
    solve,
)
from .strategy import SlotState, StrategyOutcome, far_assign, gear_assign
from .scenario import (
    ParseError,
    ScenarioConfig,
    SolarTrace,
    UEColumns,
    enb_indices,
    green_power,
    init_topology,
    init_ues,
    load_scenario_config,
    load_solar_trace,
    step_mobility,
)
from .engine import RunResult, SlotMetrics, World, compute_slot_metrics, run

__version__ = "0.1.0"
