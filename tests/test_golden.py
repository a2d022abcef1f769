"""Byte-identity gate: the CLI's CSV outputs at the default config, and a
library day on which the solver has to search.

The `run` and `sweep-kappa` digests pin the outputs of the closed-form
power model, the shared reachability table and the shared greedy; the
default GEAR day's solver evidence pins the nodes of a search that bounds
siblings lazily, the same nodes an eager sibling sort visits; the
world-stream digests pin the columnar slot kernel's draw. The `sweep-ues`
digest and both searching days' GEAR digests pin the pause after the first
dive, which takes the class-flow bound as its root bound and descends from
the dive's incumbent and then from the seed, wherever the incumbent misses
that bound. That proves and improves solves the dive leaves unproven, the
300-UE `sweep-ues` point's included, and it raises no slot's linearized
energy. FAR's digest on the searching day does not depend on it.
A change that is meant to alter outputs must name that change and re-pin
these digests; any other change must leave them alone.
"""

import hashlib
from dataclasses import replace

import pytest

import gcnsim
import gcnsim.strategy
from gcnsim.cli import bundled_trace_path, emit_csv, main

GOLDEN = {
    ("run", "slots.csv"):
        "9d901f27ffae1d8420aec0e44c29b8b0e3e981f705c39425b2102f8773307cfc",
    ("run", "summary.csv"):
        "305e77a5184cd16e6e2e71b32ed89cb679e63f9791aee81631b748658301e1a7",
    ("sweep-kappa", "sweep.csv"):
        "f1164b5dc22d86aa2b321ce37d4879d9f77128b578d3215fddad3db1e4f7ebc9",
    # the 300-UE point's 2 solves that walk on past their dive are proven
    # by the descent: GEAR's linearized energy falls by 1.44 Wh
    ("sweep-ues", "sweep.csv"):
        "33409b1d84b4c0a28a7af5dfda230744dd4a0dec8b7b15e9e3d751385e79c2fb",
}

ARGV = {
    "run": ["run", "--strategy", "both", "--seed", "1"],
    "sweep-kappa": ["sweep-kappa", "--values", "0,0.3"],
    "sweep-ues": ["sweep-ues", "--values", "200,300"],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for command, argv in ARGV.items():
        assert main([*argv, "--out", str(root / command)]) == 0
    return root


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_output_digest_matches_golden(outputs, command, name):
    data = (outputs / command / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(command, name)]


# A 7 ms SLA leaves most avatars few cloudlets, so GEAR searches instead of
# diving once; 5 of its 48 solves are still unproven after their first dive:
# the class-flow bound proves one incumbent optimal and the descent reaches
# that bound in the other 4, each from the dive's incumbent. One of them
# has a flow bound equal to the aggregate bound; without the descent its
# walk would go on to the node limit, and the descent lowers GEAR's
# linearized energy in that slot by 14.1 Wh.
SEARCHING_DAY = {
    "slots-far.csv":
        "fa9cec8979dab30f5a3d1e6d62b1b97906b73c9d9395ca3cb615db1518dfc4c0",
    "slots-gear.csv":
        "42692c09f1a3565696855f33b473f21f4062d87ad63f75359967019ecbb77aee",
    "solver-evidence":
        "02ce5879b1ac74f36694d3aab5d6416dfdc51b592d72760f66aa53b0af22458d",
}


def recorded_solves(monkeypatch) -> list:
    """Route GEAR's solver calls through a recorder of each solve's
    (nodes explored, proof status, lower bound, gap)."""
    evidence = []
    solve = gcnsim.strategy.solve

    def recording_solve(inst, config=None):
        sol = solve(inst, config)
        evidence.append((sol.nodes_explored, sol.proven_optimal,
                         sol.lower_bound, sol.gap))
        return sol

    monkeypatch.setattr(gcnsim.strategy, "solve", recording_solve)
    return evidence


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def searching_day(solver, strategies, tmp_path):
    """Run the 7 ms SLA day and return each strategy's slots.csv digest."""
    config = gcnsim.ScenarioConfig(ue_count=300, slot_count=48, rng_seed=1)
    delay = replace(gcnsim.default_delay_params(), sla_max_delay=7.0)
    trace = gcnsim.load_solar_trace(bundled_trace_path())
    digests = {}
    for strategy in strategies:
        path = tmp_path / f"slots-{strategy}.csv"
        emit_csv(gcnsim.run(config, strategy, trace, solver, delay=delay),
                 str(path))
        digests[path.name] = digest(path.read_bytes())
    return digests


def test_searching_day_matches_golden(tmp_path, monkeypatch):
    evidence = recorded_solves(monkeypatch)
    digests = searching_day(gcnsim.SolverConfig(node_limit=2000),
                            ("far", "gear"), tmp_path)
    digests["solver-evidence"] = digest(repr(evidence).encode())
    assert len(evidence) == 48
    assert digests == SEARCHING_DAY


# The same day with a fifth of the default node budget and a 5% gap
# tolerance: most solves stop on the gap at the root, and the descent proves
# all 4 still unproven after their first dive, the one whose flow bound
# equals the aggregate bound included (14.1 Wh lower in that slot).
GAP_STOP_DAY = {
    "slots-gear.csv":
        "dca9ae147d11243ff067522cb04dcdbfc49928fc07fbc55e9fbc3cd17c9234d6",
    "solver-evidence":
        "ed674f7331b093b1f551a60c128175d3ad9d868cbda35f74bf2e8582e91b7b79",
}


def test_gap_stop_day_matches_golden(tmp_path, monkeypatch):
    evidence = recorded_solves(monkeypatch)
    digests = searching_day(
        gcnsim.SolverConfig(node_limit=20_000, gap_tolerance=0.05),
        ("gear",), tmp_path)
    digests["solver-evidence"] = digest(repr(evidence).encode())
    assert len(evidence) == 48
    assert digests == GAP_STOP_DAY


# The default CLI day: its GEAR solves stop at the root or make one dive.
DEFAULT_DAY_EVIDENCE = (
    "d8d07e25a89e4db329a5790ae6c881fab91ed3f44dc8542ee9593fa0fc8a1d82")


def test_default_day_solver_evidence_matches_golden(tmp_path, monkeypatch):
    evidence = recorded_solves(monkeypatch)
    assert main(["run", "--strategy", "gear", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    assert len(evidence) == 96
    assert digest(repr(evidence).encode()) == DEFAULT_DAY_EVIDENCE


def world_stream_digest(config) -> str:
    """sha256 of a world's initial eNBs and every slot's (avatar id, CPU,
    eNB) triples, in order."""
    world = gcnsim.World(config)
    h = hashlib.sha256(repr(world.initial_enbs).encode())
    for t in range(config.slot_count):
        h.update(repr([(k, cpu, enb) for k, (cpu, enb)
                       in enumerate(zip(*world.columns(t)))]).encode())
    return h.hexdigest()


# The world stream alone, drawn with configs that reach every branch of the
# draw: UEs that arrive and redraw their waypoint almost every slot, UEs that
# never move, more sites than one byte can index, and cells whose edges are
# not exact binary fractions.
WORLD_STREAM = {
    "default": ({},
                "2f7b8ba19bea754d5d8ae653b84e6e74c56d97fd6d29cd818f134215bad27093"),
    "fast": ({"speed_range": (10.0, 10.0)},
             "51938839129f224477a0d571aeb569ad8eaba7eb407d93f78cfd99de467cdacb"),
    "still": ({"speed_range": (0.0, 0.0)},
              "e58d8297b60d5dfeed1c44e55eceac8ce467c9fa80486794112b13524c98c443"),
    "289-sites": ({"grid_dim": 17},
                  "18509813eb21b7e4fd38265680618ced79610857fb3a7510484351062280cdb4"),
    # pinned with the waypoint mean at 4.0, off the middle of this area
    "uneven-cells": ({"grid_dim": 3, "area_side": 7.0, "dest_mean": 4.0},
                     "d742db162550c51fb1b758cbbed5ffe71ab7b69cad6e7ad90391f9ce9b573a7d"),
}


@pytest.mark.parametrize("name", sorted(WORLD_STREAM))
def test_world_stream_matches_golden(name):
    overrides, expected = WORLD_STREAM[name]
    config = gcnsim.ScenarioConfig(rng_seed=3, **overrides)
    assert world_stream_digest(config) == expected
