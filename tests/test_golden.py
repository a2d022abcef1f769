"""Byte-identity gate: the CLI's CSV outputs at the default config, and a
library day on which the solver has to search.

The `run` and `sweep-kappa` digests were captured from the code before the
closed-form power model, the shared reachability table and the shared greedy
replaced their earlier implementations; the `sweep-ues` digest from the code
before runs shared one drawn world; the searching-day digests from the code
before GEAR chose with one float scorer and the searches stopped recursing.
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
    ("sweep-ues", "sweep.csv"):
        "2cd043f2d79b55f278285af0868814f4c41843156b05e39b712e1b4140c8c021",
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
# diving once; 5 of its 48 searches stop at the node limit.
SEARCHING_DAY = {
    "slots-far.csv":
        "fa9cec8979dab30f5a3d1e6d62b1b97906b73c9d9395ca3cb615db1518dfc4c0",
    "slots-gear.csv":
        "7ec446c6ce7a5b656be37e5f3c928613eac68912d7da84757bd7080731efeecf",
    "solver-evidence":
        "ed43d23a1b368f78d20bfe9c243682cfa4bc5503190a9144c32d65d6362706f9",
}


def test_searching_day_matches_golden(tmp_path, monkeypatch):
    config = gcnsim.ScenarioConfig(ue_count=300, slot_count=48, rng_seed=1)
    delay = replace(gcnsim.default_delay_params(), sla_max_delay=7.0)
    solver = gcnsim.SolverConfig(node_limit=2000)
    trace = gcnsim.load_solar_trace(bundled_trace_path())
    evidence = []
    solve = gcnsim.strategy.solve

    def recording_solve(inst, config=None):
        sol = solve(inst, config)
        evidence.append((sol.nodes_explored, sol.proven_optimal,
                         sol.lower_bound, sol.gap))
        return sol

    monkeypatch.setattr(gcnsim.strategy, "solve", recording_solve)
    digests = {}
    for strategy in ("far", "gear"):
        path = tmp_path / f"slots-{strategy}.csv"
        emit_csv(gcnsim.run(config, strategy, trace, solver, delay=delay),
                 str(path))
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    digests["solver-evidence"] = hashlib.sha256(
        repr(evidence).encode()).hexdigest()
    assert len(evidence) == 48
    assert digests == SEARCHING_DAY
