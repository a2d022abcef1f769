"""The benchmark's own checks: its deterministic counters repeat exactly.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs shortened (fewer slots) twice untraced and once traced.
The solver evidence, the quality figures and the output digests must be
identical across all three, and every strategy run must pass its checks.
"""

import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent)]
import run  # noqa: E402

run._import_program()

from instrument import Recorder  # noqa: E402
from workloads import WORKLOADS, sla_ms  # noqa: E402

# Slots per shortened workload; tight-sla needs daylight hours to search.
SLOTS = {"day-1000": 8, "tight-sla": 44, "sweep-kappa-600": 4}


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_counters_repeat_across_runs_and_tracing(name):
    workload = WORKLOADS[name]
    out = run.OUT / f"test-{name}"
    out.mkdir(parents=True, exist_ok=True)
    execute = workload.prepare(2, out, SLOTS[name])
    passes = []
    for trace in (False, False, True):
        with Recorder(trace) as rec:
            passes.append(run._one_pass(workload, execute, out, rec,
                                        sla_ms(workload)))
    for p in passes:
        assert p["check"].failed == 0, p["check"].problems
        assert p["check"].problems == []
    first = passes[0]["fingerprint"]
    assert first["solve_calls"] == SLOTS[name] * workload.days // 2
    assert first["warm_prev"] + first["warm_far"] == first["solve_calls"]
    assert len(first["digests"]) == len(workload.outputs)
    assert [p["fingerprint"] for p in passes[1:]] == [first, first]
    if name == "tight-sla":
        assert first["unproven"] > 0   # the search really is cut short


def test_recorder_restores_the_program():
    import gcnsim.cli
    import gcnsim.engine
    import gcnsim.strategy

    before = (gcnsim.engine.step_mobility, gcnsim.strategy.solve,
              gcnsim.cli.run, gcnsim.engine.gear_assign)
    with Recorder(True):
        assert gcnsim.engine.step_mobility is not before[0]
        assert gcnsim.strategy.solve is not before[1]
    assert (gcnsim.engine.step_mobility, gcnsim.strategy.solve,
            gcnsim.cli.run, gcnsim.engine.gear_assign) == before
