"""The module-level names that `perfbench` wraps from outside, and what its
checks read.

The benchmark times and counts GEAR's decisions by replacing these names in
the modules that import them, and silently skips a name that is no longer
bound. So each must stay bound where listed and carry its calls in a run.
Its per-decision checks read each state's `loads`, each placement's
`counts` and the solver's warm start, so those must keep their meaning.
"""

import importlib

from gcnsim import engine, strategy
from gcnsim.cli import main

HOOK_SITES = (
    ("engine", "gear_assign"),
    ("engine", "far_assign"),
    ("strategy", "solve"),
    ("strategy", "build_instance"),
    ("strategy", "far_assign"),
    ("engine", "compute_slot_metrics"),
    ("cli", "run"),
)


def run_two_slot_day(tmp_path):
    config = tmp_path / "two-slots.cfg"
    config.write_text("ue_count = 40\nslot_count = 2\n", encoding="utf-8")
    assert main(["run", "--strategy", "both", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0


def test_every_hook_site_carries_calls(tmp_path, monkeypatch):
    calls = dict.fromkeys(HOOK_SITES, 0)
    for site in HOOK_SITES:
        module = importlib.import_module(f"gcnsim.{site[0]}")
        original = getattr(module, site[1])

        def counting(*args, _site=site, _original=original, **kwargs):
            calls[_site] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, site[1], counting)
    run_two_slot_day(tmp_path)
    assert [site for site, n in calls.items() if n == 0] == []


def test_what_the_benchmark_checks_read(tmp_path, monkeypatch):
    far_placements, seeds = [], []
    far_assign, solve = strategy.far_assign, strategy.solve

    def far_recorded(state):
        outcome = far_assign(state)
        far_placements.append(outcome.assignment)
        return outcome

    def solve_recorded(inst, config=None):
        seeds.append(config.seed_assignment)
        return solve(inst, config)

    monkeypatch.setattr(strategy, "far_assign", far_recorded)
    monkeypatch.setattr(strategy, "solve", solve_recorded)
    decisions = []

    def checked(assign):
        def wrapper(state, *args, **kwargs):
            far_placements.clear()
            seeds.clear()
            outcome = assign(state, *args, **kwargs)
            placed = outcome.assignment.placement.keys()
            assert {a.avatar_id for a in state.loads} == placed
            cap = state.power.server_capacity
            counts = outcome.assignment.counts(len(state.specs))
            assert all(n <= spec.server_count * cap
                       for n, spec in zip(counts, state.specs))
            if seeds:
                seed, = seeds
                assert (seed is state.prev_assignment
                        or seed is far_placements[0])
            decisions.append(len(seeds))
            return outcome
        return wrapper

    monkeypatch.setattr(engine, "far_assign", checked(engine.far_assign))
    monkeypatch.setattr(engine, "gear_assign", checked(engine.gear_assign))
    run_two_slot_day(tmp_path)
    assert sorted(decisions) == [0, 0, 1, 1]  # two FAR, then two GEAR
