"""The module-level names that `perfbench` wraps from outside.

The benchmark times and counts GEAR's decisions by replacing these names in
the modules that import them, and silently skips a name that is no longer
bound. So each must stay bound where listed and carry its calls in a run.
"""

import importlib

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


def test_every_hook_site_carries_calls(tmp_path, monkeypatch):
    calls = dict.fromkeys(HOOK_SITES, 0)
    for site in HOOK_SITES:
        module = importlib.import_module(f"gcnsim.{site[0]}")
        original = getattr(module, site[1])

        def counting(*args, _site=site, _original=original, **kwargs):
            calls[_site] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, site[1], counting)
    config = tmp_path / "two-slots.cfg"
    config.write_text("ue_count = 40\nslot_count = 2\n", encoding="utf-8")
    assert main(["run", "--strategy", "both", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0
    assert [site for site, n in calls.items() if n == 0] == []
