"""Byte-identity gate: the CLI's CSV outputs at the default config.

The `run` and `sweep-kappa` digests were captured from the code before the
closed-form power model, the shared reachability table and the shared greedy
replaced their earlier implementations; the `sweep-ues` digest from the code
before runs shared one drawn world. A change that is meant to alter outputs
must name that change and re-pin these digests; any other change must leave
them alone.
"""

import hashlib

import pytest

from gcnsim.cli import main

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
