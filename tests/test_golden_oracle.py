"""Byte-exact ``mtlearn oracle`` and ``mtlearn brdyn`` output.

The files under ``tests/golden/oracle/`` are the stdout of these commands,
written before the oracle's kernels were trimmed, so the trimmed kernels
must reproduce every digit:

    mtlearn oracle > oracle_default.txt
    mtlearn oracle --config configs/oracle_coupled.json > oracle_coupled.txt
    mtlearn oracle --config N16 > oracle_n16.txt   (N16 is the config below)
    mtlearn brdyn --config configs/brdyn_climbing.json > brdyn_climbing.csv

Regenerate them only for an intended behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mtlearn import cli

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden" / "oracle"
CONFIGS = ROOT.parent / "configs"
# 16 agents: IIBR blows up, and SIBR runs out of its 200 sweeps just short of tol.
N16 = {"problem": {"p": 1.3, "q": 0.9, "sigma2": 0.4, "n": 16}}


@pytest.mark.parametrize("command, config, golden", [
    ("oracle", None, "oracle_default.txt"),
    ("oracle", CONFIGS / "oracle_coupled.json", "oracle_coupled.txt"),
    ("oracle", N16, "oracle_n16.txt"),
    ("brdyn", CONFIGS / "brdyn_climbing.json", "brdyn_climbing.csv"),
])
def test_output_matches_golden_bytes(command, config, golden, tmp_path, capsys):
    argv = [command]
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    elif config is not None:
        argv += ["--config", str(config)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()
