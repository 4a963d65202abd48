"""Byte-exact sweep outputs pinned against files generated before the
lockstep sweep runner.

The files under ``tests/golden/sweep_<case>/`` were written by
``run_sweep`` + ``emit_reports`` when every (cell, seed) job ran its own
scalar ``learners.train`` loop. CSVs and the manifest are stored whole;
SVGs are pinned by their sha256 in ``svg_sha256.json``. Every sweep path
must reproduce them byte for byte at any worker count. Regenerate them
only for an intended behaviour change:
``PYTHONPATH=src python tests/test_golden_sweeps.py``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from mtlearn.harness import load_experiment_config, run_sweep
from mtlearn.reports import emit_reports

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
CONFIGS = ROOT.parent / "configs"


def matrix_config() -> dict:
    return json.loads((CONFIGS / "sweep_matrix.json").read_text())


def foraging_config() -> dict:
    """``configs/sweep_foraging.json`` with its env and grid, cut to two seeds
    of 5000 steps."""
    raw = json.loads((CONFIGS / "sweep_foraging.json").read_text())
    raw.update(total_steps=5000, eval_every=500, seeds=[0, 1])
    return raw


CASES = {"matrix": matrix_config, "foraging": foraging_config}


def sweep_files(case: str, workers: int, out: Path) -> dict[str, bytes]:
    result = run_sweep(load_experiment_config(CASES[case]()), workers=workers)
    emit_reports(result, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def split(files: dict[str, bytes]) -> tuple[dict[str, bytes], dict[str, str]]:
    """(CSV and manifest bytes, sha256 of each SVG)."""
    whole = {name: body for name, body in files.items() if not name.endswith(".svg")}
    digests = {name: hashlib.sha256(body).hexdigest()
               for name, body in files.items() if name.endswith(".svg")}
    return whole, digests


def golden_dir(case: str) -> Path:
    return GOLDEN / f"sweep_{case}"


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_outputs_match_golden_bytes(case, workers, tmp_path):
    whole, digests = split(sweep_files(case, workers, tmp_path))
    stored = golden_dir(case)
    expected_svgs = json.loads((stored / "svg_sha256.json").read_text())
    expected = {p.name: p.read_bytes() for p in sorted(stored.iterdir())
                if p.name != "svg_sha256.json"}
    assert sorted(whole) == sorted(expected)
    for name, body in expected.items():
        assert whole[name] == body, name
    assert digests == expected_svgs


if __name__ == "__main__":
    for name in sorted(CASES):
        target = golden_dir(name)
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            files, svgs = split(sweep_files(name, 1, Path(tmp)))
        for file_name, body in files.items():
            (target / file_name).write_bytes(body)
        (target / "svg_sha256.json").write_text(json.dumps(svgs, indent=2, sort_keys=True) + "\n")
