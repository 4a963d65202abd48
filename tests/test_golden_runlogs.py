"""Byte-exact run logs pinned against files generated before the step memo.

The CSVs under ``tests/golden/`` were written by ``runlog_to_csv`` with the
``ForagingEnv`` that recomputed every transition, so any fast path in the
environment or the learners must reproduce them byte for byte. Regenerate
them only for an intended behaviour change:
``PYTHONPATH=src python tests/test_golden_runlogs.py``.

``runlog_fixture_full_seed0.csv`` is the shipped ``configs/train_foraging.json``
run whole, seed 0: 50,000 steps, so it pins the greedy phase (epsilon 0.01
from step 30,000) that the 20,000-step logs never reach. Its eval returns are
all 0 or 1, so ``qtables_fixture_full_seed0.sha256`` pins the run's final
Q-tables too, every value's ``repr``. Both pin the scalar loop's output as it
was before Q-rows moved to lists with a cached first-max; they are not an
independent reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import mtlearn as mt
from mtlearn.learners import EpsilonSchedule, QLearnerConfig, runlog_to_csv, train_with_tables
from mtlearn.config import schedule_from_config

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
FIXTURE_CONFIG = json.loads((ROOT.parent / "configs" / "train_foraging.json").read_text())
SEEDS = (0, 1, 2)
TOTAL_STEPS = 20_000
EVAL_EVERY = 1000


def fixture_env():
    return mt.env_from_config(FIXTURE_CONFIG["env"])


def seeded_local_view_env():
    """5x5, two level-1 agents, a level-1 and a level-2 food, all placed by
    the reset seed; agents see one cell around them."""
    return mt.ForagingEnv(mt.ForagingConfig(
        width=5, height=5, agent_levels=(1, 1), food_levels=(1, 2), horizon=16,
        view_radius=1))


LAYOUTS = {"fixture": fixture_env, "seeded_view1": seeded_local_view_env}


def golden_run(layout: str, seed: int, total_steps: int = TOTAL_STEPS,
               eval_every: int = EVAL_EVERY):
    q = FIXTURE_CONFIG["q"]
    q_config = QLearnerConfig(
        epsilon=EpsilonSchedule(q["epsilon_start"], q["epsilon_end"],
                                q["epsilon_decay_steps"]),
        discount=q["discount"])
    factory = LAYOUTS[layout]
    sched = schedule_from_config(factory().n, FIXTURE_CONFIG["schedule"])
    return train_with_tables(factory, sched, q_config, total_steps, eval_every,
                             FIXTURE_CONFIG["eval_episodes"], seed)


def golden_csv(layout: str, seed: int) -> str:
    return runlog_to_csv(golden_run(layout, seed)[0])


def golden_path(layout: str, seed: int) -> Path:
    return GOLDEN / f"runlog_{layout}_seed{seed}.csv"


def full_run() -> tuple[str, str]:
    """The full-length run's CSV and the sha256 of its Q-tables."""
    log, tables = golden_run("fixture", 0, FIXTURE_CONFIG["total_steps"],
                             FIXTURE_CONFIG["eval_every"])
    rows = [sorted(table.items()) for table in tables]
    return runlog_to_csv(log), hashlib.sha256(repr(rows).encode()).hexdigest() + "\n"


FULL_PATHS = (golden_path("fixture_full", 0), GOLDEN / "qtables_fixture_full_seed0.sha256")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_run_log_matches_golden_bytes(layout, seed):
    assert golden_csv(layout, seed) == golden_path(layout, seed).read_text()


def test_full_length_run_matches_golden_bytes():
    assert full_run() == tuple(path.read_text() for path in FULL_PATHS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(LAYOUTS):
        for s in SEEDS:
            golden_path(name, s).write_text(golden_csv(name, s))
    for path, text in zip(FULL_PATHS, full_run()):
        path.write_text(text)
