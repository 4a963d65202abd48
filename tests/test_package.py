import os
import re
import subprocess
import sys
from pathlib import Path

import mtlearn

from conftest import FIXTURE_ROWS


def test_public_surface_importable():
    surface = [
        "build_problem", "solve_exact", "iteration_matrix", "spectral_radius",
        "run_br_iteration", "team_mse", "Mode",
        "make_game", "team_payoff", "best_response", "iibr_step", "sibr_step",
        "run_dynamics", "is_agent_by_agent_optimal", "TieBreak",
        "make_schedule", "assignment", "learning_rate", "classify",
        "Schedule", "ScheduleKind", "INFINITE",
        "MatrixGameEnv", "ForagingEnv", "ForagingConfig", "StepResult",
        "env_from_config", "foraging_config_from_ascii", "optimal_return",
        "q_update", "select_action", "train",
        "train_estimation", "RunLog", "QLearnerConfig", "EpsilonSchedule",
        "normalize_returns", "aggregate", "gap_recovered", "smooth",
        "run_sweep", "load_experiment_config", "ExperimentConfig", "SweepResult",
        "emit_reports", "render_reports_from_dir",
    ]
    missing = [name for name in surface if not hasattr(mtlearn, name)]
    assert not missing, f"missing exports: {missing}"


def test_benchmark_names_exist():
    # bench/workloads.py reaches these through the submodules; a deletion
    # should fail here rather than as a failed benchmark run.
    import mtlearn.cli
    import mtlearn.harness

    names = {
        "learners": ["train", "QLearnerConfig", "EpsilonSchedule", "runlog_to_csv"],
        "envs": ["env_from_config", "optimal_return"],
        "schedule": ["make_schedule"],
        "harness": ["load_experiment_config", "run_sweep"],
        "cli": ["main"],
        "estimation": ["build_problem", "solve_exact", "iteration_matrix", "spectral_radius",
                       "run_br_iteration", "Mode"],
        "games": ["make_game", "run_dynamics", "is_agent_by_agent_optimal", "best_response"],
    }
    missing = [f"{module}.{name}" for module, attrs in names.items() for name in attrs
               if not hasattr(getattr(mtlearn, module), name)]
    assert not missing, f"missing benchmark names: {missing}"
    args = mtlearn.cli.build_parser().parse_args(["sweep", "--config", "c.json",
                                                  "--out", "o", "--workers", "2"])
    assert args.workers == 2


def test_version_string():
    major, minor, patch = mtlearn.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_single_runs_and_planning_do_not_load_lockstep():
    # The sweep engine is imported by the first sweep only, so a single run
    # pays nothing for it.
    script = f"""
import sys
import mtlearn as mt

def factory():
    return mt.ForagingEnv(mt.foraging_config_from_ascii({list(FIXTURE_ROWS)!r}, horizon=16,
                                                        cooperative_only=True))

mt.train(factory, mt.make_schedule(2, (0.3, 0.05), s=50), mt.QLearnerConfig(), 200, 100, 2, 0)
assert mt.optimal_return(factory()) == 1.0
assert "mtlearn.lockstep" not in sys.modules, sorted(sys.modules)
"""
    src = str(Path(mtlearn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_oracle_kernels_call_no_lapack():
    # linalg and estimation do their arithmetic in-repo, bit-identical to
    # tests/oracle_reference.py; a LAPACK routine would be faster but would
    # round differently.
    src = Path(mtlearn.__file__).resolve().parent
    for name in ("linalg.py", "estimation.py"):
        text = (src / name).read_text()
        for banned in ("np.linalg", "numpy.linalg", "scipy"):
            assert banned not in text, f"{name} references {banned}"
        assert not re.search(r"from\s+numpy\s+import[^\n]*\blinalg\b", text), name
