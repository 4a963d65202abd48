import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlearn
from mtlearn.lockstep import train_lockstep

from conftest import FIXTURE_ROWS, MATCH_PAYOFF, fixture_env_factory


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
        "train",
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
    # The factories are the classes, not second ways to build them.
    assert (mtlearn.estimation.build_problem is mtlearn.estimation.TeamEstimationProblem
            and mtlearn.games.make_game is mtlearn.games.TeamGame)
    args = mtlearn.cli.build_parser().parse_args(["sweep", "--config", "c.json",
                                                  "--out", "o", "--workers", "2"])
    assert args.workers == 2


@pytest.mark.parametrize("value_type, init", [
    (mtlearn.Schedule, ("n", "levels", "cluster_sizes", "switch_period")),
    (mtlearn.TeamEstimationProblem, ("p", "q", "sigma2", "n")),
    (mtlearn.TeamGame, ("payoff",)),
], ids=["Schedule", "TeamEstimationProblem", "TeamGame"])
def test_value_types_take_only_what_they_check(value_type, init):
    # A derived field that could be given would be a second, unchecked source of it.
    assert tuple(f.name for f in dataclasses.fields(value_type) if f.init) == init


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


def test_importing_renders_no_step_loop():
    # The scalar step loop is rendered and compiled for an agent count at the
    # first run with that count, not when the package is imported.
    script = "import mtlearn\nassert mtlearn.learners._kernel.cache_info().currsize == 0\n"
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


def env_factory_never_called():
    raise AssertionError("env_factory was called")


def call_entry_point(entry, argument, value):
    """Call one library entry point with valid arguments, except ``argument``."""
    q = mtlearn.QLearnerConfig()
    if entry in ("train", "train_lockstep"):
        kwargs = {"schedule": mtlearn.make_schedule(2, (0.3, 0.05), s=5), "q_config": q,
                  "total_steps": 10, "eval_every": 5, "eval_episodes": 1, "seed": 0,
                  argument: value}
        if entry == "train":
            return mtlearn.train(env_factory_never_called, **kwargs)
        schedule, seed = kwargs.pop("schedule"), kwargs.pop("seed")
        return train_lockstep(env_factory_never_called, [schedule], [seed], **kwargs)
    if entry == "train_estimation":
        kwargs = {"schedule": mtlearn.make_schedule(3, (0.5, 0.1), s=2), "batch_size": 1,
                  "total_steps": 5, "seed": 0, "eval_every": None, argument: value}
        return mtlearn.train_estimation(mtlearn.build_problem(1.0, 1.0, 0.5, 3), **kwargs)
    if entry == "run_sweep":
        config = mtlearn.load_experiment_config({
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF},
            "grid": {"lr0": [0.5], "lr1": [0.1], "switch_periods": [5]},
            "seeds": [0], "total_steps": 10})
        return mtlearn.run_sweep(config, workers=value)
    if entry == "optimal_return":
        env = mtlearn.MatrixGameEnv(mtlearn.make_game(MATCH_PAYOFF))
        return mtlearn.optimal_return(env, **{"seed": 0, "budget": 100, argument: value})
    if entry == "run_br_iteration":
        return mtlearn.run_br_iteration(mtlearn.build_problem(1.0, 0.5, 0.5, 3),
                                        mtlearn.Mode.IIBR, [0.0] * 3, max_sweeps=value)
    if entry == "run_dynamics" and argument == "max_rounds":
        return mtlearn.run_dynamics(mtlearn.make_game(MATCH_PAYOFF), mtlearn.Mode.IIBR,
                                    (0, 0), max_rounds=value)
    if entry == "MatrixGameEnv":
        return mtlearn.MatrixGameEnv(mtlearn.make_game(MATCH_PAYOFF), horizon=value)
    if entry == "ForagingConfig":
        if argument.endswith("_levels"):
            value = (value,)
        elif argument == "agent_positions":
            value = (value, (2, 2))
        elif argument == "food_positions":
            value = (value,)
        return mtlearn.ForagingConfig(**{"width": 3, "height": 3, "agent_levels": (1, 1),
                                         "food_levels": (1,), argument: value})
    if entry == "make_schedule":
        return mtlearn.make_schedule(value, (0.3,))
    if entry == "smooth":
        return mtlearn.smooth([0.0, 1.0], window=value)
    if entry == "build_problem":
        return mtlearn.build_problem(1.0, 1.0, 0.5, value)
    if entry in ("team_payoff", "is_agent_by_agent_optimal", "iibr_step"):
        return getattr(mtlearn, entry)(mtlearn.make_game(MATCH_PAYOFF), (value, 0))
    if entry in ("best_response", "sibr_step"):
        return getattr(mtlearn, entry)(mtlearn.make_game(MATCH_PAYOFF), (value, 0), 0)
    if entry == "run_dynamics" and argument == "initial":
        return mtlearn.run_dynamics(mtlearn.make_game(MATCH_PAYOFF), mtlearn.Mode.SIBR,
                                    (value, 0))
    if entry == "EpsilonSchedule":
        return mtlearn.EpsilonSchedule(**{"start": 1.0, "end": 0.1, "decay_steps": 10,
                                          argument: value})
    return mtlearn.QLearnerConfig(**{argument: value})


BAD_COUNTS = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not math.isfinite(x) or x != int(x)),
    st.integers(max_value=-1),
    st.text(max_size=4))
# An action id is an integer; an integer one out of range raises IndexError.
BAD_ACTIONS = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not math.isfinite(x) or x != int(x)),
    st.text(max_size=4))
BAD_UNIT_REALS = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not 0.0 <= x <= 1.0),
    st.integers(max_value=-1),
    st.text(max_size=4))
# A q_config or a schedule given as something else, such as its parts.
NOT_CONFIGS = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=4),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.dictionaries(st.sampled_from(["levels", "discount", "epsilon"]), st.floats(0.0, 1.0)))
# A position is a (row, col) pair of integers >= 0.
BAD_POSITIONS = st.one_of(
    st.tuples(BAD_COUNTS, st.integers(0, 2)),
    st.tuples(st.integers(0, 2), BAD_COUNTS),
    st.lists(st.integers(0, 2), max_size=4).filter(lambda pos: len(pos) != 2).map(tuple),
    BAD_COUNTS)


@pytest.mark.parametrize("entry, argument, named, values", [
    *[("train", arg, arg, BAD_COUNTS)
      for arg in ("total_steps", "eval_every", "eval_episodes", "seed")],
    *[("train_lockstep", arg, arg, BAD_COUNTS)
      for arg in ("total_steps", "eval_every", "eval_episodes", "seed")],
    *[("train_estimation", arg, arg, BAD_COUNTS)
      for arg in ("batch_size", "total_steps", "seed", "eval_every")],
    ("run_sweep", "workers", "workers", BAD_COUNTS),
    ("optimal_return", "seed", "seed", BAD_COUNTS),
    ("optimal_return", "budget", "budget", BAD_COUNTS),
    ("EpsilonSchedule", "decay_steps", "decay_steps", BAD_COUNTS),
    ("EpsilonSchedule", "start", "epsilon", BAD_UNIT_REALS),
    ("EpsilonSchedule", "end", "epsilon", BAD_UNIT_REALS),
    ("QLearnerConfig", "discount", "discount", BAD_UNIT_REALS),
    ("run_br_iteration", "max_sweeps", "max_sweeps", BAD_COUNTS),
    ("run_dynamics", "max_rounds", "max_rounds", BAD_COUNTS),
    ("MatrixGameEnv", "horizon", "horizon", BAD_COUNTS),
    ("ForagingConfig", "horizon", "horizon", BAD_COUNTS),
    ("ForagingConfig", "view_radius", "view_radius", BAD_COUNTS),
    ("make_schedule", "n", "^n must", BAD_COUNTS),
    *[("ForagingConfig", arg, arg, BAD_COUNTS)
      for arg in ("width", "height", "agent_levels", "food_levels")],
    ("smooth", "window", "window", BAD_COUNTS),
    ("build_problem", "n", "^n must", BAD_COUNTS),
    *[(entry, "profile", "profile", BAD_ACTIONS)
      for entry in ("team_payoff", "best_response", "iibr_step", "sibr_step",
                    "is_agent_by_agent_optimal")],
    ("run_dynamics", "initial", "initial", BAD_ACTIONS),
    ("QLearnerConfig", "epsilon", "epsilon",
     st.one_of(st.floats(0.0, 1.0), st.none(), st.tuples(st.floats(0.0, 1.0)))),
    *[("ForagingConfig", arg, arg, BAD_POSITIONS)
      for arg in ("agent_positions", "food_positions")],
    *[(entry, "q_config", "q_config must be a QLearnerConfig", NOT_CONFIGS)
      for entry in ("train", "train_lockstep")],
    *[(entry, "schedule", "schedule must be a Schedule", NOT_CONFIGS)
      for entry in ("train", "train_lockstep", "train_estimation")],
])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_entry_points_reject_bad_counts(entry, argument, named, values, data):
    # One rule at every library entry point, checked before any work: the
    # training calls fail before they build the env.
    value = data.draw(values)
    with pytest.raises(ValueError, match=named):
        call_entry_point(entry, argument, value)


def call_with_enum_argument(entry, argument, value):
    """Call one entry point with valid arguments, except ``argument`` (``mode``
    or ``tie_break``), which is ``value``."""
    if entry in ("iteration_matrix", "run_br_iteration"):
        problem = mtlearn.build_problem(1.0, 1.0, 0.5, 3)
        if entry == "iteration_matrix":
            return mtlearn.iteration_matrix(problem, value)
        return mtlearn.run_br_iteration(problem, value, [0.0] * 3)
    game = mtlearn.make_game(MATCH_PAYOFF)
    if entry == "run_dynamics":
        kwargs = {"mode": mtlearn.Mode.IIBR, "tie_break": mtlearn.TieBreak.KEEP_CURRENT,
                  argument: value}
        return mtlearn.run_dynamics(game, initial=(0, 1), **kwargs)
    if entry == "iibr_step":
        return mtlearn.iibr_step(game, (0, 1), tie_break=value)
    return getattr(mtlearn, entry)(game, (0, 1), 0, tie_break=value)


@pytest.mark.parametrize("value", ["iibr", "sibr", "keep_current", "lowest_index", None, 0, 1])
@pytest.mark.parametrize("entry, argument", [
    ("iteration_matrix", "mode"), ("run_br_iteration", "mode"), ("run_dynamics", "mode"),
    ("best_response", "tie_break"), ("iibr_step", "tie_break"), ("sibr_step", "tie_break"),
    ("run_dynamics", "tie_break"),
])
def test_enum_arguments_take_only_members(entry, argument, value):
    # A string, None or an int is not an update order or a tie rule: it fails
    # by name, where a branch on the member would run the other rule.
    with pytest.raises(ValueError, match=f"{argument} must be a"):
        call_with_enum_argument(entry, argument, value)


def test_readme_quick_start_runs_as_its_comments_say():
    # Each bare expression in the block ends in a comment giving its value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", readme, re.S).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    radius_iibr, radius_sibr, sweeps, cycle_status, final_payoff, final_return = values
    assert radius_iibr == pytest.approx(4 / 3)
    assert radius_sibr == pytest.approx(6 * math.sqrt(6) / 27)
    assert sweeps == ("converged", 32)
    assert (cycle_status, final_payoff) == ("cycle", 1.0)
    assert final_return == 1.0


@pytest.mark.parametrize("kernel", ["train", "train_lockstep"])
def test_integral_float_counts_run_as_the_integers(kernel):
    # 100.0 steps and seed 1.0 are the counts 100 and 1 (the count rule), for
    # the scalar and the lockstep kernel alike.
    schedule, q = mtlearn.make_schedule(2, (0.3, 0.05), s=20), mtlearn.QLearnerConfig()

    def run(total_steps, eval_every, eval_episodes, seed):
        if kernel == "train":
            return mtlearn.train(fixture_env_factory, schedule, q, total_steps, eval_every,
                                 eval_episodes, seed)
        return train_lockstep(fixture_env_factory, [schedule], [seed], q, total_steps,
                              eval_every, eval_episodes)[0]

    expected = mtlearn.learners.runlog_to_csv(run(100, 50, 2, 1))
    assert mtlearn.learners.runlog_to_csv(run(100.0, 50.0, 2.0, 1.0)) == expected
