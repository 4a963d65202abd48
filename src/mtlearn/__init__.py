"""Decentralized cooperative multi-agent learning toolkit.

Exact best-response analysis for a linear estimation team, finite
team-game dynamics, a rotating multi-timescale learning-rate
scheduler, desk-scale cooperative environments, tabular learners, and
a sweep harness with deterministic reporting.
"""

from .estimation import (
    InvalidProblemError,
    IterationTrace,
    Mode,
    TeamEstimationProblem,
    build_problem,
    iteration_matrix,
    run_br_iteration,
    solve_exact,
    spectral_radius,
    team_mse,
)
from .games import (
    DynamicsTrace,
    TeamGame,
    TieBreak,
    best_response,
    iibr_step,
    is_agent_by_agent_optimal,
    make_game,
    run_dynamics,
    sibr_step,
    team_payoff,
)
from .schedule import (
    INFINITE,
    Schedule,
    ScheduleError,
    ScheduleKind,
    assignment,
    classify,
    learning_rate,
    make_schedule,
)
from .envs import (
    ForagingConfig,
    ForagingEnv,
    MatrixGameEnv,
    StepResult,
    env_from_config,
    foraging_config_from_ascii,
    optimal_return,
)
from .learners import (
    EpsilonSchedule,
    QLearnerConfig,
    RunLog,
    train,
    train_estimation,
)
from .config import ExperimentConfig, load_experiment_config
from .harness import (
    SweepResult,
    aggregate,
    gap_recovered,
    normalize_returns,
    run_sweep,
    smooth,
)
from .reports import emit_reports, render_reports_from_dir

__version__ = "0.1.0"
