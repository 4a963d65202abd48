"""The config layer: the one place a subcommand's JSON config is read.

Each subcommand's config is a frozen dataclass built only from its raw dict,
parsed when it is made, before any work starts: :class:`OracleConfig`,
:class:`BrdynConfig`, :class:`TrainConfig` and :class:`ExperimentConfig`
(``sweep``); the ``load_*`` names are these classes. A config keeps a deep
copy of the dict as ``raw`` and takes its ``digest`` from that copy. Every
parsed field is ``init=False``, so ``dataclasses.replace`` takes only ``raw``
and parses again. A key a config object does not have fails at any nesting
level, with its path (``grid.lr00``) in the message; the ``env`` block is
parsed, just as strictly, by :func:`envs.env_from_config`. Integer fields
follow :func:`schedule.parse_count`; real-valued fields must be JSON numbers."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

from .envs import env_from_config
from .estimation import Mode, TeamEstimationProblem
from .games import TeamGame, TieBreak
from .learners import EpsilonSchedule, QLearnerConfig
from .schedule import Schedule, make_schedule, parse_count, parse_rate, parse_switch_period


def config_digest(raw: dict) -> str:
    payload = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Field rules


def _object(value, path: str, keys: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """``value`` as the config object at ``path`` ("" for the top level): a
    dict with every key in ``required`` and none outside ``keys``."""
    where = path or "config"
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    prefix = f"{path}." if path else ""
    unknown = [key for key in value if key not in keys]
    if unknown:
        names = ", ".join(repr(prefix + key) for key in unknown)
        raise ValueError(f"unknown key {names} in {where}; valid keys: {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ValueError(f"config is missing required key {prefix + key!r}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a JSON list, got {value!r}")
    return list(value)


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _choice(enum_type, value, name: str):
    """The member of ``enum_type`` named ``value``, in any letter case."""
    names = [member.name.lower() for member in enum_type]
    if not isinstance(value, str) or value.lower() not in names:
        raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(names)}")
    return enum_type[value.upper()]


# ---------------------------------------------------------------------------
# Blocks shared by train and sweep configs


def parse_run_counts(raw: dict) -> tuple[int, int, int]:
    """``(total_steps, eval_every, eval_episodes)`` of a train or sweep
    config, each an integer >= 1. ``eval_every`` defaults to a twentieth of
    ``total_steps`` (at least 1) and ``eval_episodes`` to 10."""
    total_steps = parse_count(raw["total_steps"], "total_steps")
    return (total_steps,
            parse_count(raw.get("eval_every", max(1, total_steps // 20)), "eval_every"),
            parse_count(raw.get("eval_episodes", 10), "eval_episodes"))


def parse_q_config(raw: dict, total_steps: int) -> QLearnerConfig:
    """Build a :class:`QLearnerConfig` from a config's ``q`` block.

    Missing keys take their defaults: ``epsilon_start`` 1.0,
    ``epsilon_end`` 0.05, ``epsilon_decay_steps`` half of
    ``total_steps`` (at least 1) and ``discount`` 0.95. The decay length
    follows the count rule.
    """
    q = _object(raw, "q", ("epsilon_start", "epsilon_end", "epsilon_decay_steps", "discount"))
    return QLearnerConfig(
        epsilon=EpsilonSchedule(
            start=_number(q.get("epsilon_start", 1.0), "epsilon_start"),
            end=_number(q.get("epsilon_end", 0.05), "epsilon_end"),
            decay_steps=parse_count(q.get("epsilon_decay_steps", max(1, total_steps // 2)),
                                    "epsilon_decay_steps"),
        ),
        discount=_number(q.get("discount", 0.95), "discount"),
    )


def schedule_from_config(n: int, cfg: dict) -> Schedule:
    """The :class:`Schedule` of a train config's ``schedule`` block,
    ``{levels, cluster_sizes, switch_period}``, for an ``n``-agent env.

    ``levels`` is required; ``cluster_sizes`` takes :class:`Schedule`'s
    default and ``switch_period`` defaults to "inf".
    """
    block = _object(cfg, "schedule", ("levels", "cluster_sizes", "switch_period"),
                    required=("levels",))
    levels = [_number(v, "levels") for v in _list(block["levels"], "levels")]
    sizes = block.get("cluster_sizes")
    if sizes is not None:
        sizes = [parse_count(c, "cluster_sizes") for c in _list(sizes, "cluster_sizes")]
    return make_schedule(n, levels, sizes, s=block.get("switch_period", "inf"))


# ---------------------------------------------------------------------------
# Configs, one per subcommand


def _set(cfg, **fields) -> None:
    """Set a config's parsed ``fields``, ``raw`` among them, and its ``digest``."""
    for name, value in dict(fields, digest=config_digest(fields["raw"])).items():
        object.__setattr__(cfg, name, value)


@dataclass(frozen=True, eq=False)
class OracleConfig:
    """An ``oracle`` config: the estimation problem and the sweep settings.
    Every key is optional, and ``{}`` is the bundled instance p=1, q=1,
    sigma2=0.5, n=3 from zero gains."""

    raw: dict
    problem: TeamEstimationProblem = field(init=False)
    k0: tuple[float, ...] = field(init=False)
    max_sweeps: int = field(init=False)
    tol: float = field(init=False)
    digest: str = field(init=False)

    def __post_init__(self):
        raw = copy.deepcopy(self.raw)
        _object(raw, "", ("problem", "k0", "max_sweeps", "tol"))
        prob = _object(raw.get("problem", {}), "problem", ("p", "q", "sigma2", "n"))
        problem = TeamEstimationProblem(
            _number(prob.get("p", 1.0), "p"), _number(prob.get("q", 1.0), "q"),
            _number(prob.get("sigma2", 0.5), "sigma2"), parse_count(prob.get("n", 3), "n"))
        k0 = tuple(_number(v, "k0") for v in _list(raw.get("k0", [0.0] * problem.n), "k0"))
        if len(k0) != problem.n or not all(map(math.isfinite, k0)):
            raise ValueError(f"k0 must list {problem.n} finite numbers, one per agent, "
                             f"got {list(k0)}")
        tol = _number(raw.get("tol", 1e-10), "tol")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
        _set(self, raw=raw, problem=problem, k0=k0, tol=tol,
             max_sweeps=parse_count(raw.get("max_sweeps", 200), "max_sweeps"))


@dataclass(frozen=True, eq=False)
class BrdynConfig:
    """A ``brdyn`` config: the team game and how to run its dynamics.
    ``payoff`` is required; ``mode`` defaults to sibr, ``initial`` to every
    agent on action 0, ``tie_break`` to keep_current and ``max_rounds`` to 1000."""

    raw: dict
    game: TeamGame = field(init=False)
    mode: Mode = field(init=False)
    initial: tuple[int, ...] = field(init=False)
    tie_break: TieBreak = field(init=False)
    max_rounds: int = field(init=False)
    digest: str = field(init=False)

    def __post_init__(self):
        raw = copy.deepcopy(self.raw)
        _object(raw, "", ("payoff", "mode", "initial", "max_rounds", "tie_break"),
                required=("payoff",))
        game = TeamGame(raw["payoff"])
        initial = tuple(parse_count(a, "initial", minimum=0)
                        for a in _list(raw.get("initial", [0] * game.n), "initial"))
        if len(initial) != game.n or any(a >= c for a, c in zip(initial, game.action_counts)):
            raise ValueError(f"initial must hold one action id per agent, each below its action "
                             f"count {list(game.action_counts)}, got {list(initial)}")
        _set(self, raw=raw, game=game, initial=initial,
             mode=_choice(Mode, raw.get("mode", "sibr"), "mode"),
             tie_break=_choice(TieBreak, raw.get("tie_break", "keep_current"), "tie_break"),
             max_rounds=parse_count(raw.get("max_rounds", 1000), "max_rounds"))


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """A ``train`` config: one scheduled run. ``env`` is the env block and
    ``seed`` the config's ``seed`` (default 0)."""

    raw: dict
    seed: int = field(init=False)
    env: dict = field(init=False)
    schedule: Schedule = field(init=False)
    q_config: QLearnerConfig = field(init=False)
    total_steps: int = field(init=False)
    eval_every: int = field(init=False)
    eval_episodes: int = field(init=False)
    digest: str = field(init=False)

    def __post_init__(self):
        raw = copy.deepcopy(self.raw)
        _object(raw, "", ("env", "schedule", "q", "total_steps", "eval_every", "eval_episodes",
                          "seed"), required=("env", "schedule", "total_steps"))
        sched = schedule_from_config(env_from_config(raw["env"]).n, raw["schedule"])
        total_steps, eval_every, eval_episodes = parse_run_counts(raw)
        _set(self, raw=raw, env=dict(raw["env"]), schedule=sched,
             q_config=parse_q_config(raw.get("q", {}), total_steps),
             total_steps=total_steps, eval_every=eval_every, eval_episodes=eval_episodes,
             seed=parse_count(raw.get("seed", 0), "seed", minimum=0))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A ``sweep`` config (see README for the schema); ``n_agents`` is the
    agent count of its env. The env is built and every cell's schedule made
    here, so a bad env, or one no cell's schedule fits, fails before any job
    starts."""

    raw: dict
    env: dict = field(init=False)
    n_agents: int = field(init=False)
    lr0_values: tuple[float, ...] = field(init=False)
    lr1_values: tuple[float, ...] = field(init=False)
    switch_periods: tuple[float, ...] = field(init=False)
    seeds: tuple[int, ...] = field(init=False)
    total_steps: int = field(init=False)
    eval_every: int = field(init=False)
    eval_episodes: int = field(init=False)
    q_config: QLearnerConfig = field(init=False)
    digest: str = field(init=False)

    def __post_init__(self):
        raw = copy.deepcopy(self.raw)
        _object(raw, "", ("env", "grid", "seeds", "total_steps", "eval_every", "eval_episodes",
                          "q"), required=("env", "grid", "seeds", "total_steps"))
        grid = _object(raw["grid"], "grid", ("lr0", "lr1", "switch_periods"),
                       required=("lr0", "lr1", "switch_periods"))
        lr0 = tuple(parse_rate(_number(v, "lr0")) for v in _list(grid["lr0"], "lr0"))
        lr1 = tuple(parse_rate(_number(v, "lr1")) for v in _list(grid["lr1"], "lr1"))
        periods = tuple(parse_switch_period(v)
                        for v in _list(grid["switch_periods"], "switch_periods"))
        seeds = tuple(parse_count(s, "seeds", minimum=0) for s in _list(raw["seeds"], "seeds"))
        total_steps, eval_every, eval_episodes = parse_run_counts(raw)
        if not lr0 or not lr1 or not periods:
            raise ValueError("lr0, lr1, and switch_periods must all be non-empty")
        if not seeds:
            raise ValueError("need at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        n = env_from_config(raw["env"]).n
        for a in lr0:
            for b in lr1:
                for period in periods:
                    make_schedule(n, (a, b), s=period)
        _set(self, raw=raw, env=dict(raw["env"]), n_agents=n, lr0_values=lr0,
             lr1_values=lr1, switch_periods=periods, seeds=seeds, total_steps=total_steps,
             eval_every=eval_every, eval_episodes=eval_episodes,
             q_config=parse_q_config(raw.get("q", {}), total_steps))


# The loaders of cli, harness and the benchmark: each builds its config from the raw dict.
load_oracle_config, load_brdyn_config = OracleConfig, BrdynConfig
load_train_config, load_experiment_config = TrainConfig, ExperimentConfig
