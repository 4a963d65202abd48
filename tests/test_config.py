import copy
import dataclasses
import json
import string
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlearn.config import (
    BrdynConfig,
    ExperimentConfig,
    OracleConfig,
    TrainConfig,
    config_digest,
    load_brdyn_config,
    load_experiment_config,
    load_oracle_config,
    load_train_config,
)
from mtlearn.estimation import Mode
from mtlearn.games import TieBreak

from conftest import MATCH_PAYOFF

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LOADERS = {"oracle": load_oracle_config, "brdyn": load_brdyn_config,
           "train": load_train_config, "sweep": load_experiment_config}

counts = st.integers(1, 10 ** 6)
seeds = st.integers(0, 2 ** 32 - 1)
unit = st.floats(0.0, 1.0)
rates = st.lists(unit, min_size=1, max_size=3)
periods = st.one_of(st.integers(1, 1000), st.just("inf"))
env_blocks = st.fixed_dictionaries({"kind": st.just("matrix_game"),
                                    "payoff": st.just(MATCH_PAYOFF)},
                                   optional={"horizon": st.integers(1, 20)})
q_blocks = st.fixed_dictionaries({}, optional={
    "epsilon_start": unit, "epsilon_end": unit, "epsilon_decay_steps": counts,
    "discount": unit})
run_counts = {"eval_every": counts, "eval_episodes": counts, "q": q_blocks}

train_configs = st.fixed_dictionaries(
    {"env": env_blocks, "total_steps": counts,
     "schedule": st.fixed_dictionaries({"levels": st.lists(unit, min_size=2, max_size=2)},
                                       optional={"switch_period": periods})},
    optional={**run_counts, "seed": seeds})
sweep_configs = st.fixed_dictionaries(
    {"env": env_blocks, "total_steps": counts,
     "grid": st.fixed_dictionaries({"lr0": rates, "lr1": rates,
                                    "switch_periods": st.lists(periods, min_size=1,
                                                               max_size=3)}),
     "seeds": st.lists(seeds, min_size=1, max_size=4, unique=True)},
    optional=run_counts)
oracle_configs = st.fixed_dictionaries({}, optional={
    "problem": st.fixed_dictionaries({}, optional={
        "p": st.floats(0.1, 5.0), "q": st.floats(-2.0, 2.0), "sigma2": st.floats(0.01, 5.0),
        "n": st.integers(2, 6)}),
    "max_sweeps": counts, "tol": st.floats(1e-12, 1.0)})
brdyn_configs = st.fixed_dictionaries({"payoff": st.just([[11, -30, 0], [-30, 7, 6]])}, optional={
    "mode": st.sampled_from(["iibr", "sibr", "SIBR"]),
    "initial": st.tuples(st.integers(0, 1), st.integers(0, 2)).map(list),
    "tie_break": st.sampled_from(["keep_current", "lowest_index", "Lowest_Index"]),
    "max_rounds": counts})


def check_q_config(cfg, raw):
    q = raw.get("q", {})
    eps = cfg.q_config.epsilon
    assert eps.start == q.get("epsilon_start", 1.0)
    assert eps.end == q.get("epsilon_end", 0.05)
    assert eps.decay_steps == q.get("epsilon_decay_steps", max(1, raw["total_steps"] // 2))
    assert cfg.q_config.discount == q.get("discount", 0.95)


def check_run_counts(cfg, raw):
    assert cfg.total_steps == raw["total_steps"]
    assert cfg.eval_every == raw.get("eval_every", max(1, raw["total_steps"] // 20))
    assert cfg.eval_episodes == raw.get("eval_episodes", 10)
    assert cfg.env == raw["env"]
    check_q_config(cfg, raw)


def as_period(value):
    return float("inf") if value == "inf" else float(value)


class TestValidConfigsLoadToTheirValues:
    @given(raw=train_configs)
    def test_train(self, raw):
        cfg = load_train_config(raw)
        check_run_counts(cfg, raw)
        assert cfg.schedule.levels == tuple(raw["schedule"]["levels"])
        assert cfg.schedule.switch_period == as_period(raw["schedule"].get("switch_period",
                                                                           "inf"))
        assert cfg.seed == raw.get("seed", 0)
        assert cfg.digest == config_digest(raw)

    @given(raw=sweep_configs)
    def test_sweep(self, raw):
        cfg = load_experiment_config(raw)
        check_run_counts(cfg, raw)
        grid = raw["grid"]
        assert cfg.lr0_values == tuple(grid["lr0"]) and cfg.lr1_values == tuple(grid["lr1"])
        assert cfg.switch_periods == tuple(as_period(p) for p in grid["switch_periods"])
        assert cfg.seeds == tuple(raw["seeds"])
        assert cfg.n_agents == 2
        assert cfg.digest == config_digest(raw)

    @given(raw=oracle_configs)
    def test_oracle(self, raw):
        cfg = load_oracle_config(raw)
        prob = raw.get("problem", {})
        assert (cfg.problem.p, cfg.problem.q, cfg.problem.sigma2, cfg.problem.n) == (
            prob.get("p", 1.0), prob.get("q", 1.0), prob.get("sigma2", 0.5), prob.get("n", 3))
        assert cfg.k0 == (0.0,) * cfg.problem.n
        assert cfg.max_sweeps == raw.get("max_sweeps", 200)
        assert cfg.tol == raw.get("tol", 1e-10)
        assert cfg.digest == config_digest(raw)

    @given(raw=brdyn_configs)
    def test_brdyn(self, raw):
        cfg = load_brdyn_config(raw)
        assert cfg.game.action_counts == (2, 3)
        assert cfg.mode is Mode[raw.get("mode", "sibr").upper()]
        assert cfg.initial == tuple(raw.get("initial", [0, 0]))
        assert cfg.tie_break is TieBreak[raw.get("tie_break", "keep_current").upper()]
        assert cfg.max_rounds == raw.get("max_rounds", 1000)
        assert cfg.digest == config_digest(raw)


# (loader, strategy, path of the block the key goes into); "" is the top level.
BLOCKS = [
    ("train", train_configs, ""), ("train", train_configs, "schedule"),
    ("train", train_configs, "q"), ("train", train_configs, "env"),
    ("sweep", sweep_configs, ""), ("sweep", sweep_configs, "grid"),
    ("sweep", sweep_configs, "q"), ("sweep", sweep_configs, "env"),
    ("oracle", oracle_configs, ""), ("oracle", oracle_configs, "problem"),
    ("brdyn", brdyn_configs, ""),
]
KNOWN_KEYS = {"env", "grid", "seeds", "seed", "schedule", "q", "total_steps", "eval_every",
              "eval_episodes", "kind", "payoff", "horizon", "levels", "cluster_sizes",
              "switch_period", "lr0", "lr1", "switch_periods", "epsilon_start",
              "epsilon_end", "epsilon_decay_steps", "discount", "problem", "p", "sigma2",
              "n", "k0", "max_sweeps", "tol", "mode", "initial", "max_rounds", "tie_break"}
unknown_keys = st.text(string.ascii_lowercase + "_", min_size=1, max_size=12).filter(
    lambda key: key not in KNOWN_KEYS)


@pytest.mark.parametrize("command, configs, path", BLOCKS,
                         ids=[f"{c}:{p or 'top'}" for c, _, p in BLOCKS])
@given(data=st.data(), key=unknown_keys)
def test_unknown_key_fails_at_load_and_is_named(command, configs, path, data, key):
    raw = data.draw(configs)
    block = raw.setdefault(path, {}) if path else raw
    block[key] = 1
    with pytest.raises(ValueError) as exc:
        LOADERS[command](raw)
    assert repr(f"{path}.{key}" if path else key) in str(exc.value)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads_through_its_subcommand(path):
    command = path.name.split("_")[0]
    assert command in LOADERS, f"{path.name} does not name the subcommand that reads it"
    raw = json.loads(path.read_text())
    assert LOADERS[command](raw).digest == config_digest(raw)



@pytest.mark.parametrize("payoff", [{}, [{}], [[1.0, {}], [0.0, 1.0]], [[1.0, 0.0], [0.0]]],
                         ids=["object", "object entry", "object in a row", "ragged"])
@pytest.mark.parametrize("command", ["brdyn", "train"])
def test_a_payoff_numpy_cannot_read_fails_by_name(command, payoff):
    # A ValueError naming the key, not float()'s TypeError.
    raw = {"payoff": payoff} if command == "brdyn" else {
        "env": {"kind": "matrix_game", "payoff": payoff}, "total_steps": 100,
        "schedule": {"levels": [0.3, 0.05]}}
    with pytest.raises(ValueError, match="payoff must be a tensor of numbers"):
        LOADERS[command](raw)


# Per subcommand: its config type, a shipped config, the fields it takes when
# it is made and the fields it parses from ``raw``.
TYPES = {
    "oracle": (OracleConfig, "oracle_coupled.json", ("raw",),
               ("problem", "k0", "max_sweeps", "tol", "digest")),
    "brdyn": (BrdynConfig, "brdyn_climbing.json", ("raw",),
              ("game", "mode", "initial", "tie_break", "max_rounds", "digest")),
    "train": (TrainConfig, "train_foraging.json", ("raw",),
              ("seed", "env", "schedule", "q_config", "total_steps", "eval_every",
               "eval_episodes", "digest")),
    "sweep": (ExperimentConfig, "sweep_matrix.json", ("raw",),
              ("env", "n_agents", "lr0_values", "lr1_values", "switch_periods", "seeds",
               "total_steps", "eval_every", "eval_episodes", "q_config", "digest")),
}


def shipped(command: str) -> dict:
    return json.loads((CONFIGS / TYPES[command][1]).read_text())


@pytest.mark.parametrize("command", TYPES)
def test_a_config_is_built_only_from_its_raw_dict(command):
    # A field added later without init=False would bring back an unchecked
    # way to build a config, whose digest names another one.
    config_type, _, init, parsed = TYPES[command]
    assert LOADERS[command] is config_type
    fields = dataclasses.fields(config_type)
    assert tuple(f.name for f in fields if f.init) == init
    assert sorted(f.name for f in fields if not f.init) == sorted(parsed)


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (*_, parsed) in TYPES.items() for name in parsed])
def test_replacing_a_parsed_field_raises(command, name):
    cfg = LOADERS[command](shipped(command))
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(cfg, **{name: getattr(cfg, name)})


@pytest.mark.parametrize("change, message", [
    (lambda raw: raw.update(seeds=[0, 0]), "seeds must be distinct"),
    (lambda raw: raw["grid"].update(switch_periods=[]), "must all be non-empty"),
    (lambda raw: raw.update(total_steps=2.5), "total_steps must be an integer"),
], ids=["duplicate seeds", "no switch periods", "fractional total_steps"])
def test_replacing_raw_parses_it_again(change, message):
    cfg = load_experiment_config(shipped("sweep"))
    raw = copy.deepcopy(cfg.raw)
    change(raw)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cfg, raw=raw)
    raw = dict(cfg.raw, seeds=[3, 4])
    again = dataclasses.replace(cfg, raw=raw)
    assert again.seeds == (3, 4) and again.digest == config_digest(raw) != cfg.digest


def test_replacing_raw_takes_the_new_train_seed():
    # The seed comes only from raw, so a replaced dict cannot keep the old
    # config's seed under the new dict's digest.
    raw = shipped("train")
    cfg = load_train_config(raw)
    again = dataclasses.replace(cfg, raw=dict(raw, seed=5))
    assert cfg.seed == raw.get("seed", 0) != 5
    assert again.seed == load_train_config(dict(raw, seed=5)).seed == 5
    assert again.digest == config_digest(dict(raw, seed=5))
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        dataclasses.replace(cfg, raw=dict(raw, seed=-1))


def change_every_container(value) -> None:
    """Add an entry to every dict and list nested in ``value``."""
    children = value.values() if isinstance(value, dict) else value
    for child in list(children):
        if isinstance(child, (dict, list)):
            change_every_container(child)
    if isinstance(value, dict):
        value["changed"] = 1
    else:
        value.append(0)


@pytest.mark.parametrize("command", TYPES)
def test_the_callers_dict_does_not_reach_a_built_config(command):
    raw = shipped(command)
    cfg = LOADERS[command](raw)
    names = ("raw",) + TYPES[command][3]
    fields = {name: repr(getattr(cfg, name)) for name in names}
    before = copy.deepcopy(raw)
    change_every_container(raw)
    assert raw != before
    assert cfg.raw == before and cfg.digest == config_digest(before)
    assert {name: repr(getattr(cfg, name)) for name in names} == fields
