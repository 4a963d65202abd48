import functools
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from mtlearn import estimation, games, harness, learners
from mtlearn.cli import EXIT_CELLS_FAILED, build_parser, main

from conftest import CLIMBING_PAYOFF, FIXTURE_ROWS, MATCH_PAYOFF


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestOracleCommand:
    def test_default_instance_report(self, capsys):
        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "spectral_radius_iibr: 1.333333333333333" in out
        assert "spectral_radius_sibr: 0.5443310539518" in out
        assert "sweep,mode,error" in out
        assert "exact_gains: 0.857142857142857" in out

    def test_writes_file_with_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "oracle.json",
                         {"problem": {"p": 1, "q": 0, "sigma2": 0.5, "n": 2},
                          "max_sweeps": 20, "tol": 1e-9})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        files = list((tmp_path / "out").glob("oracle_*.txt"))
        assert len(files) == 1
        assert "spectral_radius_iibr: 0.0" in files[0].read_text()

    def test_invalid_problem_is_structured_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"problem": {"p": 1, "q": 1, "sigma2": -1, "n": 3}})
        assert main(["oracle", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"]["type"] == "InvalidProblemError"


class TestBrdynCommand:
    def test_cycle_trace_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json",
                         {"payoff": MATCH_PAYOFF, "mode": "iibr", "initial": [0, 1]})
        assert main(["brdyn", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "round,profile,payoff,status"
        assert lines[1] == "0,0|1,0.0,"
        assert lines[-1].endswith("cycle(period=2,start=0)")

    def test_converged_trace(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json",
                         {"payoff": CLIMBING_PAYOFF, "mode": "sibr", "initial": [2, 2]})
        assert main(["brdyn", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert "converged" in lines[-1]

    def test_requires_config(self, capsys):
        assert main(["brdyn"]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "config" in payload["error"]["message"]


def train_config(tmp_path, **overrides):
    payload = {
        "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 5},
        "schedule": {"levels": [0.3, 0.1], "switch_period": 20},
        "q": {"discount": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.1,
              "epsilon_decay_steps": 200},
        "total_steps": 400,
        "eval_every": 100,
        "eval_episodes": 2,
        "seed": 0,
    }
    payload.update(overrides)
    return write_json(tmp_path / "train.json", payload)


class TestTrainCommand:
    def test_stdout_csv(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "step,mean_eval_return"
        assert lines[-1].startswith("final,")

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        import mtlearn
        from mtlearn.config import config_digest
        from mtlearn.learners import runlog_to_csv, train

        cfg = train_config(tmp_path)
        main(["train", "--config", cfg])
        base = capsys.readouterr().out
        main(["train", "--config", cfg, "--seed", "0"])
        same = capsys.readouterr().out
        assert base == same  # flag value matching the config seed changes nothing

        main(["train", "--config", cfg, "--seed", "5"])
        overridden = capsys.readouterr().out
        raw = json.loads((tmp_path / "train.json").read_text())
        sched = mtlearn.make_schedule(2, raw["schedule"]["levels"],
                                      s=raw["schedule"]["switch_period"])
        q = mtlearn.QLearnerConfig(
            epsilon=mtlearn.EpsilonSchedule(1.0, 0.1, 200), discount=0.9)
        expected = train(lambda: mtlearn.env_from_config(raw["env"]), sched, q,
                         400, 100, 2, seed=5, config_digest=config_digest(raw))
        assert overridden == runlog_to_csv(expected)

    @pytest.mark.parametrize("key, bad", [("total_steps", 100.7), ("eval_every", 100.7),
                                          ("eval_episodes", 2.5)])
    def test_fractional_count_fails(self, tmp_path, capsys, key, bad):
        assert main(["train", "--config", train_config(tmp_path, **{key: bad})]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        payload = json.loads(captured.err.strip())
        assert payload["error"] == {"type": "ValueError",
                                    "message": f"{key} must be an integer >= 1, got {bad}"}

    def test_fractional_decay_steps_fails(self, tmp_path, capsys):
        cfg = train_config(tmp_path, q={"epsilon_decay_steps": 100.7})
        assert main(["train", "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["message"] == \
            "epsilon_decay_steps must be an integer >= 1, got 100.7"

    def test_integral_float_count_runs(self, tmp_path, capsys):
        assert main(["train", "--config", train_config(tmp_path, total_steps=400.0)]) == 0
        as_float = capsys.readouterr().out
        assert main(["train", "--config", train_config(tmp_path)]) == 0
        assert as_float == capsys.readouterr().out

    def test_foraging_env_roundtrip(self, tmp_path, capsys):
        cfg = train_config(
            tmp_path,
            env={"kind": "foraging", "grid": list(FIXTURE_ROWS), "horizon": 16,
                 "cooperative_only": True},
            total_steps=200, eval_every=100)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        files = list((tmp_path / "o").glob("runlog_*_seed0.csv"))
        assert len(files) == 1


Q_BLOCK = {"discount": 0.9, "epsilon_start": 0.8, "epsilon_end": 0.1,
           "epsilon_decay_steps": 150}


@pytest.mark.parametrize("missing", [None, "all", *Q_BLOCK])
def test_train_and_sweep_parse_the_same_q_config(tmp_path, capsys, monkeypatch, missing):
    q = {} if missing == "all" else {k: v for k, v in Q_BLOCK.items() if k != missing}
    captured = []

    def capturing_train(make_env, sched, q_config, *args, **kwargs):
        captured.append(q_config)
        return train(make_env, sched, q_config, *args, **kwargs)

    train = learners.train
    monkeypatch.setattr(learners, "train", capturing_train)
    assert main(["train", "--config", train_config(tmp_path, q=q, total_steps=300)]) == 0
    capsys.readouterr()
    sweep = harness.load_experiment_config({
        "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 5},
        "grid": {"lr0": [0.3], "lr1": [0.1], "switch_periods": [20]},
        "seeds": [0], "total_steps": 300, "q": q})
    assert captured == [sweep.q_config]
    if missing == "epsilon_decay_steps":
        assert sweep.q_config.epsilon.decay_steps == 150


def failing_make_schedule():
    """``harness.make_schedule`` that fails the seed-1 job of each
    (0.3, 0.1) cell: a batch sets its jobs up in grid order, seeds (0, 1)
    innermost, so that job's call is the second with the cell's levels and
    period."""
    make_schedule = harness.make_schedule
    calls = []

    def failing(n, levels, s):
        if levels == (0.3, 0.1):
            calls.append(s)
            if calls.count(s) == 2:
                raise RuntimeError("forced failure")
        return make_schedule(n, levels, s=s)

    return failing


class TestSweepAndReportCommands:
    def test_sweep_then_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 5},
            "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10]},
            "seeds": [0, 1],
            "total_steps": 200,
            "eval_every": 100,
            "eval_episodes": 2,
        })
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "best independent" in stdout
        assert "best multi_timescale" in stdout
        svgs = sorted(p.name for p in out.glob("*.svg"))
        assert svgs
        for p in out.glob("*.svg"):
            p.unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.svg")) == svgs

    def test_sweep_no_plots(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3], "lr1": [0.3], "switch_periods": [10]},
            "seeds": [0],
            "total_steps": 100,
            "eval_every": 50,
            "eval_episodes": 1,
        })
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--no-plots"]) == 0
        capsys.readouterr()
        assert not list(out.glob("*.svg"))

    def test_failed_cell_is_named_and_exit_code_distinct(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10]},
            "seeds": [0, 1],
            "total_steps": 100,
            "eval_every": 50,
            "eval_episodes": 1,
        })
        monkeypatch.setattr(harness, "make_schedule", failing_make_schedule())
        out = tmp_path / "results"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert code == EXIT_CELLS_FAILED
        assert code not in (0, 1)
        captured = capsys.readouterr()
        failed = [line for line in captured.err.splitlines() if line.startswith("failed cell")]
        assert failed == ["failed cell lr0=0.3 lr1=0.1 s=10.0 seed=1: "
                          "RuntimeError: forced failure"]
        assert list(out.glob("sweep_*.json"))

    def test_manifest_lists_failed_cells_only_when_some_failed(self, tmp_path, capsys,
                                                               monkeypatch):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10, "inf"]},
            "seeds": [0, 1],
            "total_steps": 100,
            "eval_every": 50,
            "eval_episodes": 1,
        })
        clean, failed = tmp_path / "clean", tmp_path / "failed"
        assert main(["sweep", "--config", cfg, "--out", str(clean), "--no-plots"]) == 0
        monkeypatch.setattr(harness, "make_schedule", failing_make_schedule())
        code = main(["sweep", "--config", cfg, "--out", str(failed), "--no-plots"])
        assert code == EXIT_CELLS_FAILED
        (clean_path,) = clean.glob("sweep_*.json")
        clean_manifest = json.loads(clean_path.read_text())
        manifest = json.loads((failed / clean_path.name).read_text())
        assert "failures" not in clean_manifest
        assert manifest.pop("failures") == [
            {"lr0": 0.3, "lr1": 0.1, "s": "10", "seed": 1,
             "error": "RuntimeError: forced failure"},
            {"lr0": 0.3, "lr1": 0.1, "s": "inf", "seed": 1,
             "error": "RuntimeError: forced failure"},
        ]
        assert manifest == clean_manifest
        # The manifest names the runs that stderr names.
        failed_lines = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("failed cell")]
        assert failed_lines == [f"failed cell lr0=0.3 lr1=0.1 s={s} seed=1: "
                                "RuntimeError: forced failure" for s in ("10.0", "inf")]

    def test_crashed_worker_fails_its_batch_and_keeps_the_outputs(self, tmp_path, capsys,
                                                                    monkeypatch):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10]},
            "seeds": [0, 1],
            "total_steps": 100,
            "eval_every": 50,
            "eval_episodes": 1,
        })
        make_schedule = harness.make_schedule

        def dying_make_schedule(n, levels, s):
            if levels == (0.1, 0.1):  # in the second of two batches
                os._exit(1)
            return make_schedule(n, levels, s=s)

        # Forked workers inherit the patched set-up; the sweep is far below the
        # batch-split break-even, so the split is forced.
        monkeypatch.setattr(harness, "make_schedule", dying_make_schedule)
        monkeypatch.setattr(harness, "SPLIT_RUN_STEPS", 1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            harness.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        out = tmp_path / "results"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--workers", "2"])
        assert code == EXIT_CELLS_FAILED
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("failed cell")]
        assert all(": BrokenProcessPool: " in line for line in failed)
        for seed in (0, 1):
            assert any(line.startswith(f"failed cell lr0=0.1 lr1=0.3 s=10.0 seed={seed}:")
                       for line in failed)
            assert any(line.startswith(f"failed cell lr0=0.1 lr1=0.1 s=10.0 seed={seed}:")
                       for line in failed)
        assert list(out.glob("sweep_*.json")) and list(out.glob("heatmap_*.csv"))

    @pytest.mark.parametrize("bad", ["-0.1", "NaN", "Infinity"])
    def test_bad_rate_fails_before_any_output(self, tmp_path, capsys, bad):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3, "BAD"], "lr1": [0.3], "switch_periods": [10]},
            "seeds": [0], "total_steps": 100, "eval_every": 50, "eval_episodes": 1,
        }).replace('"BAD"', bad))
        out = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ScheduleError"
        assert not out.exists()

    def test_ragged_payoff_fails_before_any_output(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": [[1, 2], [3]], "horizon": 3},
            "grid": {"lr0": [0.3], "lr1": [0.1], "switch_periods": [10]},
            "seeds": [0], "total_steps": 100, "eval_every": 50, "eval_episodes": 1,
        })
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("key, bad", [("total_steps", 100.7), ("total_steps", 0),
                                          ("eval_every", 0), ("eval_episodes", 0)])
    def test_bad_count_fails_before_any_output(self, tmp_path, capsys, key, bad):
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3], "lr1": [0.1], "switch_periods": [10]},
            "seeds": [0], "total_steps": 100, "eval_every": 50, "eval_episodes": 1,
            key: bad,
        })
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == {"type": "ValueError",
                                    "message": f"{key} must be an integer >= 1, got {bad}"}
        assert not out.exists()

    def test_sweep_below_break_even_forks_no_pool(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        cfg = write_json(tmp_path / "sweep.json", {
            "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
            "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10]},
            "seeds": [0, 1], "total_steps": 100, "eval_every": 50, "eval_episodes": 1,
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "2"]) == 0
        capsys.readouterr()

    def test_report_without_out_is_error(self, capsys):
        assert main(["report"]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ValueError"


def sweep_config(tmp_path, **overrides):
    payload = {
        "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 3},
        "grid": {"lr0": [0.3, 0.1], "lr1": [0.3, 0.1], "switch_periods": [10]},
        "seeds": [0, 1], "total_steps": 100, "eval_every": 50, "eval_episodes": 1,
    }
    payload.update(overrides)
    return write_json(tmp_path / "sweep.json", payload)


def assert_load_error(capsys, match):
    captured = capsys.readouterr()
    assert not captured.out
    payload = json.loads(captured.err.strip())
    assert match in payload["error"]["message"], payload


class TestConfigsFailAtLoad:
    @pytest.mark.parametrize("seeds, match", [
        ([-1, 2], "seeds must be an integer >= 0, got -1"),
        ([True, 2], "seeds must be an integer >= 0, got True"),
        ([1.7, 2], "seeds must be an integer >= 0, got 1.7"),
    ])
    def test_bad_sweep_seed_fails_before_any_output(self, tmp_path, capsys, seeds, match):
        out = tmp_path / "results"
        assert main(["sweep", "--config", sweep_config(tmp_path, seeds=seeds),
                     "--out", str(out)]) == 1
        assert_load_error(capsys, match)
        assert not out.exists()

    def test_one_agent_sweep_env_fails_before_any_output(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path, env={"kind": "matrix_game", "payoff": [1.0, 0.0]})
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert_load_error(capsys, "cluster_sizes required")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sedes", [0]), ("out_dir", "elsewhere")])
    def test_unknown_sweep_key_fails_before_any_output(self, tmp_path, capsys, key, value):
        out = tmp_path / "results"
        assert main(["sweep", "--config", sweep_config(tmp_path, **{key: value}),
                     "--out", str(out)]) == 1
        assert_load_error(capsys, f"unknown key '{key}'")
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_train_seed_fails(self, tmp_path, capsys, seed):
        assert main(["train", "--config", train_config(tmp_path, seed=seed)]) == 1
        assert_load_error(capsys, f"seed must be an integer >= 0, got {seed!r}")

    def test_misspelt_schedule_key_fails(self, tmp_path, capsys):
        cfg = train_config(tmp_path, schedule={"levels": [0.3, 0.1], "switch_perod": 5})
        assert main(["train", "--config", cfg]) == 1
        assert_load_error(capsys, "unknown key 'schedule.switch_perod'")

    @pytest.mark.parametrize("key, value", [("n", 3.7), ("p", "1")])
    def test_bad_oracle_problem_fails(self, tmp_path, capsys, key, value):
        cfg = write_json(tmp_path / "oracle.json", {"problem": {key: value}})
        assert main(["oracle", "--config", cfg]) == 1
        assert_load_error(capsys, f"{key} must be")

    def test_overflowing_oracle_problem_fails(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "oracle.json", {
            "problem": {"p": 1e308, "q": 1e308, "sigma2": 0.5, "n": 3}, "max_sweeps": 5})
        assert main(["oracle", "--config", cfg]) == 1
        assert_load_error(capsys, "system overflows")

    @pytest.mark.parametrize("raw, message", [
        ({"k0": [0.0, 0.0]}, "k0 must list 3 finite numbers, one per agent, got [0.0, 0.0]"),
        ({"k0": [0.0, float("nan"), 0.0]}, "k0 must list 3 finite numbers"),
        ({"tol": -1}, "tol must be a finite number > 0, got -1.0"),
        ({"tol": float("inf")}, "tol must be a finite number > 0, got inf"),
    ])
    def test_bad_oracle_sweep_input_fails_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                           raw, message):
        monkeypatch.setattr(estimation, "solve_exact", None)
        assert main(["oracle", "--config", write_json(tmp_path / "oracle.json", raw)]) == 1
        assert_load_error(capsys, message)

    @pytest.mark.parametrize("initial", [[0, 5], [2, 0], [0], [0, 0, 0]])
    def test_bad_brdyn_initial_fails_at_load(self, tmp_path, capsys, monkeypatch, initial):
        monkeypatch.setattr(games, "run_dynamics", None)
        cfg = write_json(tmp_path / "g.json", {"payoff": MATCH_PAYOFF, "initial": initial})
        assert main(["brdyn", "--config", cfg]) == 1
        assert_load_error(capsys, "initial must hold one action id per agent, each below its "
                                  f"action count [2, 2], got {initial}")

    def test_fractional_oracle_max_sweeps_fails(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "oracle.json", {"max_sweeps": 10.5})
        assert main(["oracle", "--config", cfg]) == 1
        assert_load_error(capsys, "max_sweeps must be an integer >= 1, got 10.5")

    def test_fractional_brdyn_max_rounds_fails(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", {"payoff": MATCH_PAYOFF, "max_rounds": 10.5})
        assert main(["brdyn", "--config", cfg]) == 1
        assert_load_error(capsys, "max_rounds must be an integer >= 1, got 10.5")

    def test_unknown_tie_break_lists_the_choices(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", {"payoff": MATCH_PAYOFF, "tie_break": "random"})
        assert main(["brdyn", "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == {
            "type": "ValueError",
            "message": "unknown tie_break 'random'; expected one of lowest_index, keep_current"}


FLAGS = {"oracle": ["--config", "--out"], "brdyn": ["--config", "--out"],
         "train": ["--config", "--seed", "--out"],
         "sweep": ["--config", "--out", "--workers", "--no-plots"],
         "report": ["--config", "--out"]}
FLAG_VALUES = {"--config": ["c.json"], "--out": ["o"], "--seed": ["9"], "--workers": ["7"],
               "--no-plots": []}


@pytest.mark.parametrize("command, flag", [(c, f) for c in FLAGS for f in FLAG_VALUES
                                           if f not in FLAGS[c]])
def test_parser_refuses_a_flag_the_subcommand_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, flag, *FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", FLAGS)
def test_parser_takes_each_flag_the_subcommand_reads(command):
    argv = [command] + [part for f in FLAGS[command] for part in [f, *FLAG_VALUES[f]]]
    args = build_parser().parse_args(argv)
    assert sum(len(FLAGS[c]) for c in FLAGS) == 13
    assert set(vars(args)) == {"command", "func"} | {f[2:].replace("-", "_")
                                                     for f in FLAGS[command]}


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "mtlearn", "oracle"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "spectral_radius_sibr" in proc.stdout

    def test_missing_config_file_nonzero_exit(self):
        proc = subprocess.run([sys.executable, "-m", "mtlearn", "train",
                               "--config", "/nonexistent.json"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip().split("\n")[-1])
        assert payload["error"]["type"] == "FileNotFoundError"
