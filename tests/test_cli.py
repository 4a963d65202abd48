import functools
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from mtlearn import harness, learners
from mtlearn.cli import EXIT_CELLS_FAILED, main

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
        from mtlearn.harness import config_digest
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
        job_schedule = harness._job_schedule

        def failing_job_schedule(n, job):
            if job.levels == (0.3, 0.1) and job.seed == 1:
                raise RuntimeError("forced failure")
            return job_schedule(n, job)

        monkeypatch.setattr(harness, "_job_schedule", failing_job_schedule)
        out = tmp_path / "results"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert code == EXIT_CELLS_FAILED
        assert code not in (0, 1)
        captured = capsys.readouterr()
        failed = [line for line in captured.err.splitlines() if line.startswith("failed cell")]
        assert failed == ["failed cell lr0=0.3 lr1=0.1 s=10.0 seed=1: "
                          "RuntimeError: forced failure"]
        assert list(out.glob("sweep_*.json"))

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
        job_schedule = harness._job_schedule

        def dying_job_schedule(n, job):
            if job.levels == (0.1, 0.1):  # in the second of two batches
                os._exit(1)
            return job_schedule(n, job)

        # Forked workers inherit the patched set-up.
        monkeypatch.setattr(harness, "_job_schedule", dying_job_schedule)
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

    def test_report_without_out_is_error(self, capsys):
        assert main(["report"]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ValueError"


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
