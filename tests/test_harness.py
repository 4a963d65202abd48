import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlearn import learners, lockstep
from mtlearn.harness import (
    DegenerateGapError,
    DegenerateRangeError,
    Job,
    _run_batch,
    aggregate,
    cell_regime,
    gap_recovered,
    load_experiment_config,
    normalize_returns,
    run_sweep,
    smooth,
)
from mtlearn.config import config_digest
from mtlearn.reports import emit_reports, render_reports_from_dir
from mtlearn.schedule import ScheduleError, make_schedule

from conftest import FIXTURE_ROWS, MATCH_PAYOFF


class TestNormalizeReturns:
    def test_affine_example(self):
        assert normalize_returns({"A": 2.0, "B": 4.0, "C": 3.0}) == {
            "A": 0.0, "B": 1.0, "C": 0.5}

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            normalize_returns({"A": 5.0, "B": 5.0})
        with pytest.raises(DegenerateRangeError):
            normalize_returns({"A": 5.0})

    def test_already_normalized_unchanged(self):
        scores = {"A": 0.0, "B": 1.0, "C": 0.25}
        assert normalize_returns(scores) == scores

    def test_idempotent(self):
        once = normalize_returns({"A": -3.0, "B": 7.0, "C": 1.0})
        assert normalize_returns(once) == once


class TestAggregate:
    def test_mean_and_median(self):
        out = aggregate({"alg": {"t1": 0.2, "t2": 0.4, "t3": 0.6}})
        assert out["alg"][0] == pytest.approx(0.4)
        assert out["alg"][1] == pytest.approx(0.4)

    def test_single_task(self):
        out = aggregate({"alg": {"only": 0.7}})
        assert out["alg"] == (0.7, 0.7)

    def test_two_algorithm_table_shape(self):
        out = aggregate({
            "baseline": {"t1": 0.1, "t2": 0.3},
            "scheduled": {"t1": 0.5, "t2": 0.9},
        })
        assert set(out) == {"baseline", "scheduled"}
        for mean, median in out.values():
            assert isinstance(mean, float) and isinstance(median, float)
        assert out["scheduled"] == (pytest.approx(0.7), pytest.approx(0.7))

    def test_mismatched_tasks_rejected(self):
        with pytest.raises(ValueError):
            aggregate({"a": {"t1": 0.1}, "b": {"t2": 0.1}})


class TestGapRecovered:
    @pytest.mark.parametrize("dt,mdt,ctde,expected", [
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 1.0, 100.0),
        (2.0, 3.0, 6.0, 25.0),
        (0.0, 2.0, 1.0, 200.0),   # may exceed 100
        (1.0, 0.0, 2.0, -100.0),  # may be negative
    ])
    def test_formula(self, dt, mdt, ctde, expected):
        assert gap_recovered(dt, mdt, ctde) == pytest.approx(expected)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGapError):
            gap_recovered(1.0, 2.0, 1.0)


class TestSmooth:
    def test_constant_curve_unchanged(self):
        assert smooth([2.0] * 8) == [2.0] * 8

    def test_prefix_average_example(self):
        out = smooth([0.0, 0.0, 0.0, 0.0, 5.0], window=5)
        assert out[-1] == pytest.approx(1.0)
        assert out[0] == 0.0

    def test_window_one_is_identity(self):
        curve = [3.0, -1.0, 2.0]
        assert smooth(curve, window=1) == curve

    def test_errors(self):
        with pytest.raises(ValueError):
            smooth([])
        with pytest.raises(ValueError):
            smooth([1.0], window=0)

    def test_matches_bruteforce_trailing_mean(self):
        rng = np.random.default_rng(1)
        curve = list(rng.normal(size=40))
        out = smooth(curve, window=5)
        for i in range(40):
            lo = max(0, i - 4)
            assert out[i] == pytest.approx(float(np.mean(curve[lo:i + 1])))


def sweep_raw_config(lr0=(0.5, 0.1), lr1=(0.5, 0.1), periods=(5, 50), seeds=(0, 1, 2),
                     steps=300):
    return {
        "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 5},
        "grid": {"lr0": list(lr0), "lr1": list(lr1), "switch_periods": list(periods)},
        "seeds": list(seeds),
        "total_steps": steps,
        "eval_every": 100,
        "eval_episodes": 2,
        "q": {"discount": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.1,
              "epsilon_decay_steps": 150},
    }


class TestExperimentConfig:
    def test_parse_and_digest_stability(self):
        raw = sweep_raw_config()
        cfg = load_experiment_config(raw)
        assert cfg.lr0_values == (0.5, 0.1)
        assert cfg.switch_periods == (5.0, 50.0)
        assert cfg.digest == config_digest(raw)
        assert len(cfg.digest) == 12

    def test_inf_period_accepted(self):
        raw = sweep_raw_config(periods=("inf", 10))
        cfg = load_experiment_config(raw)
        assert math.isinf(cfg.switch_periods[0])

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw.pop("seeds"),
        lambda raw: raw["grid"].update(lr0=[]),
        lambda raw: raw.update(seeds=[1, 1]),
    ])
    def test_invalid_configs(self, mutate):
        raw = sweep_raw_config()
        mutate(raw)
        with pytest.raises(ValueError):
            load_experiment_config(raw)


    def test_fractional_period_rejected_at_load(self):
        with pytest.raises(ScheduleError, match="10.5"):
            load_experiment_config(sweep_raw_config(periods=(5, 10.5)))

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_rate_rejected_at_load(self, bad):
        with pytest.raises(ScheduleError, match="finite and >= 0"):
            load_experiment_config(sweep_raw_config(lr0=(0.3, bad)))
        with pytest.raises(ScheduleError, match="finite and >= 0"):
            load_experiment_config(sweep_raw_config(lr1=(bad,)))

    def test_zero_period_rejected_at_load(self):
        with pytest.raises(ScheduleError, match="positive integer"):
            load_experiment_config(sweep_raw_config(periods=(0,)))

    @pytest.mark.parametrize("bad", [True, None, [10]])
    def test_non_real_period_rejected_at_load(self, bad):
        with pytest.raises(ScheduleError, match="positive integer or inf"):
            load_experiment_config(sweep_raw_config(periods=(5, bad)))

    @given(period=st.one_of(st.integers(-5, 10 ** 6), st.floats(allow_nan=True),
                            st.sampled_from(["inf", " Infinity", "soon", "10"])))
    def test_load_applies_the_schedule_period_rule(self, period):
        raw = sweep_raw_config(periods=(period,))
        try:
            expected = make_schedule(2, (0.5, 0.1), s=period).switch_period
        except ScheduleError:
            with pytest.raises(ScheduleError):
                load_experiment_config(raw)
        else:
            assert load_experiment_config(raw).switch_periods == (expected,)


class TestCellRegime:
    def test_partition(self):
        assert cell_regime(0.1, 0.1) == "independent"
        assert cell_regime(0.0, 0.0) == "independent"
        assert cell_regime(0.1, 0.0) == "sequential"
        assert cell_regime(0.0, 0.1) == "sequential"
        assert cell_regime(0.1, 0.2) == "multi_timescale"


class TestRunSweep:
    def test_run_entry_count_and_grid_order(self):
        cfg = load_experiment_config(sweep_raw_config())
        result = run_sweep(cfg)
        assert len(result.cells) == 2 * 2 * 2
        assert sum(len(c.runs) for c in result.cells) == 24
        # Grid order: lr0-major, then lr1, then period.
        flat = [(c.lr0, c.lr1, c.period) for c in result.cells]
        expected = [(a, b, s) for a in (0.5, 0.1) for b in (0.5, 0.1) for s in (5.0, 50.0)]
        assert flat == expected
        assert all(c.ok for c in result.cells)

    def test_equal_rate_cells_identical_across_periods(self):
        cfg = load_experiment_config(sweep_raw_config())
        result = run_sweep(cfg)
        for i0, lr0 in enumerate(cfg.lr0_values):
            i1 = list(cfg.lr1_values).index(lr0)
            cells = [result.cell(i0, i1, ip) for ip in range(2)]
            assert cells[0].runs == cells[1].runs
            assert cells[0].final_mean == cells[1].final_mean

    def test_regime_bests_and_tie_breaking(self):
        # Constant payoff: every cell ties, so the first grid cell per
        # regime must be reported.
        raw = sweep_raw_config()
        raw["env"]["payoff"] = [[1.0, 1.0], [1.0, 1.0]]
        result = run_sweep(load_experiment_config(raw))
        best_ind = result.best_cell("independent")
        assert (best_ind.lr0, best_ind.lr1, best_ind.period) == (0.5, 0.5, 5.0)
        best_mt = result.best_cell("multi_timescale")
        assert (best_mt.lr0, best_mt.lr1, best_mt.period) == (0.5, 0.1, 5.0)
        gain, err = result.performance_gain()
        assert gain == 0.0 and err == 0.0
        assert result.summary() == ({"independent": best_ind, "multi_timescale": best_mt},
                                    (0.0, 0.0))

    def test_sequential_regime_present_with_zero_rate(self):
        raw = sweep_raw_config(lr0=(0.5, 0.0), lr1=(0.5, 0.0), periods=(5,), seeds=(0,),
                               steps=200)
        result = run_sweep(load_experiment_config(raw))
        regimes = {(c.lr0, c.lr1): c.regime for c in result.cells}
        assert regimes[(0.5, 0.0)] == "sequential"
        assert regimes[(0.0, 0.5)] == "sequential"
        assert regimes[(0.5, 0.5)] == "independent"
        assert result.best_cell("sequential").ok
        best, gain = result.summary()
        assert list(best) == ["independent", "sequential"] and gain is None

    def test_failed_cells_are_recorded_not_raised(self, monkeypatch):
        # With no search budget no table can be expanded, so every run fails.
        cfg = load_experiment_config(sweep_raw_config(periods=(5,), seeds=(0,), steps=10))
        monkeypatch.setattr(learners, "SEARCH_BUDGET", 0)
        result = run_sweep(cfg)
        assert all(not c.ok for c in result.cells)
        assert all(e and "SearchBudgetError" in e for c in result.cells for e in c.errors)
        with pytest.raises(ValueError):
            result.best_cell("independent")
        assert result.summary() == ({}, None)

    def test_env_over_the_search_budget_fails_its_jobs(self, monkeypatch):
        # The fixture expands 552 states x 36 joint actions before training.
        raw = sweep_raw_config(periods=(5,), seeds=(0,), steps=200)
        raw["env"] = {"kind": "foraging", "grid": list(FIXTURE_ROWS), "horizon": 16,
                      "cooperative_only": True}
        cfg = load_experiment_config(raw)
        jobs = [Job(cfg.schedules[0.5, 0.1, 5.0], 0), Job(cfg.schedules[0.1, 0.1, 5.0], 1)]
        monkeypatch.setattr(learners, "SEARCH_BUDGET", 552 * 36 - 1)
        assert _run_batch(cfg, jobs) == [
            (None, "SearchBudgetError: reachable-state search exceeded 19871 "
                   "expansions; the environment has too many states")] * 2
        monkeypatch.setattr(learners, "SEARCH_BUDGET", 552 * 36)
        assert all(log is not None and error is None for log, error in _run_batch(cfg, jobs))

    def test_each_schedule_is_built_once_at_load(self, monkeypatch):
        # The sweep trains on the config's own schedules, one per grid cell,
        # and builds none of its own.
        cfg = load_experiment_config(sweep_raw_config(lr0=(0.5, 0.1, 0.0), lr1=(0.5, 0.1),
                                                      periods=(5, 50, "inf"), steps=100))
        assert list(cfg.schedules) == [(a, b, p) for a in (0.5, 0.1, 0.0) for b in (0.5, 0.1)
                                       for p in (5.0, 50.0, math.inf)]
        received = []
        train_lockstep = lockstep.train_lockstep

        def recording(env_factory, schedules, *args):
            received.extend(schedules)
            return train_lockstep(env_factory, schedules, *args)

        monkeypatch.setattr(lockstep, "train_lockstep", recording)
        run_sweep(cfg)
        built = {id(s) for s in cfg.schedules.values()}
        assert received and all(id(s) in built for s in received)

    def test_stderr_over_seeds(self):
        cfg = load_experiment_config(sweep_raw_config())
        result = run_sweep(cfg)
        cell = result.cells[0]
        finals = [r.final_return for r in cell.runs]
        expected = np.std(finals, ddof=1) / math.sqrt(len(finals))
        assert cell.final_stderr == pytest.approx(float(expected))


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    cfg = load_experiment_config(sweep_raw_config())
    result = run_sweep(cfg)
    out = tmp_path_factory.mktemp("reports")
    files = emit_reports(result, out)
    return cfg, result, out, files


class TestEmitReports:

    def test_heatmap_schema(self, sweep_out):
        cfg, result, out, files = sweep_out
        assert files["heatmaps"] == [f"heatmap_{result.digest}_s5.csv",
                                     f"heatmap_{result.digest}_s50.csv"]
        rows = read_rows(out / files["heatmaps"][0])
        assert rows[0] == ["lr0", "0.5", "0.1"]
        assert len(rows) == 3          # header + |L| rows
        assert all(len(r) == 3 for r in rows)
        got = float(rows[1][2])        # lr0=0.5, lr1=0.1 cell
        assert got == pytest.approx(result.cell(0, 1, 0).final_mean)

    def test_curves_schema(self, sweep_out):
        cfg, result, out, files = sweep_out
        rows = read_rows(out / files["curves"])
        assert rows[0] == ["step", "mean_return", "stderr", "regime", "lr0", "lr1", "s"]
        eval_count = len(result.cells[0].runs[0].eval_points)
        assert len(rows) == 1 + len(result.cells) * eval_count
        assert {r[6] for r in rows[1:]} == {"5", "50"}

    def test_gain_schema(self, sweep_out):
        cfg, result, out, files = sweep_out
        rows = read_rows(out / files["gain"])
        assert rows[0] == ["kind", "regime", "lr0", "lr1", "s", "value", "stderr"]
        kinds = [r[0] for r in rows[1:]]
        assert "best" in kinds and "gain" in kinds
        regimes = [r[1] for r in rows[1:] if r[0] == "best"]
        assert regimes == ["independent", "multi_timescale"]  # no zero rate in grid

    def test_manifest_and_svgs(self, sweep_out):
        cfg, result, out, files = sweep_out
        manifest = json.loads((out / files["manifest"]).read_text())
        assert manifest["digest"] == result.digest
        for name in files["svgs"]:
            body = (out / name).read_text()
            assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")

    def test_no_plots_skips_svgs(self, sweep_out, tmp_path):
        cfg, result, _, _ = sweep_out
        files = emit_reports(result, tmp_path, plots=False)
        assert "svgs" not in files
        assert not list(tmp_path.glob("*.svg"))

    def test_report_rerender_matches_original(self, sweep_out, tmp_path):
        cfg, result, out, files = sweep_out
        originals = {name: (out / name).read_bytes() for name in files["svgs"]}
        for name in files["svgs"]:
            (out / name).unlink()
        rendered = render_reports_from_dir(out)
        assert sorted(rendered) == sorted(files["svgs"])
        for name, body in originals.items():
            assert (out / name).read_bytes() == body


class TestSweepDeterminism:
    def test_byte_identical_across_runs_and_worker_counts(self, tmp_path):
        raw = sweep_raw_config(periods=(5, 50), seeds=(0, 1, 2), steps=200)
        outputs = {}
        for label, workers in (("a", 1), ("b", 1), ("c", 4)):
            cfg = load_experiment_config(raw)
            result = run_sweep(cfg, workers=workers)
            out = tmp_path / label
            emit_reports(result, out)
            outputs[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["a"] == outputs["b"]
        assert outputs["a"] == outputs["c"]
