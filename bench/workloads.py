"""The four closed-loop workloads of the mtlearn benchmark.

Each workload turns the workload seed into a deterministic sequence of op
inputs (plain JSON-able dicts), sets itself up against freshly imported
``mtlearn`` modules, and runs one op at a time. An op returns a digest of
its output, the list of correctness checks it failed, and a few counts.
``mtlearn`` sees only the generated inputs, never the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_GRID = [".....", "..1..", "..b..", "..1..", "....."]
FIXTURE_ENV = {"kind": "foraging", "grid": FIXTURE_GRID, "horizon": 16,
               "cooperative_only": True, "view_radius": None}
FIXTURE_Q = {"discount": 0.95, "epsilon_start": 1.0, "epsilon_end": 0.01,
             "epsilon_decay_steps": 30000}

# configs/sweep_matrix.json, except for the seeds, which each op draws.
SWEEP_MATRIX = {
    "env": {"kind": "matrix_game", "payoff": [[11, -30, 0], [-30, 7, 6], [0, 0, 5]],
            "horizon": 5},
    "grid": {"lr0": [0.5, 0.1, 0.02], "lr1": [0.5, 0.1, 0.02],
             "switch_periods": [10, 100, 1000]},
    "total_steps": 3000,
    "eval_every": 250,
    "eval_episodes": 10,
    "q": {"discount": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.05,
          "epsilon_decay_steps": 2000},
}
SWEEP_SEEDS = 5

# The exact oracle's bundled instance and its closed-form spectral radii.
BUNDLED = {"p": 1.0, "q": 1.0, "sigma2": 0.5, "n": 3}
BUNDLED_RHO_IIBR = 4.0 / 3.0
BUNDLED_RHO_SIBR = 6.0 * math.sqrt(6.0) / 27.0
ORACLE_MAX_SWEEPS = 200
ORACLE_TOL = 1e-10


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_digest(inp: dict) -> str:
    return sha256(json.dumps(inp, sort_keys=True).encode())


@dataclass
class OpResult:
    """What one op produced: an output digest, failed checks and counts."""

    digest: str
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


class Workload:
    """One closed-loop workload: a single client, each op waits for the last."""

    name = ""
    workers = 1

    def __init__(self, smoke: bool, scratch: Path):
        self.smoke = smoke
        self.scratch = scratch

    def inputs(self, seed: int):
        """Endless deterministic stream of op inputs for ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        index = 0
        while True:
            yield self.make_input(rng, index)
            index += 1

    def make_input(self, rng: random.Random, index: int) -> dict:
        raise NotImplementedError

    def setup(self, mt) -> None:
        """Parse configs, build envs and warm up, on freshly imported modules."""
        raise NotImplementedError

    def run(self, inp: dict) -> OpResult:
        raise NotImplementedError

    def train_steps(self, inp: dict) -> int:
        """Training steps one op performs (0 where the op does not train)."""
        return 0


class TrainFixture(Workload):
    """One ``learners.train`` run on the criterion-7 foraging fixture."""

    name = "train_fixture"

    @property
    def total_steps(self) -> int:
        return 5000 if self.smoke else 50000

    def make_input(self, rng, index):
        return {"seed": rng.randrange(2 ** 31)}

    def setup(self, mt):
        self.mt = mt
        q = FIXTURE_Q
        self.q_config = mt.learners.QLearnerConfig(
            epsilon=mt.learners.EpsilonSchedule(q["epsilon_start"], q["epsilon_end"],
                                                q["epsilon_decay_steps"]),
            discount=q["discount"])
        env = mt.envs.env_from_config(FIXTURE_ENV)
        self.schedule = mt.schedule.make_schedule(env.n, (0.3, 0.05), s=500)
        mt.learners.train(self._factory, self.schedule, self.q_config, 2500, 2500, 5, 0)

    def _factory(self):
        return self.mt.envs.env_from_config(FIXTURE_ENV)

    def train_steps(self, inp):
        return self.total_steps

    def run(self, inp):
        steps = self.total_steps
        log = self.mt.learners.train(self._factory, self.schedule, self.q_config,
                                     steps, steps // 20, 5, inp["seed"])
        out = OpResult(sha256(self.mt.learners.runlog_to_csv(log).encode()))
        values = [v for _, v in log.eval_points]
        out.check(len(values) == 20, "train_fixture: expected 20 eval points")
        out.check(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
                  "train_fixture: eval point not finite or outside [0, 1]")
        return out


class SweepMatrix(Workload):
    """``mtlearn sweep`` on the sweep_matrix grid, through ``cli.main``."""

    name = "sweep_matrix"
    workers = 2

    def config(self, seeds: list[int]) -> dict:
        raw = json.loads(json.dumps(SWEEP_MATRIX))
        raw["seeds"] = seeds
        if self.smoke:
            raw["total_steps"] = 300
            raw["eval_every"] = 50
        return raw

    def make_input(self, rng, index):
        return {"seeds": rng.sample(range(1_000_000), SWEEP_SEEDS)}

    def jobs(self) -> int:
        grid = SWEEP_MATRIX["grid"]
        pairs = [(a, b) for a in grid["lr0"] for b in grid["lr1"]]
        equal = sum(1 for a, b in pairs if a == b)
        return (equal + (len(pairs) - equal) * len(grid["switch_periods"])) * SWEEP_SEEDS

    def cell_seeds(self) -> int:
        grid = SWEEP_MATRIX["grid"]
        return (len(grid["lr0"]) * len(grid["lr1"]) * len(grid["switch_periods"])
                * SWEEP_SEEDS)

    def train_steps(self, inp):
        return self.jobs() * self.config(inp["seeds"])["total_steps"]

    def setup(self, mt):
        self.mt = mt
        raw = self.config([0])
        config = mt.harness.load_experiment_config(raw)
        env = mt.envs.env_from_config(config.env)
        schedule = mt.schedule.make_schedule(env.n, (0.5, 0.1), s=10)
        mt.learners.train(lambda: mt.envs.env_from_config(config.env), schedule,
                          config.q_config, 250, 250, 1, 0)
        # Keep the SweepResult that cli.main computes, to check its cells.
        self.captured = []
        run_sweep = mt.harness.run_sweep

        def capture(*args, **kwargs):
            result = run_sweep(*args, **kwargs)
            self.captured.append(result)
            return result

        mt.harness.run_sweep = capture

    def run(self, inp):
        op_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            return self._run(inp, op_dir)
        finally:
            shutil.rmtree(op_dir)

    def _run(self, inp, op_dir: Path) -> OpResult:
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(self.config(inp["seeds"])))
        out_dir = op_dir / "out"
        self.captured.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.mt.cli.main(["sweep", "--config", str(cfg_path), "--out",
                                     str(out_dir), "--workers", str(self.workers)])
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        blob = hashlib.sha256()
        for path in files:
            blob.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        out = OpResult(blob.hexdigest(),
                       counts={"bytes_written": float(sum(p.stat().st_size for p in files))})
        out.check(code == 0, f"sweep_matrix: cli exit code {code}")
        manifests = [p for p in files if p.name.startswith("sweep_") and p.suffix == ".json"]
        out.check(len(manifests) == 1, "sweep_matrix: expected one manifest")
        if len(manifests) == 1:
            listed = json.loads(manifests[0].read_text())["files"]
            names = [n for v in listed.values() for n in ([v] if isinstance(v, str) else v)]
            out.check(all((out_dir / n).is_file() for n in names),
                      "sweep_matrix: manifest lists a missing file")
        out.check(len(self.captured) == 1 and all(c.ok for c in self.captured[0].cells),
                  "sweep_matrix: a cell carries an error")
        return out


def random_layout(rng: random.Random) -> list[str]:
    """Two level-1 agents and one level-2 food on distinct cells of 5x5."""
    cells = [["."] * 5 for _ in range(5)]
    for k, ch in zip(rng.sample(range(25), 3), "11b"):
        cells[k // 5][k % 5] = ch
    return ["".join(row) for row in cells]


class PlanForaging(Workload):
    """One ``envs.optimal_return`` call on a layout of each family.

    An op plans all three families, so every op has the same mix: a median
    over single calls would jump between families with the op count.
    """

    name = "plan_foraging"
    families = ("fixture", "fixture_view1", "random_view1")

    def make_input(self, rng, index):
        layouts = []
        for family in self.families:
            grid = random_layout(rng) if family == "random_view1" else FIXTURE_GRID
            env = dict(FIXTURE_ENV, grid=grid,
                       view_radius=None if family == "fixture" else 1)
            if self.smoke:
                env["horizon"] = 6
            layouts.append({"family": family, "env": env})
        return {"layouts": layouts}

    def setup(self, mt):
        self.mt = mt
        for family in self.families:
            mt.envs.env_from_config(dict(FIXTURE_ENV, view_radius=None if family == "fixture"
                                         else 1))
        mt.envs.optimal_return(mt.envs.env_from_config(dict(FIXTURE_ENV, horizon=3)))

    def run(self, inp):
        values, seconds = [], {}
        for layout in inp["layouts"]:
            start = time.perf_counter()
            values.append(self.mt.envs.optimal_return(
                self.mt.envs.env_from_config(layout["env"])))
            seconds[f"plan_s.{layout['family']}"] = time.perf_counter() - start
        out = OpResult(sha256(repr(values).encode()), counts=seconds)
        for layout, value in zip(inp["layouts"], values):
            out.check(0.0 <= value <= 1.0, "plan_foraging: optimal return outside [0, 1]")
            if layout["family"] != "random_view1":
                out.check(value == 1.0, "plan_foraging: fixture optimal return is not 1.0")
        return out


class OracleExact(Workload):
    """Exact analysis of one estimation problem per size plus team-game dynamics.

    An op covers the bundled instance and one seeded problem at every n in
    2..16, each with its own seeded team game. Op latency would otherwise
    follow the drawn n (about 1.5 ms at n=2 against 23 ms at n=16), so the
    median op latency would move with the seed rather than with the code.
    """

    name = "oracle_exact"

    @property
    def sizes(self) -> range:
        return range(2, 7 if self.smoke else 17)

    def make_input(self, rng, index):
        problems = [dict(BUNDLED)]
        for n in self.sizes:
            p = rng.uniform(0.5, 2.0)
            sigma2 = rng.uniform(0.1, 1.0)
            # q < p (1 + sigma2) keeps gamma symmetric positive definite.
            q = rng.uniform(0.05, 0.95) * p * (1.0 + sigma2)
            problems.append({"p": p, "q": q, "sigma2": sigma2, "n": n})
        return {"cases": [{"problem": problem, "game": self._game(rng)}
                          for problem in problems]}

    @staticmethod
    def _game(rng) -> dict:
        counts = [rng.randint(2, 3) for _ in range(3)]
        payoff = [rng.randint(-10, 10) for _ in range(counts[0] * counts[1] * counts[2])]
        initial = [rng.randrange(c) for c in counts]
        return {"counts": counts, "payoff": payoff, "initial": initial}

    def setup(self, mt):
        self.mt = mt
        self.modes = (mt.estimation.Mode.IIBR, mt.estimation.Mode.SIBR)
        problem = mt.estimation.build_problem(**BUNDLED)
        for mode in self.modes:
            mt.estimation.spectral_radius(mt.estimation.iteration_matrix(problem, mode))

    def run(self, inp):
        out = OpResult("", counts={"sweeps": 0.0})
        reports = [self._analyse(case, out) for case in inp["cases"]]
        out.digest = sha256(json.dumps(reports, sort_keys=True).encode())
        return out

    def _analyse(self, case, out):
        est, games = self.mt.estimation, self.mt.games
        spec = case["problem"]
        problem = est.build_problem(spec["p"], spec["q"], spec["sigma2"], spec["n"])
        n = problem.n
        k_star = est.solve_exact(problem)
        rho = {m.name: est.spectral_radius(est.iteration_matrix(problem, m))
               for m in self.modes}
        traces = {m.name: est.run_br_iteration(problem, m, [0.0] * n,
                                               max_sweeps=ORACLE_MAX_SWEEPS, tol=ORACLE_TOL)
                  for m in self.modes}
        g = case["game"]
        payoff = [[[g["payoff"][(a * g["counts"][1] + b) * g["counts"][2] + c]
                    for c in range(g["counts"][2])]
                   for b in range(g["counts"][1])]
                  for a in range(g["counts"][0])]
        game = games.make_game(payoff)
        dyn = {m.name: games.run_dynamics(game, m, g["initial"], max_rounds=100)
               for m in self.modes}

        out.counts["sweeps"] += float(sum(t.sweeps for t in traces.values()))
        self._check(out, spec, problem, k_star, rho, traces, game, dyn)
        return {
            "k_star": [repr(float(v)) for v in k_star],
            "rho": {k: repr(v) for k, v in rho.items()},
            "br": {k: [t.status, t.sweeps, repr(t.errors[-1])] for k, t in traces.items()},
            "dyn": {k: [d.status, list(d.final_profile), d.final_payoff]
                    for k, d in dyn.items()},
        }

    def _check(self, out, spec, problem, k_star, rho, traces, game, dyn):
        residual = max(abs(float(v)) for v in problem.gamma @ k_star - problem.eta)
        out.check(residual <= 1e-9 * max(1.0, float(max(abs(problem.eta)))),
                  "oracle_exact: solve_exact residual too large")
        # Jacobi matrix of gamma = q 11^T + (d - q) I has radius max(n-1, 1) q / d.
        d = problem.p * (1.0 + problem.sigma2)
        rho_jacobi = max(problem.n - 1, 1) * problem.q / d
        out.check(abs(rho["IIBR"] - rho_jacobi) <= 1e-9,
                  "oracle_exact: IIBR spectral radius off its closed form")
        # Gauss-Seidel converges on a symmetric positive definite gamma.
        out.check(rho["SIBR"] < 1.0, "oracle_exact: SIBR spectral radius not below 1")
        out.check(traces["SIBR"].status != "diverged", "oracle_exact: SIBR diverged")
        # From k0 = 0 the error is along the all-ones eigenvector, so IIBR
        # scales it by rho_jacobi every sweep.
        if rho_jacobi >= 1.1:
            out.check(traces["IIBR"].diverged, "oracle_exact: IIBR did not diverge")
        if rho_jacobi <= 0.85:
            out.check(traces["IIBR"].converged, "oracle_exact: IIBR did not converge")
        if spec == BUNDLED:
            out.check(abs(rho["IIBR"] - BUNDLED_RHO_IIBR) <= 1e-9
                      and abs(rho["SIBR"] - BUNDLED_RHO_SIBR) <= 1e-9,
                      "oracle_exact: bundled spectral radii are not 4/3 and 6*sqrt(6)/27")
            out.check(traces["SIBR"].converged and traces["IIBR"].diverged,
                      "oracle_exact: bundled SIBR must converge and IIBR diverge")
        # Sequential best response strictly improves a shared payoff, so it
        # reaches an agent-by-agent optimum within the 100-round budget.
        games = self.mt.games
        out.check(dyn["SIBR"].status == "converged"
                  and games.is_agent_by_agent_optimal(game, dyn["SIBR"].final_profile),
                  "oracle_exact: SIBR dynamics did not reach an agent-by-agent optimum")
        out.check(dyn["IIBR"].status in ("converged", "cycle"),
                  "oracle_exact: IIBR dynamics neither converged nor cycled")


WORKLOADS = {w.name: w for w in (TrainFixture, SweepMatrix, PlanForaging, OracleExact)}
