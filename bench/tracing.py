"""Span tracing installed from outside ``mtlearn``, for the traced run.

Wrappers replace each traced name in the module that looks it up (or on
the class, for env methods). Every call becomes a span (name, start, end,
parent). Per-name aggregates (calls, total time, self time, errors) are
kept exactly as spans close; self time is a span's duration minus the
time its child spans cover. The first ``SPAN_CAP`` spans are also kept
whole, to be written out when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import time

SPAN_CAP = 50_000


class Tracer:
    """Span aggregates and the first spans of one traced phase."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.train_steps = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._ids = itertools.count()

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def mean(self, name: str, index: int = 1) -> float:
        """Mean total (index 1) or self (index 2) seconds per call; 0 if never called."""
        s = self.stats.get(name)
        return s[index] / s[0] if s and s[0] else 0.0

    def total(self, name: str, index: int = 1) -> float:
        s = self.stats.get(name)
        return s[index] if s else 0.0

    def errors(self, layer: str) -> int:
        return sum(s[3] for name, s in self.stats.items() if name.split(".")[0] == layer)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, sid, parent))

        return traced

    def patch(self, owner, attr: str, traced_as) -> None:
        """Replace ``owner.attr`` by a span named ``traced_as``, or by what
        ``traced_as(original)`` builds; a name the code no longer has is skipped."""
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, traced_as(original) if callable(traced_as)
                    else self.wrap(traced_as, original))

    def install(self, mt) -> None:
        """Trace the public entry points of every mtlearn layer."""
        envs, learners, harness = mt.envs, mt.learners, mt.harness
        for cls in (envs.ForagingEnv, envs.MatrixGameEnv):
            self.patch(cls, "step", self._env_step)
            self.patch(cls, "reset", self._env_reset)
        self.patch(envs, "optimal_return", "envs.optimal_return")
        self.patch(learners, "select_action", "learners.select_action")
        self.patch(learners, "greedy_action", "learners.greedy_action")
        self.patch(learners, "q_update", "learners.q_update")
        self.patch(learners, "rotation_at", "schedule.rotation_at")
        self.patch(learners, "train", self._train)
        self.patch(harness, "train", self._train)
        self.patch(harness, "run_sweep", "harness.run_sweep")
        self.patch(harness, "load_experiment_config", "harness.load_experiment_config")
        self.patch(mt.reports, "emit_reports", "reports.emit_reports")
        self.patch(mt.cli, "main", "cli.main")
        for attr in ("run_br_iteration", "iteration_matrix", "solve_exact"):
            self.patch(mt.estimation, attr, f"estimation.{attr}")
        self.patch(mt.linalg, "eigvals", self._eigvals)
        self.patch(mt.linalg, "solve_dense", "linalg.solve_dense")
        self.patch(mt.games, "run_dynamics", "games.run_dynamics")
        self.patch(mt.games, "best_response", "games.best_response")

    # -- custom wrappers ----------------------------------------------------

    def _eigvals(self, fn):
        plain = self.wrap("linalg.eigvals", fn)
        n16 = self.wrap("linalg.eigvals.n16", plain)

        def eigvals(a, *args, **kwargs):
            return (n16 if len(a) == 16 else plain)(a, *args, **kwargs)

        return eigvals

    def _train(self, fn):
        """Trace a training run; env instances from the factory's 2nd and
        later calls are the run's evaluation envs."""
        signature = inspect.signature(fn)
        traced = self.wrap("learners.train", fn)

        def train(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self.train_steps += bound.arguments["total_steps"]
            factory = bound.arguments["env_factory"]
            made = itertools.count()

            def tagging_factory():
                env = factory()
                if next(made) > 0:
                    env.bench_eval_start = None
                return env

            bound.arguments["env_factory"] = tagging_factory
            return traced(*bound.args, **bound.kwargs)

        return train

    def _env_reset(self, fn):
        traced = self.wrap("envs.reset", fn)
        clock = time.perf_counter

        def reset(env, *args, **kwargs):
            if hasattr(env, "bench_eval_start"):
                env.bench_eval_start = clock()
            return traced(env, *args, **kwargs)

        return reset

    def _env_step(self, fn):
        traced = self.wrap("envs.step", fn)
        episode = self.stats.setdefault("learners.eval_episode", [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def step(env, *args, **kwargs):
            result = traced(env, *args, **kwargs)
            start = getattr(env, "bench_eval_start", None)
            if start is not None and result.done:
                dur = clock() - start
                episode[0] += 1
                episode[1] += dur
                episode[2] += dur
                env.bench_eval_start = None
            return result

        return step
