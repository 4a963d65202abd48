"""mtlearn benchmark: closed-loop workloads driven from outside the package.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload train_fixture --seed 1 --seconds 27 --trace 0

``--trace 0`` runs ops back to back (one client, each op waits for the
previous one) for ``--seconds``, times set-ups spread over that time, and
reports the end-to-end metrics. ``--trace 1`` spends part of the time untraced and
the rest with span tracing installed (see ``tracing.py``), and reports the
per-layer metrics plus the tracing overhead. Every op's output is checked;
a failed check or a raised error counts as a failed op.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it name every metric with its
unit and sample count, including ``op_s.p90``, ``train_steps_per_s`` and
``fail_ratio`` where they apply. The full result, with provenance and the
input and output digests of every op, goes to ``--out`` (default
``.bench_out``). Metric names, units, directions and the links between
per-layer and end-to-end metrics are in ``bench/spec.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# Pin BLAS/OpenMP pools before numpy is imported, so nproc bounds the threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, input_digest  # noqa: E402

# Timed set-ups spread over a --trace 0 phase; setup_s is their median.
SETUP_PROBES = 12
LAYERS = ("envs", "learners", "schedule", "harness", "reports", "cli",
          "estimation", "linalg", "games")
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())


def drop_mtlearn() -> dict:
    """Remove mtlearn from ``sys.modules``, returning what was removed."""
    names = [m for m in sys.modules if m == "mtlearn" or m.startswith("mtlearn.")]
    return {name: sys.modules.pop(name) for name in names}


def fresh_import():
    """Import mtlearn from the checkout's ``src``, dropping any earlier import."""
    drop_mtlearn()
    mtlearn = importlib.import_module("mtlearn")
    mods = {name: importlib.import_module(f"mtlearn.{name}") for name in LAYERS}
    return SimpleNamespace(version=mtlearn.__version__, **mods)


def time_setup(workload) -> float:
    """Time one set-up of a new instance of the workload on a fresh import.

    The modules and state the ops use are left as they were.
    """
    kept = drop_mtlearn()
    try:
        start = time.perf_counter()
        type(workload)(workload.smoke, workload.scratch).setup(fresh_import())
        return time.perf_counter() - start
    finally:
        drop_mtlearn()
        sys.modules.update(kept)


def run_phase(workload, seed: int, seconds: float, setup_times=None):
    """Run ops from the start of the seed's input stream for ``seconds`` of op time.

    With ``setup_times``, a timed set-up runs between ops every ``seconds /
    SETUP_PROBES`` and once at the end, so that set-up is sampled over the
    whole run; that time is not op time.
    """
    ops = []
    inputs = workload.inputs(seed)
    probe_s = next_probe = 0.0
    phase_start = time.perf_counter()

    def probe():
        nonlocal probe_s
        start = time.perf_counter()
        setup_times.append(time_setup(workload))
        probe_s += time.perf_counter() - start

    while True:
        op_time = time.perf_counter() - phase_start - probe_s
        if ops and op_time >= seconds:
            break
        if setup_times is not None and op_time >= next_probe:
            probe()
            next_probe = op_time + seconds / SETUP_PROBES
        inp = next(inputs)
        start = time.perf_counter()
        try:
            result = workload.run(inp)
            error = None
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            result, error = None, traceback.format_exc()
        latency = time.perf_counter() - start
        failures = [error] if error else result.failures
        ops.append({"input": input_digest(inp), "latency_s": latency,
                    "output": result.digest if result else None,
                    "failures": failures, "counts": result.counts if result else {},
                    "train_steps": workload.train_steps(inp)})
    if setup_times is not None:
        probe()
    return {"ops": ops, "elapsed_s": time.perf_counter() - phase_start - probe_s}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def end_to_end(phase, setup_times) -> dict:
    ops = phase["ops"]
    lat = sorted(op["latency_s"] for op in ops)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (n / phase["elapsed_s"], "1/s", n),
        "op_s.p50": (statistics.median(lat), "s", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    if n >= 20:
        p90 = statistics.quantiles(lat, n=10)[-1]
        if sum(1 for v in lat if v > p90) >= 10:
            metrics["op_s.p90"] = (p90, "s", n)
    steps = sum(op["train_steps"] for op in ops)
    if steps:
        metrics["train_steps_per_s"] = (steps / phase["elapsed_s"], "1/s", n)
    failed = sum(1 for op in ops if op["failures"])
    metrics["fail_ratio"] = (failed / n, "ratio", n)
    return metrics


def mean_op_latency(phase, count: int) -> float:
    return statistics.fmean(op["latency_s"] for op in phase["ops"][:count])


def per_layer(tr, workload, phases, pool_workers: int) -> dict:
    """Per-layer metrics from the traced phase; see spec.json for the links."""
    us = 1e6
    traced = phases["traced"]
    ops = len(traced["ops"])

    def per_op_count(key):
        return sum(op["counts"].get(key, 0.0) for op in traced["ops"]) / ops

    # Overhead against the untraced phase with the same worker count.
    base = phases.get("untraced_1worker", phases["untraced"])
    common = min(ops, len(base["ops"]))
    overhead = mean_op_latency(traced, common) / mean_op_latency(base, common)
    plans = tr.calls("envs.optimal_return")
    br_runs = tr.calls("estimation.run_br_iteration")
    sweeps = tr.calls("harness.run_sweep")
    jobs = tr.calls("learners.train") / sweeps if sweeps else 0.0
    pool_efficiency = 0.0
    if sweeps and pool_workers > 1:
        # Busy time of one sweep's jobs (the traced share of op time spent in
        # training, applied to the untraced 1-worker op time), over the
        # worker-seconds of the untraced multi-worker op.
        share = tr.total("learners.train") / sum(op["latency_s"] for op in traced["ops"])
        busy = share * mean_op_latency(base, len(base["ops"]))
        wall = mean_op_latency(phases["untraced"], len(phases["untraced"]["ops"]))
        pool_efficiency = busy / (pool_workers * wall)
    values = {
        "envs.step.calls": tr.calls("envs.step") / ops,
        "envs.step.us": tr.mean("envs.step") * us,
        "envs.reset.us": tr.mean("envs.reset") * us,
        "envs.optimal_return.s": tr.mean("envs.optimal_return"),
        "envs.optimal_return.steps": tr.calls("envs.step") / plans if plans else 0.0,
        "learners.select_action.us": tr.mean("learners.select_action") * us,
        "learners.q_update.us": tr.mean("learners.q_update") * us,
        "learners.greedy_action.us": tr.mean("learners.greedy_action") * us,
        "learners.eval_episode.us": tr.mean("learners.eval_episode") * us,
        "learners.train.s": tr.mean("learners.train"),
        "learners.loop_self_us_per_step":
            tr.total("learners.train", 2) / tr.train_steps * us if tr.train_steps else 0.0,
        "schedule.rotation_at.calls": tr.calls("schedule.rotation_at") / ops,
        "schedule.rotation_at.us": tr.mean("schedule.rotation_at") * us,
        "harness.run_sweep.s": tr.mean("harness.run_sweep"),
        "harness.jobs": jobs,
        "harness.dedup_ratio": workload.cell_seeds() / jobs if jobs else 0.0,
        "harness.pool_efficiency": pool_efficiency,
        "harness.load_experiment_config.us": tr.mean("harness.load_experiment_config") * us,
        "reports.emit_reports.s": tr.mean("reports.emit_reports"),
        "reports.bytes_written": per_op_count("bytes_written"),
        "cli.main.self_s": tr.mean("cli.main", 2),
        "estimation.run_br_iteration.us": tr.mean("estimation.run_br_iteration") * us,
        "estimation.sweeps": (per_op_count("sweeps") * ops / br_runs if br_runs else 0.0),
        "estimation.iteration_matrix.us": tr.mean("estimation.iteration_matrix") * us,
        "estimation.solve_exact.us": tr.mean("estimation.solve_exact") * us,
        "linalg.eigvals.us": tr.mean("linalg.eigvals") * us,
        "linalg.eigvals.us_n16": tr.mean("linalg.eigvals.n16") * us,
        "linalg.solve_dense.us": tr.mean("linalg.solve_dense") * us,
        "games.run_dynamics.us": tr.mean("games.run_dynamics") * us,
        "games.best_response.calls": tr.calls("games.best_response") / ops,
        "trace.overhead": overhead,
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = float(tr.errors(layer))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {name: (value, units[name], ops) for name, value in values.items()}


def read_text(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = read_text(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(args, workload, mt) -> dict:
    import numpy

    cpu_model = None
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    quota = read_text(Path("/sys/fs/cgroup/cpu.max"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_max": quota.strip() if quota else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mtlearn": mt.version,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "workers": type(workload).workers,
        "traced": bool(args.trace),
        "size": args.size,
        "seconds": args.seconds,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every op, for the benchmark's own tests")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for the full result and the span dump")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mtlearn" / "__init__.py").is_file():
        print(f"error: no mtlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = Path(args.out)
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.size == "smoke", scratch)

    start = time.perf_counter()
    mt = fresh_import()
    workload.setup(mt)
    setup_times = [time.perf_counter() - start]

    phases = {}
    if not args.trace:
        phases["untraced"] = run_phase(workload, args.seed, args.seconds, setup_times)
        metrics = end_to_end(phases["untraced"], setup_times)
        reported = [m["name"] for m in SPEC["end_to_end"] if m["in_result_line"]]
    else:
        pool_workers = workload.workers
        share = args.seconds / (3 if pool_workers > 1 else 2)
        phases["untraced"] = run_phase(workload, args.seed, share)
        if pool_workers > 1:
            # Traced jobs must run in this process to be seen, so the traced
            # phase and its untraced baseline use one worker.
            workload.workers = 1
            phases["untraced_1worker"] = run_phase(workload, args.seed, share)
        tr = tracing.Tracer()
        tr.install(mt)
        phases["traced"] = run_phase(workload, args.seed, share)
        metrics = per_layer(tr, workload, phases, pool_workers)
        reported = [m["name"] for m in SPEC["per_layer"]]
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.csv"
        with open(spans_path, "w") as fh:
            fh.write("name,start_s,end_s,id,parent\n")
            for name, start, end, sid, parent in tr.spans:
                fh.write(f"{name},{start!r},{end!r},{sid},{parent}\n")

    all_ops = [op for phase in phases.values() for op in phase["ops"]]
    failed = sum(1 for op in all_ops if op["failures"])
    result = {
        "provenance": provenance(args, workload, mt),
        "setup_s": setup_times,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "phases": phases,
        "attempted": len(all_ops),
        "failed": failed,
    }
    result_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:14.6g} {unit:6s} n={samples}")
    for op in all_ops:
        for failure in op["failures"]:
            print(f"FAILED {failure.strip().splitlines()[-1]}")
    line = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
