"""Command-line entry points.

Subcommands: ``oracle`` (estimation-problem report), ``brdyn``
(best-response dynamics trace), ``train`` (single seeded run),
``sweep`` (full learning-rate grid), ``report`` (re-render charts from
stored CSVs). On failure a single machine-readable JSON error line is
printed to stderr and the exit code is 1. A sweep whose every job ran
but some cells failed writes its outputs, names each failed
``(lr0, lr1, s, seed)`` with its error on stderr, and exits with
:data:`EXIT_CELLS_FAILED`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import envs, estimation, games, harness, learners, reports, schedule

# Exit code of a sweep that completed with at least one failed cell.
EXIT_CELLS_FAILED = 3


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _print_or_write(text: str, out: str | None, name: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
        print(f"wrote {out_dir / name}")


def _cmd_oracle(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    prob_cfg = cfg.get("problem", {"p": 1.0, "q": 1.0, "sigma2": 0.5, "n": 3})
    problem = estimation.build_problem(
        float(prob_cfg.get("p", 1.0)), float(prob_cfg.get("q", 1.0)),
        float(prob_cfg.get("sigma2", 0.5)), int(prob_cfg.get("n", 3)))
    k0 = np.asarray(cfg.get("k0", [0.0] * problem.n), dtype=float)
    max_sweeps = int(cfg.get("max_sweeps", 200))
    tol = float(cfg.get("tol", 1e-10))

    lines = []
    lines.append(f"problem: p={problem.p} q={problem.q} sigma2={problem.sigma2} n={problem.n}")
    lines.append("gamma:")
    for row in problem.gamma:
        lines.append("  " + " ".join(repr(float(v)) for v in row))
    lines.append("eta: " + " ".join(repr(float(v)) for v in problem.eta))
    k_star = estimation.solve_exact(problem)
    lines.append("exact_gains: " + " ".join(repr(float(v)) for v in k_star))
    for mode in (estimation.Mode.IIBR, estimation.Mode.SIBR):
        rho = estimation.spectral_radius(estimation.iteration_matrix(problem, mode))
        lines.append(f"spectral_radius_{mode.name.lower()}: {rho!r}")
    lines.append("")
    lines.append("sweep,mode,error")
    for mode in (estimation.Mode.IIBR, estimation.Mode.SIBR):
        trace = estimation.run_br_iteration(problem, mode, k0, max_sweeps=max_sweeps, tol=tol)
        for sweep_idx, err in enumerate(trace.errors):
            lines.append(f"{sweep_idx},{mode.name.lower()},{err!r}")
    text = "\n".join(lines) + "\n"
    digest = harness.config_digest(cfg)
    _print_or_write(text, args.out, f"oracle_{digest}.txt")
    return 0


def _parse_mode(name: str) -> estimation.Mode:
    try:
        return estimation.Mode[name.upper()]
    except KeyError:
        raise ValueError(f"unknown mode {name!r}; expected iibr or sibr") from None


def _cmd_brdyn(args) -> int:
    cfg = _load_json(args.config)
    game = games.make_game(cfg["payoff"])
    mode = _parse_mode(cfg.get("mode", "sibr"))
    initial = cfg.get("initial", [0] * game.n)
    tie_break = games.TieBreak[cfg.get("tie_break", "keep_current").upper()]
    trace = games.run_dynamics(game, mode, initial,
                               max_rounds=int(cfg.get("max_rounds", 1000)),
                               tie_break=tie_break)
    if trace.status == "converged":
        status = f"converged(round={trace.round_})"
    elif trace.status == "cycle":
        status = f"cycle(period={trace.period},start={trace.start})"
    else:
        status = "max_rounds"
    lines = ["round,profile,payoff,status"]
    last = len(trace.profiles) - 1
    for r, (prof, pay) in enumerate(zip(trace.profiles, trace.payoffs)):
        tag = status if r == last else ""
        lines.append(f"{r},{'|'.join(str(a) for a in prof)},{pay!r},{tag}")
    text = "\n".join(lines) + "\n"
    _print_or_write(text, args.out, f"brdyn_{harness.config_digest(cfg)}.csv")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_json(args.config)
    env_cfg = cfg["env"]
    env = envs.env_from_config(env_cfg)
    sched = schedule.schedule_from_config(env.n, cfg["schedule"])
    total_steps, eval_every, eval_episodes = harness.parse_run_counts(cfg)
    q_config = learners.parse_q_config(cfg.get("q", {}), total_steps)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    digest = harness.config_digest(cfg)
    log = learners.train(lambda: envs.env_from_config(env_cfg), sched, q_config,
                         total_steps, eval_every, eval_episodes, seed, config_digest=digest)
    _print_or_write(learners.runlog_to_csv(log), args.out,
                    f"runlog_{digest}_seed{seed}.csv")
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    config = harness.load_experiment_config(raw)
    result = harness.run_sweep(config, workers=args.workers)
    out_dir = args.out or raw.get("out_dir", "sweep_out")
    files = reports.emit_reports(result, out_dir, plots=not args.no_plots)
    print(f"sweep {result.digest}: {len(result.cells)} cells, "
          f"{len(result.seeds)} seeds, outputs in {out_dir}")
    for regime in ("independent", "sequential", "multi_timescale"):
        try:
            best = result.best_cell(regime)
        except ValueError:
            continue
        print(f"  best {regime}: lr0={best.lr0} lr1={best.lr1} "
              f"s={best.period} final={best.final_mean:.4f} (+/- {best.final_stderr:.4f})")
    try:
        gain, err = result.performance_gain()
        print(f"  gain multi_timescale vs independent: {gain:.4f} (+/- {err:.4f})")
    except ValueError:
        pass
    print(f"  files: {json.dumps(files, sort_keys=True)}")
    failures = [(cell, seed, err) for cell in result.cells
                for seed, err in zip(result.seeds, cell.errors) if err is not None]
    for cell, seed, err in failures:
        print(f"failed cell lr0={cell.lr0} lr1={cell.lr1} s={cell.period} "
              f"seed={seed}: {err}", file=sys.stderr)
    return EXIT_CELLS_FAILED if failures else 0


def _cmd_report(args) -> int:
    if args.out is None:
        raise ValueError("report requires --out pointing at a sweep output directory")
    digest = None
    if args.config:
        digest = harness.config_digest(_load_json(args.config))
    rendered = reports.render_reports_from_dir(args.out, digest)
    for name in rendered:
        print(f"rendered {Path(args.out) / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlearn",
        description="multi-timescale decentralized cooperative learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="worker pool size")
        p.add_argument("--no-plots", action="store_true", help="skip SVG rendering")
        p.set_defaults(func=func)
        return p

    add("oracle", _cmd_oracle, "exact estimation-problem report and sweep errors")
    add("brdyn", _cmd_brdyn, "best-response dynamics trace for a team game")
    add("train", _cmd_train, "one scheduled training run, logged as CSV")
    add("sweep", _cmd_sweep, "full learning-rate grid sweep with reports")
    add("report", _cmd_report, "re-render charts from stored sweep CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("brdyn", "train") and not args.config:
            raise ValueError(f"{args.command} requires --config")
        if args.command == "sweep" and not args.config:
            raise ValueError("sweep requires --config")
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single structured error line
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
