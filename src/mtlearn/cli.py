"""Command-line entry points.

Subcommands: ``oracle`` (estimation-problem report), ``brdyn``
(best-response dynamics trace), ``train`` (single seeded run),
``sweep`` (full learning-rate grid), ``report`` (re-render charts from
stored CSVs). Each subcommand takes only the flags it reads, and its
config is parsed by :mod:`mtlearn.config` before any work starts. On
failure a single machine-readable JSON error line is printed to stderr
and the exit code is 1. A sweep whose every job ran but some cells
failed writes its outputs, names each failed ``(lr0, lr1, s, seed)``
with its error on stderr and in the manifest's ``failures`` list, and
exits with :data:`EXIT_CELLS_FAILED`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import config, envs, estimation, games, harness, learners, reports

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
    cfg = config.load_oracle_config(_load_json(args.config) if args.config else {})
    problem = cfg.problem
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
        trace = estimation.run_br_iteration(problem, mode, cfg.k0,
                                            max_sweeps=cfg.max_sweeps, tol=cfg.tol)
        for sweep_idx, err in enumerate(trace.errors):
            lines.append(f"{sweep_idx},{mode.name.lower()},{err!r}")
    text = "\n".join(lines) + "\n"
    _print_or_write(text, args.out, f"oracle_{cfg.digest}.txt")
    return 0


def _cmd_brdyn(args) -> int:
    cfg = config.load_brdyn_config(_load_json(args.config))
    trace = games.run_dynamics(cfg.game, cfg.mode, cfg.initial, max_rounds=cfg.max_rounds,
                               tie_break=cfg.tie_break)
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
    _print_or_write(text, args.out, f"brdyn_{cfg.digest}.csv")
    return 0


def _cmd_train(args) -> int:
    cfg = config.load_train_config(_load_json(args.config))
    seed = cfg.seed if args.seed is None else args.seed  # learners.train checks it first
    log = learners.train(functools.partial(envs.env_from_config, cfg.env), cfg.schedule,
                         cfg.q_config, cfg.total_steps, cfg.eval_every, cfg.eval_episodes, seed)
    _print_or_write(learners.runlog_to_csv(log), args.out, f"runlog_{cfg.digest}_seed{seed}.csv")
    return 0


def _cmd_sweep(args) -> int:
    cfg = config.load_experiment_config(_load_json(args.config))
    result = harness.run_sweep(cfg, workers=args.workers)
    out_dir = args.out or "sweep_out"
    files = reports.emit_reports(result, out_dir, plots=not args.no_plots)
    print(f"sweep {result.digest}: {len(result.cells)} cells, "
          f"{len(result.seeds)} seeds, outputs in {out_dir}")
    best_cells, gain = result.summary()
    for regime, best in best_cells.items():
        print(f"  best {regime}: lr0={best.lr0} lr1={best.lr1} "
              f"s={best.period} final={best.final_mean:.4f} (+/- {best.final_stderr:.4f})")
    if gain is not None:
        print(f"  gain multi_timescale vs independent: {gain[0]:.4f} (+/- {gain[1]:.4f})")
    print(f"  files: {json.dumps(files, sort_keys=True)}")
    failures = result.failures()
    for cell, seed, err in failures:
        print(f"failed cell lr0={cell.lr0} lr1={cell.lr1} s={cell.period} "
              f"seed={seed}: {err}", file=sys.stderr)
    return EXIT_CELLS_FAILED if failures else 0


def _cmd_report(args) -> int:
    if args.out is None:
        raise ValueError("report requires --out pointing at a sweep output directory")
    digest = None
    if args.config:
        digest = config.load_experiment_config(_load_json(args.config)).digest
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
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=func)
        return p

    add("oracle", _cmd_oracle, "exact estimation-problem report and sweep errors")
    add("brdyn", _cmd_brdyn, "best-response dynamics trace for a team game")
    train = add("train", _cmd_train, "one scheduled training run, logged as CSV")
    train.add_argument("--seed", type=int, default=None, help="replaces the config's seed")
    sweep = add("sweep", _cmd_sweep, "full learning-rate grid sweep with reports")
    sweep.add_argument("--workers", type=int, default=1, help="worker pool size")
    sweep.add_argument("--no-plots", action="store_true", help="skip SVG rendering")
    add("report", _cmd_report, "re-render charts from stored sweep CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("brdyn", "train", "sweep") and not args.config:
            raise ValueError(f"{args.command} requires --config")
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single structured error line
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
