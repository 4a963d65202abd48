"""Report emission for sweep results: CSV tables, SVG charts, manifest.

Everything is written deterministically (fixed ordering, repr-based
float formatting), so re-running a sweep or re-rendering from the
stored CSVs reproduces byte-identical files. SVG charts are rendered
from the emitted CSVs through a single code path, which is also what
the ``report`` CLI subcommand re-runs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .harness import SweepResult, smooth


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_period(period: float) -> str:
    return "inf" if math.isinf(period) else str(int(period))


# ---------------------------------------------------------------------------
# CSV emission


def write_heatmap_csvs(result: SweepResult, out_dir: Path) -> list[str]:
    """One lr0 x lr1 table of mean final returns per switching period."""
    names = []
    for ip, period in enumerate(result.switch_periods):
        name = f"heatmap_{result.digest}_s{_fmt_period(period)}.csv"
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lr0"] + [_fmt(v) for v in result.lr1_values])
            for i0, lr0 in enumerate(result.lr0_values):
                row = [_fmt(lr0)]
                for i1 in range(len(result.lr1_values)):
                    row.append(_fmt(result.cell(i0, i1, ip).final_mean))
                writer.writerow(row)
        names.append(name)
    return names


def _cell_curve(cell) -> list[tuple[int, float, float]]:
    """Per-eval-step (step, mean, stderr) over seeds of smoothed curves."""
    runs = [r for r in cell.runs if r is not None]
    if not runs:
        return []
    steps = [p[0] for p in runs[0].eval_points]
    smoothed = [smooth([p[1] for p in run.eval_points]) for run in runs]
    out = []
    for idx, step in enumerate(steps):
        vals = [curve[idx] for curve in smoothed]
        mean = sum(vals) / len(vals)
        if len(vals) > 1:
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            stderr = math.sqrt(var) / math.sqrt(len(vals))
        else:
            stderr = 0.0
        out.append((step, mean, stderr))
    return out


def write_curves_csv(result: SweepResult, out_dir: Path) -> str:
    name = f"curves_{result.digest}.csv"
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "mean_return", "stderr", "regime", "lr0", "lr1", "s"])
        for cell in result.cells:
            for step, mean, stderr in _cell_curve(cell):
                writer.writerow([step, _fmt(mean), _fmt(stderr), cell.regime,
                                 _fmt(cell.lr0), _fmt(cell.lr1), _fmt_period(cell.period)])
    return name


def write_gain_csv(result: SweepResult, out_dir: Path) -> str:
    name = f"gain_{result.digest}.csv"
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "regime", "lr0", "lr1", "s", "value", "stderr"])
        best_cells, gain = result.summary()
        for regime, best in best_cells.items():
            writer.writerow(["best", regime, _fmt(best.lr0), _fmt(best.lr1),
                             _fmt_period(best.period), _fmt(best.final_mean),
                             _fmt(best.final_stderr)])
        if gain is not None:
            writer.writerow(["gain", "multi_vs_independent", "", "", "", *map(_fmt, gain)])
    return name


def write_manifest(result: SweepResult, out_dir: Path, files: dict) -> str:
    """The sweep's JSON manifest. A ``failures`` list, one entry per failed
    (cell, seed) run with its error, appears only when some run failed."""
    name = f"sweep_{result.digest}.json"
    payload = {
        "digest": result.digest,
        "lr0_values": list(result.lr0_values),
        "lr1_values": list(result.lr1_values),
        "switch_periods": [_fmt_period(p) for p in result.switch_periods],
        "seeds": list(result.seeds),
        "total_steps": result.total_steps,
        "files": files,
    }
    failures = result.failures()
    if failures:
        payload["failures"] = [{"lr0": cell.lr0, "lr1": cell.lr1, "s": _fmt_period(cell.period),
                                "seed": seed, "error": err}
                               for cell, seed, err in failures]
    with open(out_dir / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


# ---------------------------------------------------------------------------
# SVG rendering (from the emitted CSVs, so `report` can re-render)


_COLORS = {"independent": "#1f77b4", "sequential": "#d62728",
           "multi_timescale": "#2ca02c"}


def _lerp_color(t: float) -> str:
    lo = (68, 1, 84)
    hi = (253, 231, 37)
    r, g, b = (round(a + (b_ - a) * t) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _render_heatmap_svg(rows: list[list[str]], title: str) -> str:
    lr1_labels = rows[0][1:]
    grid = [[float(v) for v in row[1:]] for row in rows[1:]]
    lr0_labels = [row[0] for row in rows[1:]]
    finite = [v for row in grid for v in row if not math.isnan(v)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    span = hi - lo if hi > lo else 1.0
    cw, ch, left, top = 84, 42, 90, 56
    body = [f'<text x="{left}" y="24" font-size="15" font-family="sans-serif">{title}</text>']
    for j, lab in enumerate(lr1_labels):
        body.append(f'<text x="{left + j * cw + cw // 2}" y="{top - 8}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{lab}</text>')
    for i, row in enumerate(grid):
        body.append(f'<text x="{left - 8}" y="{top + i * ch + ch // 2 + 4}" font-size="11" '
                    f'text-anchor="end" font-family="sans-serif">{lr0_labels[i]}</text>')
        for j, v in enumerate(row):
            if math.isnan(v):
                fill = "#bbbbbb"
                label = "n/a"
            else:
                fill = _lerp_color((v - lo) / span)
                label = f"{v:.3f}"
            x, y = left + j * cw, top + i * ch
            body.append(f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                        f'fill="{fill}" stroke="#ffffff"/>')
            body.append(f'<text x="{x + cw // 2}" y="{y + ch // 2 + 4}" font-size="11" '
                        f'text-anchor="middle" font-family="sans-serif" '
                        f'fill="#ffffff">{label}</text>')
    width = left + cw * len(lr1_labels) + 20
    height = top + ch * len(grid) + 20
    return _svg(width, height, body)


def _render_curves_svg(curves: dict[str, list[tuple[int, float, float]]]) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 28, 40
    pw, ph = width - left - right, height - top - bottom
    all_pts = [p for pts in curves.values() for p in pts]
    if not all_pts:
        return _svg(width, height, ['<text x="20" y="40">no curves</text>'])
    xs = [p[0] for p in all_pts]
    ys = [p[1] - p[2] for p in all_pts] + [p[1] + p[2] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return top + (1 - (y - y_lo) / (y_hi - y_lo)) * ph

    body = [f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" '
            f'stroke="#888888"/>']
    for label, pos in ((y_lo, py(y_lo)), (y_hi, py(y_hi))):
        body.append(f'<text x="{left - 6}" y="{pos + 4:.1f}" font-size="11" text-anchor="end" '
                    f'font-family="sans-serif">{label:.3g}</text>')
    for label, pos in ((x_lo, px(x_lo)), (x_hi, px(x_hi))):
        body.append(f'<text x="{pos:.1f}" y="{height - bottom + 16}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{label:g}</text>')
    legend_y = top + 14
    for regime, pts in curves.items():
        color = _COLORS.get(regime, "#444444")
        upper = [(px(s), py(m + e)) for s, m, e in pts]
        lower = [(px(s), py(m - e)) for s, m, e in reversed(pts)]
        band = " ".join(f"{x:.1f},{y:.1f}" for x, y in upper + lower)
        body.append(f'<polygon points="{band}" fill="{color}" opacity="0.18"/>')
        line = " ".join(f"{px(s):.1f},{py(m):.1f}" for s, m, _ in pts)
        body.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                    f'stroke-width="1.6"/>')
        body.append(f'<rect x="{left + 8}" y="{legend_y - 9}" width="10" height="10" '
                    f'fill="{color}"/>')
        body.append(f'<text x="{left + 22}" y="{legend_y}" font-size="12" '
                    f'font-family="sans-serif">{regime}</text>')
        legend_y += 16
    return _svg(width, height, body)


def _render_gain_svg(rows: list[dict]) -> str:
    bests = [r for r in rows if r["kind"] == "best"]
    gains = [r for r in rows if r["kind"] == "gain"]
    width, height = 420, 300
    left, bottom, top = 60, 40, 30
    ph = height - top - bottom
    vals = [float(r["value"]) for r in bests] or [0.0]
    hi = max(max(vals), 0.0)
    lo = min(min(vals), 0.0)
    span = hi - lo if hi > lo else 1.0
    bw = 70

    def py(v: float) -> float:
        return top + (1 - (v - lo) / span) * ph

    body = []
    for idx, row in enumerate(bests):
        x = left + idx * (bw + 30)
        v = float(row["value"])
        err = float(row["stderr"])
        color = _COLORS.get(row["regime"], "#444444")
        y0, y1 = sorted((py(0.0), py(v)))
        body.append(f'<rect x="{x}" y="{y0:.1f}" width="{bw}" height="{max(y1 - y0, 0.5):.1f}" '
                    f'fill="{color}"/>')
        cx = x + bw / 2
        body.append(f'<line x1="{cx}" y1="{py(v - err):.1f}" x2="{cx}" y2="{py(v + err):.1f}" '
                    f'stroke="#222222" stroke-width="1.5"/>')
        body.append(f'<text x="{cx}" y="{height - bottom + 16}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{row["regime"]}</text>')
        body.append(f'<text x="{cx}" y="{py(max(v, 0.0)) - 6:.1f}" font-size="11" '
                    f'text-anchor="middle" font-family="sans-serif">{v:.3f}</text>')
    if gains:
        g = gains[0]
        body.append(f'<text x="{left}" y="{top - 10}" font-size="13" font-family="sans-serif">'
                    f'gain {float(g["value"]):.3f} (stderr {float(g["stderr"]):.3f})</text>')
    return _svg(width, height, body)


# ---------------------------------------------------------------------------
# Orchestration


def render_svgs_from_csvs(out_dir: Path, digest: str, periods: list[str]) -> list[str]:
    """Re-render every SVG chart from the stored CSV files; ``periods`` are
    the switching periods as the manifest and the file names spell them."""
    out = []
    for period in periods:
        csv_name = f"heatmap_{digest}_s{period}.csv"
        with open(out_dir / csv_name, newline="") as fh:
            rows = list(csv.reader(fh))
        svg_name = f"heatmap_{digest}_s{period}.svg"
        with open(out_dir / svg_name, "w") as fh:
            fh.write(_render_heatmap_svg(rows, f"final return, switch period {period}"))
        out.append(svg_name)

    with open(out_dir / f"gain_{digest}.csv", newline="") as fh:
        gain_rows = list(csv.DictReader(fh))
    best_cells = {r["regime"]: (r["lr0"], r["lr1"], r["s"])
                  for r in gain_rows if r["kind"] == "best"}

    curves: dict[str, list[tuple[int, float, float]]] = {}
    with open(out_dir / f"curves_{digest}.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["lr0"], row["lr1"], row["s"])
            if best_cells.get(row["regime"]) == key:
                curves.setdefault(row["regime"], []).append(
                    (int(row["step"]), float(row["mean_return"]), float(row["stderr"])))
    curves_name = f"curves_{digest}.svg"
    with open(out_dir / curves_name, "w") as fh:
        fh.write(_render_curves_svg(curves))
    out.append(curves_name)

    gain_name = f"gain_{digest}.svg"
    with open(out_dir / gain_name, "w") as fh:
        fh.write(_render_gain_svg(gain_rows))
    out.append(gain_name)
    return out


def emit_reports(result: SweepResult, out_dir, plots: bool = True) -> dict:
    """Write heatmap/curve/gain CSVs, the manifest, and (optionally) SVGs.

    Returns the manifest's ``files`` mapping.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    files = {
        "heatmaps": write_heatmap_csvs(result, out_path),
        "curves": write_curves_csv(result, out_path),
        "gain": write_gain_csv(result, out_path),
    }
    if plots:
        files["svgs"] = render_svgs_from_csvs(
            out_path, result.digest, [_fmt_period(p) for p in result.switch_periods])
    files["manifest"] = write_manifest(result, out_path, files)
    return files


def render_reports_from_dir(out_dir, digest: str | None = None) -> list[str]:
    """Re-render SVGs for a stored sweep (the ``report`` subcommand)."""
    out_path = Path(out_dir)
    if digest is None:
        manifests = sorted(out_path.glob("sweep_*.json"))
        if not manifests:
            raise FileNotFoundError(f"no sweep manifest found in {out_path}")
        if len(manifests) > 1:
            names = ", ".join(m.name for m in manifests)
            raise ValueError(f"multiple sweep manifests found ({names}); pass a digest")
        manifest_path = manifests[0]
        digest = manifest_path.stem.split("_", 1)[1]
    else:
        manifest_path = out_path / f"sweep_{digest}.json"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return render_svgs_from_csvs(out_path, digest, manifest["switch_periods"])
