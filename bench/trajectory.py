"""Summarise a directory of benchmark results into one trajectory point.

    python3 bench/trajectory.py .bench_out > bench/trajectory/BENCH_<n>.json

For every workload it gives, per metric, the median and quartiles over the
runs found (end-to-end metrics from ``--trace 0`` runs, per-layer metrics
from ``--trace 1`` runs), together with the per-family plan times of
``plan_foraging`` and the untraced 1-worker op time of ``sweep_matrix``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summary(values: list[float]) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "runs": len(values)}


def main(result_dir: str) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(Path(result_dir).glob("*-trace[01].json"))]
    point: dict = {"provenance": {}, "workloads": {}}
    for run in runs:
        prov = run["provenance"]
        point["provenance"] = {k: prov[k] for k in ("nproc", "cpu_model", "cgroup_cpu_max",
                                                    "python", "numpy", "mtlearn", "git_commit",
                                                    "seconds", "size")}
        entry = point["workloads"].setdefault(prov["workload"], {"seeds": {}, "values": {}})
        entry["seeds"].setdefault("traced" if prov["traced"] else "untraced", []).append(
            prov["seed"])
        values = entry["values"]
        for name, metric in run["metrics"].items():
            values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
        for phase_name, phase in run["phases"].items():
            if phase_name == "untraced_1worker":
                values.setdefault("op_s.mean_1worker", ([], "s"))[0].append(
                    statistics.fmean(op["latency_s"] for op in phase["ops"]))
            if phase_name == "untraced" and not prov["traced"]:
                keys = {k for op in phase["ops"] for k in op["counts"] if k.startswith("plan_s.")}
                for key in sorted(keys):
                    values.setdefault(key + ".p50", ([], "s"))[0].append(
                        statistics.median(op["counts"][key] for op in phase["ops"]))
    for entry in point["workloads"].values():
        entry["metrics"] = {name: dict(summary(vals), unit=unit)
                            for name, (vals, unit) in sorted(entry.pop("values").items())}
    return point


if __name__ == "__main__":
    json.dump(main(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
