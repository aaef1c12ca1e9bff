"""Measure a baseline: ten runs per workload and one traced run each.

    python3 perfbench/baseline.py

Runs ``run.py`` the way BENCHMARK.json says, once per workload and seed 1-10,
then once traced per workload, and writes to ``baseline.json`` per workload
and end-to-end metric the median, the quartiles and their spread
(interquartile range over median, as ``statistics.quantiles(values, n=4)``
gives them), plus the traced per-layer metrics and the run conditions.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = res.stdout.strip().splitlines()
    conditions = next(json.loads(x.split(": ", 1)[1]) for x in lines if x.startswith("conditions: "))
    return json.loads(lines[-1]), conditions


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out: dict = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}
    for w in (x["name"] for x in bench["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in SEEDS:
            line, conditions = run(w, seed, seconds, 0)
            failed += line["failed"] + (not line["correct"])
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": vals}
        traced, _ = run(w, SEEDS[0], seconds, 1)
        failed += traced["failed"] + (not traced["correct"])
        out["workloads"][w] = {
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "failed_runs_or_operations": failed,
        }
        out["conditions"] = {k: conditions[k] for k in ("commit", "python", "numpy", "nproc", "op_limit_s")}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
