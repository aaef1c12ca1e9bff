"""The repository benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload analyze-multidim --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are taken from this
file). With ``--trace 0`` it times the set-up in several fresh processes, then
runs the workload in one more fresh, single-threaded process and prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced pass instead. Every operation's output is checked against
``reference.json``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Without the program's
sources next to the benchmark it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from inputs import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes besides the workload process.
SETUP_SAMPLES = 4
RUN_LIMIT_S = 175.0

# Printed too, but not in BENCHMARK.json: raw wall times, and metrics of one
# operation kind, shown for the workloads that have such operations.
# cal_pass_s and cal_op_geomean_ms cover them on every workload.
PRINTED = {
    "wall_pass_s": ("s", None),
    "wall_setup_s": ("s", None),
    "analyze_s": ("s", "analyze"),
    "analyze_geomean_ms": ("ms", "analyze"),
    "energy_s": ("s", "energy"),
    "sim_msteps_per_s": ("Msteps/s", "simulate"),
}


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VASS_ASYM_THREADS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON output."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{' '.join(args)}: no result within {RUN_LIMIT_S:g} s") from None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(args)}: exit {res.returncode}\n{res.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [rel for rel in ("src/vass_asym/cli.py", "models/pump_transfer_3d.json") if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: the program is not next to the benchmark (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
        res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    cond = res["conditions"]
    print(
        f"workload {args.workload}, seed {args.seed} (input variant {cond['variant']}), "
        f"{res['passes']} timed passes"
    )
    print("conditions: " + json.dumps(cond, sort_keys=True))
    if args.trace:
        print("spans by self time (calls, inclusive s, self s, calling spans):")
        for name, sp in sorted(res.get("spans", {}).items(), key=lambda kv: -kv[1]["self_s"]):
            callers = ", ".join(f"{caller or '(benchmark)'} x{n}" for caller, n in sorted(sp["parents"].items()))
            print(f"  {name}: {sp['calls']} calls, {sp['total_s']:.4g} s, self {sp['self_s']:.4g} s; from {callers}")
        values = {name: res.get("per_layer", {}).get(name, 0) for name in units}
    else:
        setups.append(res)
        m = dict(res["metrics"], wall_setup_s=statistics.median(x["wall_setup_s"] for x in setups))
        kinds = {o["label"].split(":", 1)[0] for o in res["ops"]}
        for name, (unit, kind) in PRINTED.items():
            shown = f"{m.get(name, 0.0):.6g} {unit}" if kind is None or kind in kinds else "n/a (no such operations)"
            print(f"{name}: {shown}")
        m.update(
            setup_s=statistics.median(x["setup_s"] for x in setups),
            peak_rss_mib=res["peak_rss_mib"],
        )
        values = {name: m.get(name, 0.0) for name in units}
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"failed_frac: {res['failed'] / max(1, res['attempted']):.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
