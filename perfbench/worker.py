"""One run of one workload in a fresh process: set-up, timed passes, checks.

``run.py`` starts this; it also runs by hand from the repository root:

    python3 perfbench/worker.py --workload analyze-onedim --seed 3 --seconds 20

It prints one JSON object. ``--setup-only`` stops after the set-up (import
``vass_asym.cli`` and parse the workload's models) and reports its time.
With ``--trace 1`` the timed passes are followed by one traced pass whose
reports must be byte-identical to the untraced ones, and the per-layer
metrics are added.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

# Well above the slowest operation (about 5 s) and low enough that a hung
# operation still lets the run end within 180 s.
OP_LIMIT_S = 60.0
# No operation starts later than this after the process started.
RUN_DEADLINE_S = 100.0
TIMED_OUT = f"over the {OP_LIMIT_S:g} s limit"


class OpTimeout(BaseException):
    """An operation exceeded OP_LIMIT_S. A BaseException, so that no handler
    in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Execution:
    """One execution of one operation."""

    seconds: float
    started: float = 0.0
    core_s: float = 0.0  # estimate_tails time of a simulation batch
    serialize_s: float = 0.0
    text: str = ""  # the report, or a description of the exit
    exit: int | None = 0  # None: unexpected exception or time limit
    error: str = ""
    trajectories: str = ""  # digest of a simulation batch's runs
    steps: int = 0
    scale: float = 1.0  # machine-speed factor from the calibration loop
    digest: str = field(init=False, default="")

    def __post_init__(self):
        self.digest = check.sha256(self.text)


class Runner:
    """Runs operations against the program's modules, looked up at call time
    so that tracing sees every call."""

    def __init__(self, models: dict):
        self.models = models
        self.captured: list = []
        self.mods = {short: sys.modules[f"vass_asym.{short}"] for short in spans.TRACED_MODULES}

    def capture_simulations(self) -> list:
        """Keep each batch's per-run TrajectoryStats as simulate_many returns
        them (estimate_tails keeps only aggregates)."""
        sim = self.mods["sim"]
        inner = sim.simulate_many

        def capturing(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.captured.append(out)
            return out

        return spans.rebind(inner, capturing)

    def run(self, op: inputs.Op) -> Execution:
        m = self.models[op.model]
        cli, sim, onedim = self.mods["cli"], self.mods["sim"], self.mods["onedim"]
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            if op.kind == "analyze":
                doc = cli.build_analysis(m)
                t1 = time.perf_counter()
                text = json.dumps(doc, indent=2)
                t2 = time.perf_counter()
                return Execution(t2 - t0, t0, serialize_s=t2 - t1, text=text)
            if op.kind == "energy":
                text = json.dumps(check.energy_doc(onedim.energy_safe(m)), indent=2)
                return Execution(time.perf_counter() - t0, t0, text=text)
            self.captured = []
            strat = inputs.strategy(op.strategy, op.n)
            init = min(m.state_names())
            rep = sim.estimate_tails(
                m, [op.n], op.runs, seed=op.sim_seed, strategy=strat, max_steps=op.cap, init_state=init
            )
            t1 = time.perf_counter()
            text = json.dumps(cli.build_sim_report(m, rep, init, op.runs, strat), indent=2)
            t2 = time.perf_counter()
            runs = [st for batch in self.captured for st in batch]
            return Execution(
                t2 - t0,
                t0,
                core_s=t1 - t0,
                serialize_s=t2 - t1,
                text=text,
                trajectories=check.trajectories_digest(runs),
                steps=sum(st.steps for st in runs),
            )
        except OpTimeout:
            return Execution(time.perf_counter() - t0, t0, exit=None, error=TIMED_OUT)
        except Exception as e:  # an operation's failure is a result to check, not a crash
            cls = check.exit_class(e)
            desc = f"{type(e).__name__}: {e}"
            if cls is None:
                return Execution(time.perf_counter() - t0, t0, exit=None, error=f"unexpected {desc}")
            return Execution(time.perf_counter() - t0, t0, text=f"exit {cls}", exit=cls, error=desc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def build_models(models: list[inputs.Model], texts: dict) -> dict:
    model, onedim = sys.modules["vass_asym.model"], sys.modules["vass_asym.onedim"]
    return {
        m.name: onedim.hamiltonian_reduction(m.doc, m.pivot) if m.pivot else model.parse_vass(texts[m.name])
        for m in models
    }


def run_pass(runner: Runner, ops: list[inputs.Op], started: float, sampler=None) -> tuple[list, bool]:
    """Each operation once, calibrated by ``sampler`` when given (see
    calibrate.py); stops at the first time-out or past the deadline."""
    out = []
    for op in ops:
        if time.perf_counter() - started > RUN_DEADLINE_S:
            out.append(Execution(0.0, exit=None, error="not started: run deadline passed"))
            return out, True
        ex = runner.run(op)
        if sampler is not None:
            sampler.sample()
            spent, ex.scale = sampler.window(ex.started, ex.started + ex.seconds)
            ex.seconds -= spent
            ex.core_s = max(0.0, ex.core_s - spent)
        out.append(ex)
        if ex.error == TIMED_OUT:
            return out, True
    return out, False


def timed_passes(runner: Runner, ops: list[inputs.Op], started: float, seconds: float, sampler) -> list:
    """Calibrated passes over ``ops`` until the next one would end after
    ``seconds``; at least one."""
    passes = []
    sampler.start()
    loop_start = time.perf_counter()
    while True:
        executions, aborted = run_pass(runner, ops, started, sampler)
        passes.append(executions)
        now = time.perf_counter()
        if aborted or now + (now - loop_start) / len(passes) > loop_start + seconds:
            break
    sampler.stop()
    return passes


def conditions(workload: str, seed: int, models: dict, ops: list[inputs.Op]) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env
        )
        commit = res.stdout.strip() or commit
    numpy = sys.modules.get("numpy")
    model = sys.modules["vass_asym.model"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not loaded"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "variant": seed % inputs.VARIANTS,
        "sim_seeds": sorted({op.sim_seed for op in ops if op.kind == "simulate"}),
        "op_limit_s": OP_LIMIT_S,
        "model_digests": {name: model.model_digest(m) for name, m in models.items()},
    }


def verify(entries, specs, reference) -> tuple[int, int, list[str]]:
    """Check every execution of every operation against the reference and
    against the operation's first execution. ``entries`` holds
    (operation, executions, whether the last execution was traced)."""
    import jsonschema

    schemas = {
        kind: json.loads((ROOT / "src" / "vass_asym" / "schemas" / f"{name}.schema.json").read_text())
        for kind, name in (("analyze", "analysis_report"), ("simulate", "sim_report"))
    }
    attempted = failed = 0
    messages: list[str] = []
    for op, execs, traced in entries:
        first = execs[0]
        problem = first.error if first.exit is None else expected_mismatch(op, specs[op.model], first, reference)
        if not problem and first.exit == 0 and op.kind in schemas:
            try:
                jsonschema.validate(json.loads(first.text), schemas[op.kind])
            except jsonschema.ValidationError as e:
                problem = f"report fails its schema: {e.message}"
        for k, ex in enumerate(execs):
            attempted += 1
            bad = problem
            if not bad and ex.exit is None:
                bad = ex.error
            elif not bad and (ex.digest, ex.trajectories) != (first.digest, first.trajectories):
                which = "traced execution" if traced and k == len(execs) - 1 else f"execution {k + 1}"
                bad = f"{which} gave another report than the first"
            if bad:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"{op.label}: {bad}")
    return attempted, failed, messages


def expected_mismatch(op: inputs.Op, spec: inputs.Model, ex: Execution, reference: dict) -> str:
    key = check.input_key(spec.doc, spec.pivot)
    if op.kind == "simulate":
        ref = reference["simulate"].get(op.label)
        if ref is None or ref["input"] != key:
            return "no reference outcome for this input"
        if ex.exit != 0:
            return f"exit {ex.exit} ({ex.error}), expected 0"
        if ex.trajectories != ref["trajectories"] or ex.steps != ref["steps"]:
            return f"trajectories differ from the reference ({ex.steps} steps, expected {ref['steps']})"
        return ""
    ref = reference[op.kind].get(key)
    if ref is None:
        return "no reference outcome for this input"
    if ex.exit != ref["exit"]:
        return f"exit {ex.exit} ({ex.error}), expected {ref['exit']}"
    if ex.exit != 0:
        return ""
    doc = json.loads(ex.text)
    if op.kind == "energy":
        return "" if doc["status"] == ref["status"] else f"decision {doc['status']}, expected {ref['status']}"
    if doc["model"]["digest"] != ref["model_digest"]:
        return "report model digest differs from the reference"
    got, want = check.analysis_outcome(doc), ref["outcome"]
    if got != want:
        diff = sorted(set(got) ^ set(want))[:3]
        return f"labels differ from the reference, e.g. {diff}"
    return ""


def per_op_metrics(ops, passes) -> dict:
    """End-to-end metrics from the per-operation medians over the passes, in
    calibrated seconds (see calibrate.py), plus the raw wall time of a pass."""
    def median(i, value):
        return statistics.median(value(p[i]) for p in passes)

    cal = [median(i, lambda ex: ex.seconds * ex.scale) for i in range(len(ops))]
    wall = [median(i, lambda ex: ex.seconds) for i in range(len(ops))]

    def geomean_ms(times):
        return math.exp(statistics.fmean(math.log(t * 1e3) for t in times)) if times else 0.0

    sims = [i for i, op in enumerate(ops) if op.kind == "simulate"]
    core = sum(median(i, lambda ex: ex.core_s * ex.scale) for i in sims)
    return {
        "cal_pass_s": sum(cal),
        "cal_op_geomean_ms": geomean_ms(cal),
        "wall_pass_s": sum(wall),
        "analyze_s": sum(t for op, t in zip(ops, cal) if op.kind == "analyze"),
        "analyze_geomean_ms": geomean_ms([t for op, t in zip(ops, cal) if op.kind == "analyze"]),
        "energy_s": sum(t for op, t in zip(ops, cal) if op.kind == "energy"),
        "sim_msteps_per_s": sum(passes[0][i].steps for i in sims) / core / 1e6 if core else 0.0,
    }


def _rank(q: float, n: int) -> int:
    """Nearest rank (1-based) of percentile q among n samples, in exact
    integer arithmetic on tenths of a percent."""
    return max(1, -(-round(q * 10) * n // 1000))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """The highest of p50, p90, p99 and p99.9 with at least ten samples beyond it."""
    return max(q for q in (50.0, 90.0, 99.0, 99.9) if q == 50.0 or n - _rank(q, n) >= 10)


class LayerProbe:
    """Observers for the counts the per-layer metrics need."""

    def __init__(self, tracer: spans.Tracer, model_digest):
        self.solve_ms: list[float] = []
        self.feasible = 0
        self.rows_max = self.cols_max = self.bits_max = 0
        self.class_keys: set = set()
        self.run_steps: list[int] = []
        self.truncated = 0
        self._digest = model_digest
        tracer.observers.update(
            {
                "ratlp.solve_feasibility": self._solve,
                "ratlp.maximize_strict_count": self._solution,
                "ratlp.scale_to_integers": self._solution,
                "dichotomy.compute_maximal_solutions": self._class_solve,
                "sim.simulate_many": self._simulate,
            }
        )

    def _bits(self, solution):
        if solution is not None:
            for v in solution.assignment.values():
                self.bits_max = max(self.bits_max, v.numerator.bit_length(), v.denominator.bit_length())

    def _solve(self, args, kwargs, result, dt):
        problem = args[0] if args else kwargs["problem"]
        self.solve_ms.append(dt * 1e3)
        self.feasible += result is not None
        self.rows_max = max(self.rows_max, len(problem.constraints))
        self.cols_max = max(self.cols_max, len(problem.variables))
        self._bits(result)

    def _solution(self, args, kwargs, result, dt):
        self._bits(result)

    def _class_solve(self, args, kwargs, result, dt):
        self.class_keys.add((self._digest(args[0]), args[1].mid))

    def _simulate(self, args, kwargs, result, dt):
        self.run_steps += [st.steps for st in result]
        self.truncated += sum(1 for st in result if not st.terminated)


LAYER_GROUPS = {
    "verify": [
        "dichotomy.verify_system_I_witness",
        "dichotomy.verify_ranking",
        "dichotomy.verify_dichotomy",
        "graph.verify_reach_values",
        "onedim.verify_stationary",
    ],
    "detect": ["onedim.detect_increasing", "onedim.detect_bounded_zero", "onedim.detect_unbounded_zero"],
}


def layer_metrics(tracer: spans.Tracer, probe: LayerProbe, ops, traced: list[Execution], parse_s: float) -> dict:
    calls, incl = tracer.calls, tracer.total
    solves = sorted(probe.solve_ms)
    tail_q = tail_percentile(len(solves))
    reports = [ex for op, ex in zip(ops, traced) if op.kind == "analyze" and ex.exit == 0]
    out = {
        "ratlp.solves": calls["ratlp.solve_feasibility"],
        "ratlp.solve_s": incl["ratlp.solve_feasibility"],
        "ratlp.solve_p50_ms": percentile(solves, 50) if solves else 0.0,
        "ratlp.solve_tail_ms": percentile(solves, tail_q) if solves else 0.0,
        "ratlp.solve_tail_pct": tail_q if solves else 0.0,
        "ratlp.feasible_frac": probe.feasible / len(solves) if solves else 0.0,
        "ratlp.strict_max_calls": calls["ratlp.maximize_strict_count"],
        "ratlp.lp_rows_max": probe.rows_max,
        "ratlp.lp_cols_max": probe.cols_max,
        "ratlp.witness_bits_max": probe.bits_max,
        "dichotomy.class_solves": calls["dichotomy.compute_maximal_solutions"],
        "dichotomy.class_solves_distinct": len(probe.class_keys),
        "dichotomy.class_solve_s": incl["dichotomy.compute_maximal_solutions"],
        "dichotomy.classify_calls": calls["dichotomy.classify_dag"],
        "dichotomy.classify_s": incl["dichotomy.classify_dag"],
        "dichotomy.pipelines": calls["dichotomy.run_dag_pipeline"],
        "model.parse_s": parse_s,
        "model.derived_models": calls["model.zero_counters"] + calls["model.augment_step_counter"],
        "model.md_chains": calls["model.apply_md_strategy"],
        "graph.mec_calls": calls["graph.mec_decomposition"],
        "graph.mec_s": incl["graph.mec_decomposition"],
        "graph.types_s": incl["graph.enumerate_types"],
        "graph.reach_calls": calls["graph.max_reach_values"],
        "graph.reach_s": incl["graph.max_reach_values"],
        "graph.linsys_calls": calls["ratlp.solve_linear_system"],
        "graph.linsys_s": incl["ratlp.solve_linear_system"],
        "onedim.inventory_calls": calls["onedim.compute_inventory"],
        "onedim.inventory_s": incl["onedim.compute_inventory"],
        "onedim.detect_calls": sum(calls[n] for n in LAYER_GROUPS["detect"]),
        "onedim.classify_s": incl["onedim.classify_onedim"],
        "cli.attest_checks": sum(json.loads(ex.text)["attestation"]["checks"] for ex in reports),
        "cli.verify_calls": sum(calls[n] for n in LAYER_GROUPS["verify"]),
        "cli.verify_s": tracer.group_time["verify"],
        "cli.serialize_s": sum(ex.serialize_s for ex in traced),
        "cli.report_kib": sum(len(ex.text.encode("utf-8")) for ex in reports) / 1024,
        "sim.steps": sum(probe.run_steps),
        "sim.runs": len(probe.run_steps),
        "sim.truncated_runs": probe.truncated,
        "sim.steps_per_run_p50": statistics.median(probe.run_steps) if probe.run_steps else 0.0,
        "sim.simulate_s": incl["sim.simulate_many"],
        "sim.aggregate_s": incl["sim.estimate_tails"] - incl["sim.simulate_many"],
    }
    for short, t in tracer.module_self_time().items():
        out[f"{short}.self_s"] = t
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    started = time.perf_counter()
    os.environ.pop("VASS_ASYM_THREADS", None)

    specs_list, ops = inputs.workload(ROOT, args.workload, args.seed)
    specs = {m.name: m for m in specs_list}
    texts = {m.name: json.dumps(m.doc) for m in specs_list}
    timed = [op for op in ops if op.timed]
    checked_only = [op for op in ops if not op.timed]

    sampler = calibrate.Sampler("setup")
    sampler.start()
    t0 = time.perf_counter()
    import vass_asym.cli  # noqa: F401  (the set-up a user pays on every command)

    models = build_models(specs_list, texts)
    t1 = time.perf_counter()
    sampler.sample()
    sampler.stop()
    spent, scale = sampler.window(t0, t1)
    wall_setup_s = t1 - t0 - spent
    setup_s = wall_setup_s * scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(models)
    captured = runner.capture_simulations()
    sampler = calibrate.Sampler(inputs.CALIBRATION_LOOP[args.workload])
    passes = timed_passes(runner, timed, started, args.seconds, sampler)
    extra, _ = run_pass(runner, checked_only, started)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans.undo(captured)

    complete = [p for p in passes if len(p) == len(timed)]
    result = {
        "setup_s": setup_s,
        "wall_setup_s": wall_setup_s,
        "peak_rss_mib": peak_rss_mib,
        "passes": len(complete),
        "conditions": conditions(args.workload, args.seed, models, ops),
        "calibration": {
            "loop": sampler.kind,
            "reference_s": sampler.reference_s,
            "median_s": sampler.median_s(),
            "samples": len(sampler.samples),
        },
        "metrics": per_op_metrics(timed, complete) if complete else {},
        "ops": [{"label": op.label, "seconds": [p[i].seconds for p in complete]} for i, op in enumerate(timed)],
    }
    traced: list[Execution] = []
    check_failures: list[str] = []
    if args.trace:
        tracer = spans.Tracer(groups=LAYER_GROUPS)
        probe = LayerProbe(tracer, sys.modules["vass_asym.model"].model_digest)
        tracer.install()
        left = spans.unwrapped_bindings(tracer.originals.values())
        if left:
            check_failures.append(f"tracing left original functions bound: {', '.join(left)}")
        runner.models = build_models(specs_list, texts)
        captured = runner.capture_simulations()
        # Calibrated as the untraced passes are; the spans' times include
        # the sampling loops (about 1.6% of the time).
        sampler.start()
        traced, _ = run_pass(runner, timed, started, sampler)
        sampler.stop()
        spans.undo(captured)
        tracer.uninstall()
        if len(traced) == len(timed) and complete:
            layers = layer_metrics(tracer, probe, timed, traced, tracer.total["model.parse_vass"])
            traced_s = sum(ex.seconds * ex.scale for ex in traced)
            layers["trace.pass_s"] = traced_s
            layers["trace.overhead_frac"] = traced_s / result["metrics"]["cal_pass_s"] - 1
            result["per_layer"] = layers
            result["spans"] = tracer.summary()
        else:
            check_failures.append("the traced pass or every untraced pass was cut short")

    entries = [
        (op, [p[i] for p in passes if i < len(p)] + traced[i : i + 1], bool(traced))
        for i, op in enumerate(timed)
    ] + [(op, [ex], False) for op, ex in zip(checked_only, extra)]
    attempted, failed, messages = verify(entries, specs, check.load_reference())
    result.update(
        attempted=attempted,
        failed=failed,
        failures=check_failures + messages,
        correct=failed == 0 and not check_failures and len(extra) == len(checked_only),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
