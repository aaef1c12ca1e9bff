"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def run_worker(*args: str) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])


def test_tracing_rebinds_every_binding_of_every_public_function():
    import vass_asym.cli  # noqa: F401

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.unwrapped_bindings(tracer.originals.values()) == []
        dichotomy = sys.modules["vass_asym.dichotomy"]
        assert dichotomy.solve_feasibility is not tracer.originals["ratlp.solve_feasibility"]
        assert sys.modules["vass_asym.sim"].mec_decomposition is not tracer.originals["graph.mec_decomposition"]
    finally:
        tracer.uninstall()
    ratlp = sys.modules["vass_asym.ratlp"]
    assert ratlp.solve_feasibility is tracer.originals["ratlp.solve_feasibility"]


def test_traced_reports_are_byte_identical_to_untraced():
    import vass_asym.cli  # noqa: F401

    specs, ops = inputs.workload(ROOT, "analyze-onedim", 0)
    specs += inputs.workload(ROOT, "sim-multistate", 0)[0]
    ops = [op for op in ops if op.model in ("zero_cycle_2state", "gadget:k3")]
    ops.append(inputs.Op("simulate", "pump_transfer_3d", n=8, runs=5, cap=5000, strategy="pump-leave"))
    models = worker.build_models(specs, {m.name: json.dumps(m.doc) for m in specs})
    runner = worker.Runner(models)
    undo = runner.capture_simulations()
    plain = [runner.run(op) for op in ops]
    spans.undo(undo)

    tracer = spans.Tracer(groups=worker.LAYER_GROUPS)
    probe = worker.LayerProbe(tracer, sys.modules["vass_asym.model"].model_digest)
    tracer.install()
    try:
        undo = runner.capture_simulations()
        traced = [runner.run(op) for op in ops]
        spans.undo(undo)
    finally:
        tracer.uninstall()
    assert [ex.text for ex in traced] == [ex.text for ex in plain]
    assert [ex.trajectories for ex in traced] == [ex.trajectories for ex in plain]
    assert tracer.calls["ratlp.solve_feasibility"] > 0
    assert probe.run_steps and sum(probe.run_steps) == plain[-1].steps


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert worker.tail_percentile(5) == 50.0
    assert worker.tail_percentile(100) == 90.0
    assert worker.tail_percentile(999) == 90.0
    assert worker.tail_percentile(1000) == 99.0
    assert worker.tail_percentile(10_000) == 99.9


@pytest.mark.parametrize("corrupt", ["label", "trajectories"])
def test_corrupted_reference_is_reported_as_failure(monkeypatch, capsys, corrupt):
    ref = check.load_reference()
    if corrupt == "label":
        name = "analyze-onedim"
        doc = json.loads((ROOT / "models" / "random_walk_1d.json").read_text())
        entry = ref["analyze"][check.input_key(doc, None)]
        entry["outcome"][0] += "-corrupted"
    else:
        name = "sim-selfloop"
        label = next(op.label for op in inputs.workload(ROOT, name, 0)[1])
        ref["simulate"][label]["trajectories"] = "0" * 64
    monkeypatch.setattr(check, "load_reference", lambda: ref)
    monkeypatch.delenv("VASS_ASYM_THREADS", raising=False)
    assert worker.main(["--workload", name, "--seed", "0", "--seconds", "1"]) == 0
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert res["failed"] > 0 and not res["correct"]
    assert any("differ from the reference" in msg for msg in res["failures"])


def test_injected_slowdown_shows_in_calibrated_time():
    """A fixed pure-Python busy loop added to every LP solve raises cal_pass_s
    by about the share of the pass's wall time that the loop took, so the
    calibration does not absorb a real slowdown of the program. Plain and
    slowed passes alternate, so that a slow period hits both."""
    import vass_asym.cli  # noqa: F401

    ratlp = sys.modules["vass_asym.ratlp"]
    specs, ops = inputs.workload(ROOT, "analyze-multidim", 0)
    timed = [op for op in ops if op.timed]
    runner = worker.Runner(worker.build_models(specs, {m.name: json.dumps(m.doc) for m in specs}))
    signal.signal(signal.SIGALRM, worker._on_alarm)
    solve, injected = ratlp.solve_feasibility, []

    def slowed(*args, **kwargs):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        injected.append(time.perf_counter() - t0)
        return solve(*args, **kwargs)

    def cal_pass_s():
        passes = worker.timed_passes(runner, timed, time.perf_counter(), 0, calibrate.Sampler("fraction"))
        return worker.per_op_metrics(timed, passes)["cal_pass_s"], sum(ex.seconds for ex in passes[0])

    plain, slow, shares = [], [], []
    for _ in range(2):
        plain.append(cal_pass_s()[0])
        injected.clear()
        changed = spans.rebind(solve, slowed)
        try:
            cal, wall = cal_pass_s()
        finally:
            spans.undo(changed)
        slow.append(cal)
        shares.append(sum(injected) / (wall - sum(injected)))
    expected = statistics.median(shares)
    rise = statistics.median(slow) / statistics.median(plain) - 1
    assert expected > 0.5
    assert abs(rise / expected - 1) < 0.25, (rise, expected)


def test_clean_run_passes_every_check_and_gives_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = run_worker("--workload", "analyze-multidim", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert res["correct"], res["failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert {m["name"] for m in bench["end_to_end"]} <= set(res["metrics"]) | {"setup_s", "peak_rss_mib"}
    layers = res["per_layer"]
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["ratlp.solves"] > 0 and layers["onedim.detect_calls"] == 0 and layers["sim.steps"] == 0


def test_benchmark_json_names_the_workloads_and_bounds_setup_most():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    res = subprocess.run(
        cmd + ["--workload", "sim-selfloop", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
