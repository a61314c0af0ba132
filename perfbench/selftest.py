"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the traced-run tests start benchmark workers and take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import krenergy as kr  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "krenergy" or n.startswith("krenergy.")]
    return {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items() if callable(v)} | {
        ("PolyMatrix", k): v for k, v in vars(kr.PolyMatrix).items()
    }


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert during[("krenergy.crystal", "r_matrix")] is not before[("krenergy.crystal", "r_matrix")]
        assert during[("krenergy.verify", "r_matrix")] is during[("krenergy.crystal", "r_matrix")]
        assert during[("PolyMatrix", "det")] is not before[("PolyMatrix", "det")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_generator_is_timed_only_inside_next():
    tracer = Tracer()
    tracer.install()
    try:
        items = 0
        for _ in kr.enumerate_ssyt((2, 1), 3):
            time.sleep(0.005)
            items += 1
    finally:
        tracer.uninstall()
    stats = tracer.summary()["tableaux.enumerate_ssyt"]
    assert stats["calls"] == 1
    assert stats["items"] == items == 8
    assert stats["busy_s"] < 0.005 * items / 2


def test_self_time_is_busy_time_minus_children():
    tracer = Tracer()
    tracer.install()
    try:
        # a size no other test uses, so the staircase enumeration is cold
        t = kr.TensorElement.from_counts(2, [[1, 2], [0, 3], [2, 2], [1, 0]])
        assert kr.intrinsic_energy(t) == kr.energy_staircase(t)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans())
    name = {s[0]: tracer.names[s[2]] for s in spans}
    for sid, _parent, _n, _k, _start, _end, busy, self_ns, _items in spans:
        children = sum(s[6] for s in spans if s[1] == sid)
        assert self_ns == busy - children
    assert {name[s[1]] for s in spans if name[s[0]] == "tableaux.enumerate_ssyt"} == {"crystal.energy_staircase"}
    assert {name[s[1]] for s in spans if name[s[0]] == "crystal.r_matrix"} == {"crystal.intrinsic_energy"}


@pytest.mark.parametrize("workload", ["energy", "identities", "verify"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (run.run_workload(workload, 7, 0, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert [(k, unit) for k, (_v, unit, _s) in first["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    # counts, and the ratios of counts (every unit-1 metric but the overhead)
    counts = [k for k, (_v, unit, _s) in first["metrics"].items()
              if unit == "count" or (unit == "1" and k != "trace.overhead_ratio")]
    assert "tableaux.enumerate_ssyt.yielded" in counts and "verify.identity_suite_per_cell" in counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_ops_per_s_is_a_median_over_windows():
    ms = 1_000_000
    assert worker._window_ops_per_s([]) is None
    # fewer requests than windows: the median per-request rate
    assert worker._window_ops_per_s([2 * ms, 4 * ms, 5 * ms]) == pytest.approx(250)
    # one window slowed tenfold by a burst of load elsewhere leaves the median alone
    steady = [ms] * 1000
    burst = steady[:900] + [10 * ms] * 100
    assert worker._window_ops_per_s(steady) == worker._window_ops_per_s(burst) == pytest.approx(1000)


def test_times_are_scaled_to_nominal_host_speed(monkeypatch):
    # a host half as fast as nominal: the probe takes twice the nominal time
    slow = 2 * run.PROBE_NOMINAL_MS
    worker_out = dict(traced_bindings=0, setup_attempted=1, setup_failed=0, setup_s=4.0,
                      setup_probe_ms=slow, attempted=10, failed=0, requests=10, ops_per_s=100.0,
                      latency_p50_ms=10.0, latency_p99_ms=None, peak_rss_mb=50.0, probe_ms=slow,
                      probes=5)
    monkeypatch.setattr(run, "spawn", lambda *args, **kwargs: dict(worker_out))
    result = run.run_untraced("energy", 1, 1, time.monotonic() + 60)
    assert {k: v for k, (v, _unit, _n) in result["metrics"].items()} == pytest.approx(
        {"setup_s": 2.0, "ops_per_s": 200.0, "latency_p50_ms": 5.0, "peak_rss_mb": 50.0})
    assert result["extra"]["raw_latency_p50_ms"][0] == 10.0
    assert result["extra"]["raw_ops_per_s"][0] == 100.0


def test_end_to_end_numbers_come_from_untraced_workers(monkeypatch):
    calls = []
    spawn = run.spawn

    def recording_spawn(*args, **kwargs):
        out = spawn(*args, **kwargs)
        calls.append((kwargs.get("trace", False), out["traced_bindings"]))
        return out

    monkeypatch.setattr(run, "spawn", recording_spawn)
    result = run.run_workload("energy", 3, 1, trace=0)
    assert result["correct"]
    assert len(calls) == run.SETUP_REPEATS
    assert all(trace is False and bindings == 0 for trace, bindings in calls)
    assert [(k, unit) for k, (_v, unit, _s) in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]


def test_fails_without_the_program_under_test():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "energy",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
