"""krenergy benchmark: three workloads through the library's public functions.

    python3 perfbench/run.py --workload energy --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics: set-up in fresh interpreters (median of three), then one closed
loop of requests for ``--seconds`` seconds in a fresh interpreter.  Their
times are scaled to a nominal host speed by a probe timed in the same
interpreters (see ``worker.probe`` and ``perfbench/README.md``).
``--trace 1`` measures the per-layer metrics instead: the workload's fixed
job runs once untraced and once traced, each in a fresh interpreter, and
the traced spans are written under ``perfbench/out``.  ``--workload all``
runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table with sample counts, and the provenance of the
run.  The exit code is 1 if any output failed validation, 2 if the program
under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("energy", "identities", "verify")
SETUP_REPEATS = 3
# every run must end within 180 s; leave room to report
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# End-to-end times are given at this host speed: each is scaled by this
# over the median time of worker.probe measured in the same process.
PROBE_NOMINAL_MS = 3.0

ENERGY_KINDS = ("n5m3", "n4m4", "n3m5", "bigint")
VERIFY_SUITES = (
    "rmatrix", "coenergy", "energy-equivalence", "braid", "lsym-identities", "birational", "section4",
)
# the fixed (3, 5) tensor of cli.energy_oneshot_s.n3m5
CLI_TENSOR = json.dumps({"n": 3, "factors": [[1, 2, 0], [0, 1, 2], [2, 0, 1], [1, 1, 1], [0, 2, 1]]})


class BenchError(RuntimeError):
    """A worker or the CLI failed to produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float, *, seconds: float = 0,
          trace: bool = False, spans: Path | None = None) -> dict:
    """Run one worker in a fresh interpreter and return its result object."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} worker")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded the run budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_oneshot(deadline: float) -> tuple[float, bool]:
    """Wall time of one ``python -m krenergy.cli energy`` process, and
    whether it reported equal energies with exit code 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "krenergy.cli", "energy"], cwd=ROOT, env=env,
                              input=CLI_TENSOR, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("krenergy energy exceeded the run budget") from exc
    wall = time.perf_counter() - start
    try:
        passed = proc.returncode == 0 and json.loads(proc.stdout)["equal"] is True
    except (ValueError, KeyError):
        passed = False
    return wall, passed


def provenance(seed: int, trace: int, seconds: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    None when the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics; no worker here has the tracer installed."""
    workers = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
    timed = spawn(workload, seed, "timed", deadline, seconds=seconds)
    workers.append(timed)
    if any(w["traced_bindings"] for w in workers):
        raise BenchError("a worker of the untraced run had tracer wrappers bound")
    attempted = sum(w["setup_attempted"] for w in workers) + timed["attempted"]
    failed = sum(w["setup_failed"] for w in workers) + timed["failed"]
    n = timed["requests"]
    # a time measured when the probe took probe_ms, at the nominal host speed
    scale = PROBE_NOMINAL_MS / timed["probe_ms"]
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] * PROBE_NOMINAL_MS / w["setup_probe_ms"]
                                      for w in workers), len(workers)),
        "ops_per_s": (timed["ops_per_s"] / scale, n),
        "latency_p50_ms": (timed["latency_p50_ms"] * scale, n),
        "peak_rss_mb": (timed["peak_rss_mb"], 1),
    }
    extra = {
        "fail_ratio": (failed / attempted, attempted),
        "raw_setup_s": (statistics.median(w["setup_s"] for w in workers), len(workers)),
        "raw_ops_per_s": (timed["ops_per_s"], n),
        "raw_latency_p50_ms": (timed["latency_p50_ms"], n),
        "probe_ms": (timed["probe_ms"], timed["probes"]),
    }
    if timed["latency_p99_ms"] is not None:
        extra["latency_p99_ms"] = (timed["latency_p99_ms"] * scale, n)
    if workload == "verify":
        extra["wall_s"] = (timed["latency_p50_ms"] * scale / 1e3, n)
    units = dict(END_TO_END_UNITS, fail_ratio="1", latency_p99_ms="ms", wall_s="s", probe_ms="ms",
                 **{"raw_" + k: END_TO_END_UNITS[k] for k in ("setup_s", "ops_per_s", "latency_p50_ms")})
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, units[k], samples) for k, (v, samples) in metrics.items()},
        "extra": {k: (v, units[k], samples) for k, (v, samples) in extra.items()},
        "notes": [],
    }


def _sum(stats: dict, names, field: str):
    return sum(stats[name][field] for name in names)


def per_layer_metrics(stats: dict, untraced: dict, traced: dict, cli_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced job's span summary, the untraced
    job's request timings and report, and the CLI one-shot time."""
    notes: list[str] = []
    m: dict[str, tuple[float, str]] = {}

    def ratio(name: str, num: float, den: float, unit: str, why: str) -> None:
        if den:
            m[name] = (num / den, unit)
        else:
            m[name] = (0, unit)
            notes.append(f"{name} is 0: {why}")

    def calls_self(prefix: str, *names: str) -> None:
        m[prefix + ".calls"] = (_sum(stats, names, "calls"), "count")
        m[prefix + ".self_s"] = (_sum(stats, names, "self_s"), "s")

    ssyt = stats["tableaux.enumerate_ssyt"]
    m["tableaux.enumerate_ssyt.calls"] = (ssyt["calls"], "count")
    m["tableaux.enumerate_ssyt.yielded"] = (ssyt["items"], "count")
    m["tableaux.enumerate_ssyt.self_s"] = (ssyt["self_s"], "s")
    ratio("tableaux.us_per_tableau", ssyt["busy_s"] * 1e6, ssyt["items"], "us",
          "no tableau was enumerated")
    ratio("tableaux.reenumeration_ratio", ssyt["items"], sum(ssyt["by_key"].values()), "1",
          "no tableau was enumerated")
    calls_self("tableaux.rectify", "tableaux.rectify")

    calls_self("crystal.intrinsic_energy", "crystal.intrinsic_energy")
    calls_self("crystal.r_matrix", "crystal.r_matrix")
    calls_self("crystal.energy_staircase", "crystal.energy_staircase")
    calls_self("crystal.r_matrix_oracle", "crystal.r_matrix_oracle")
    ratio("crystal.oracle_rectify_per_call",
          stats["tableaux.rectify"]["by_parent"].get("crystal.r_matrix_oracle", 0),
          stats["crystal.r_matrix_oracle"]["calls"], "1", "r_matrix_oracle was not called")
    for kind in ENERGY_KINDS:
        value = untraced["kind_p50_ms"].get(kind)
        m[f"crystal.query_ms.{kind}"] = (value or 0, "ms")
        if value is None:
            notes.append(f"crystal.query_ms.{kind} is 0: this workload sends no {kind} energy request")

    families = ("lsym.loop_e", "lsym.loop_h", "lsym.tau", "lsym.sigma")
    schur = ("lsym.loop_schur_tableaux", "lsym.loop_schur_jt")
    calls_self("lsym.det", "lsym.PolyMatrix.det")
    calls_self("lsym.families", *families)
    m["lsym.loop_schur.self_s"] = (_sum(stats, schur, "self_s"), "s")
    calls_self("lsym.trop_eval", "lsym.trop_eval")
    m["lsym.terms_out"] = (_sum(stats, ("lsym.PolyMatrix.det",) + families + schur, "items"), "count")

    calls_self("birational.eval", "birational.eval_loop_e", "birational.eval_loop_h",
               "birational.eval_tau", "birational.eval_sigma")
    calls_self("birational.fraction_det", "birational.fraction_det")
    calls_self("birational.s_action", "birational.s_action")
    m["birational.rational_energy.self_s"] = (
        _sum(stats, ("birational.rational_energy_global", "birational.rational_energy_product"),
             "self_s"), "s")

    suite = stats["identities.identity_suite"]
    calls_self("identities.identity_suite", "identities.identity_suite")
    m["identities.checks"] = (suite["items"], "count")

    suite_s = untraced.get("verify_suite_s", {})
    for name in VERIFY_SUITES:
        m[f"verify.suite_s.{name}"] = (suite_s.get(name, 0), "s")
    if not suite_s:
        notes.append("verify.suite_s.* are 0: this workload does not call run_verify")
    m["verify.checks"] = (untraced.get("verify_checks", 0), "count")
    in_verify = suite["by_parent"].get("verify.run_verify", 0)
    # per run_verify call: the job's set-up makes one call and its requests more
    cells = len(suite["by_key"]) * stats["verify.run_verify"]["calls"]
    ratio("verify.identity_suite_per_cell", in_verify, cells if in_verify else 0, "1",
          "run_verify did not call identity_suite")
    m["verify.run_verify.self_s"] = (stats["verify.run_verify"]["self_s"], "s")

    m["cli.energy_oneshot_s.n3m5"] = (cli_s, "s")
    m["trace.overhead_ratio"] = (traced["job_wall_s"] / untraced["job_wall_s"], "1")
    return m, notes


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics; see :func:`per_layer_metrics`."""
    OUT.mkdir(exist_ok=True)
    untraced = spawn(workload, seed, "job", deadline)
    traced = spawn(workload, seed, "job", deadline, trace=True,
                   spans=OUT / f"{workload}.spans.tsv")
    cli_s, cli_passed = cli_oneshot(deadline)
    if untraced["traced_bindings"]:
        raise BenchError("the untraced job had tracer wrappers bound")
    metrics, notes = per_layer_metrics(traced["trace"], untraced, traced, cli_s)
    jobs = (untraced, traced)
    attempted = sum(j["setup_attempted"] + j["attempted"] for j in jobs) + 1
    failed = sum(j["setup_failed"] + j["failed"] for j in jobs) + (0 if cli_passed else 1)
    notes.append(f"{traced['span_count']} spans written to perfbench/out/{workload}.spans.tsv")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, unit, None) for k, (v, unit) in metrics.items()},
        "extra": {},
        "notes": notes,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        result = run_traced(workload, seed, deadline)
    else:
        result = run_untraced(workload, seed, seconds, deadline)
    result["correct"] = result["failed"] == 0
    result["workload"] = workload
    result["provenance"] = provenance(seed, trace, seconds)
    return result


def print_result(result: dict) -> None:
    print(f"# perfbench workload={result['workload']} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"# {'metric':<40} {'value':>16} {'unit':<6} samples")
    for section in ("metrics", "extra"):
        for name, (value, unit, samples) in result[section].items():
            flag = "" if section == "metrics" else "  (not in BENCHMARK.json)"
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"# {name:<40} {shown:>16} {unit:<6} {samples if samples is not None else '-'}{flag}")
    for note in result["notes"]:
        print(f"# note: {note}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "krenergy" / "__init__.py").is_file():
        print(f"error: the krenergy sources are missing under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print_result(result)
            OUT.mkdir(exist_ok=True)
            record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(result_line(results[0]))
    else:
        for result in results:
            print(f"# {result['workload']}: {result_line(result)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{name}": {"value": value, "unit": unit}
                        for r in results for name, (value, unit, _s) in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
