"""One benchmark process: import krenergy, set up, then run requests.

Started by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory are those of a cold process.  Modes:

    setup   the cold set-up phase only
    timed   set-up, then a closed loop of requests for --seconds seconds
    job     set-up, then the workload's fixed number of requests; with
            --trace the tracer is installed before set-up

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _percentile_ms(values_ns, q: int) -> float:
    """The q-th percentile in ms, by ``statistics.quantiles`` (inclusive)."""
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


# The host speed probe: a fixed job that runs no krenergy code, so that a
# change to the program cannot move it.  It mixes interpreter-bound loops,
# dict work and small numpy calls, like the workloads.
PROBE_ARRAY = np.arange(4096, dtype=np.int64) % 97
# probes right after set-up, for the set-up time of every worker
SETUP_PROBES = 20
# share of the timed phase spent probing, between requests, so that long
# requests are followed by several probes and short ones by a probe now and then
PROBE_SHARE = 0.02


def probe() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    counts: dict = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + 1
    total += sorted(counts.items())[0][1]
    for i in range(30):
        total += int(np.minimum(PROBE_ARRAY, i).sum())
    return total


def time_probes(samples_ns: list[int], count: int = 1) -> None:
    for _ in range(count):
        start = time.perf_counter_ns()
        probe()
        samples_ns.append(time.perf_counter_ns() - start)


def _window_ops_per_s(values_ns, windows: int = 10) -> float | None:
    """Requests per second of busy time, as the median over ``windows``
    runs of consecutive requests (one request each when there are fewer),
    so that a burst of load from elsewhere on the host moves few windows."""
    if not values_ns:
        return None
    k = min(windows, len(values_ns))
    bounds = [round(i * len(values_ns) / k) for i in range(k + 1)]
    return statistics.median(
        (hi - lo) / (sum(values_ns[lo:hi]) / 1e9) for lo, hi in zip(bounds, bounds[1:])
    )


def _traced_count() -> int:
    """Tracer wrappers currently bound in the krenergy namespaces."""
    import krenergy

    namespaces = [m for n, m in sys.modules.items() if n == "krenergy" or n.startswith("krenergy.")]
    return sum(
        1 for ns in namespaces + [krenergy.PolyMatrix]
        for value in vars(ns).values() if hasattr(value, "span_name")
    )


class Counter:
    """Runs requests one at a time and records their outcome and latency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_ns: list[int] = []
        self.busy_ns = 0
        self.kinds: list[str] = []

    def run(self, workload, request) -> None:
        start = time.perf_counter_ns()
        try:
            passed, attempted, failed = workload.run(request)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            passed, attempted, failed = False, 1, 1
        latency = time.perf_counter_ns() - start
        self.latencies_ns.append(latency)
        self.busy_ns += latency
        self.kinds.append(request[0])
        self.attempted += attempted
        self.failed += failed
        if not passed:
            print(f"validation failed on request {request!r}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "job"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file for the traced job's spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out: dict = {}
    setup = Counter()
    job_start = time.perf_counter_ns()
    for request in workload.setup_requests():
        setup.run(workload, request)
    out["setup_s"] = (time.monotonic_ns() - args.spawn_ns) / 1e9
    out["setup_attempted"] = setup.attempted
    out["setup_failed"] = setup.failed
    if args.mode != "job":
        setup_probes: list[int] = []
        time_probes(setup_probes, SETUP_PROBES)
        out["setup_probe_ms"] = statistics.median(setup_probes) / 1e6

    timed = Counter()
    requests = workload.requests()
    if args.mode == "timed":
        limit_ns = args.seconds * 1e9
        probes: list[int] = []
        probing_ns = 0
        phase_start = time.perf_counter_ns()
        while True:
            request = next(requests)
            now = time.perf_counter_ns()
            while probing_ns < PROBE_SHARE * (now - phase_start):
                time_probes(probes)
                probing_ns += probes[-1]
                now = time.perf_counter_ns()
            done = len(timed.latencies_ns)
            # closed loop: start a request only if it is expected to end in time
            if done and now - phase_start + timed.busy_ns / done > limit_ns:
                break
            timed.run(workload, request)
        if not probes:
            time_probes(probes)
        out["probe_ms"] = statistics.median(probes) / 1e6
        out["probes"] = len(probes)
    elif args.mode == "job":
        for _ in range(workload.job_requests):
            timed.run(workload, next(requests))
    out["job_wall_s"] = (time.perf_counter_ns() - job_start) / 1e9

    lat = timed.latencies_ns
    out.update(
        attempted=timed.attempted,
        failed=timed.failed,
        requests=len(lat),
        ops_per_s=_window_ops_per_s(lat),
        latency_p50_ms=statistics.median(lat) / 1e6 if lat else None,
        latency_p99_ms=_percentile_ms(lat, 99) if len(lat) > 1000 else None,
        kind_p50_ms={
            kind: statistics.median(v for v, k in zip(lat, timed.kinds) if k == kind) / 1e6
            for kind in sorted(set(timed.kinds))
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        traced_bindings=_traced_count(),
    )
    report = getattr(workload, "last_report", None)
    if report is not None:
        out["verify_checks"] = report.total_checks
        out["verify_suite_s"] = {name: res.seconds for name, res in report.suites.items()}

    if tracer is not None:
        tracer.finish()
        tracer.uninstall()
        out["span_count"] = tracer.span_count()
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
