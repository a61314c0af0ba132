"""The benchmark's workloads: seeded inputs, one request, and its validation.

Every request goes through krenergy's public functions, looked up on the
package at call time so that the traced run's wrappers are used.  A request
returns ``(passed, attempted, failed)``: ``attempted`` and ``failed`` count
requests for ``energy`` and ``identities`` and checks for ``verify``.  A
request that raises counts as failed; nothing is retried or dropped.
"""

from __future__ import annotations

import json
import random

import krenergy as kr

MAX_CAPACITY = 5
BIGINT_SHARE = 0.01
BIGINT_COUNT = 1 << 40

# name -> (n, m); "bigint" is (4, 4) with one count above 2**40, which
# takes the big-integer fallback of energy_staircase.
ENERGY_KINDS = {"n5m3": (5, 3), "n4m4": (4, 4), "n3m5": (3, 5), "bigint": (4, 4)}

IDENTITY_N, IDENTITY_M = 4, 5
IDENTITY_FAMILIES = frozenset({
    "eh_alternating_sum",
    "tau_via_products",
    "tau_recursion",
    "tau_recursion_residual",
    "jacobi_trudi",
    "staircase_factorization",
    "tau_vector_annihilation",
    "minor_tau_factorization",
})

# About 1.7 s a call on a 2-core VM, so that a timed phase holds a dozen
# calls and reports their median.  Capacity cap 2 keeps the exhaustive
# crystal suites small enough that the symbolic lsym cells of
# lsym-identities and section4 are a fair share of the call.
VERIFY_SETTINGS = dict(n_range=(2, 3), m_range=(1, 3), capacity_cap=2, trials=5, mode="exhaustive")


def _energy_doc(kind: str, rng: random.Random) -> str:
    n, m = ENERGY_KINDS[kind]
    factors = []
    for _ in range(m):
        counts = [0] * n
        for _ in range(rng.randint(0, MAX_CAPACITY)):
            counts[rng.randrange(n)] += 1
        factors.append(counts)
    if kind == "bigint":
        factors[rng.randrange(m)][rng.randrange(n)] = BIGINT_COUNT + rng.randint(1, 1 << 20)
    return json.dumps({"n": n, "factors": factors})


class Workload:
    """Seeded request streams for one workload.

    ``setup_requests`` are the cold requests of the set-up phase, one per
    size or kind; ``requests`` yields the timed phase's requests.  Both are
    functions of the seed alone.
    """

    name = ""
    # requests after set-up in the traced run's fixed job
    job_requests = 0

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{stream}:{self.seed}")

    def setup_requests(self) -> list:
        return []

    def requests(self):
        raise NotImplementedError

    def run(self, request) -> tuple[bool, int, int]:
        raise NotImplementedError


class Energy(Workload):
    """One tensor JSON document per request, as ``krenergy energy`` reads it."""

    name = "energy"
    job_requests = 2000

    def setup_requests(self):
        rng = self.rng("setup")
        return [(kind, _energy_doc(kind, rng)) for kind in ENERGY_KINDS]

    def requests(self):
        rng = self.rng("requests")
        sizes = [k for k in ENERGY_KINDS if k != "bigint"]
        while True:
            kind = "bigint" if rng.random() < BIGINT_SHARE else rng.choice(sizes)
            yield kind, _energy_doc(kind, rng)

    def run(self, request):
        _kind, doc = request
        tensor = kr.TensorElement.from_jsonable(json.loads(doc))
        d_intrinsic = kr.intrinsic_energy(tensor)
        d_staircase = kr.energy_staircase(tensor)
        passed = type(d_intrinsic) is int and d_intrinsic == d_staircase and d_intrinsic >= 0
        return passed, 1, 0 if passed else 1


class Identities(Workload):
    """One seeded rational point at n=4, m=5 per request (criterion 6's cell)."""

    name = "identities"
    job_requests = 2

    def _point_seeds(self, stream: str):
        rng = self.rng(stream)
        while True:
            yield ("point", rng.getrandbits(31))

    def setup_requests(self):
        return [next(self._point_seeds("setup"))]

    def requests(self):
        return self._point_seeds("requests")

    def run(self, request):
        _kind, seed = request
        checks = kr.identity_suite(IDENTITY_N, IDENTITY_M, mode="randomized", seed=seed, trials=1)
        passed = (
            all(c.passed for c in checks)
            and {c.identity for c in checks} == IDENTITY_FAMILIES
        )
        return passed, 1, 0 if passed else 1


class Verify(Workload):
    """One exhaustive ``run_verify`` over every suite per request."""

    name = "verify"
    job_requests = 1

    def _config_seeds(self, stream: str):
        rng = self.rng(stream)
        while True:
            yield ("run", rng.getrandbits(31))

    def setup_requests(self):
        return [next(self._config_seeds("setup"))]

    def requests(self):
        return self._config_seeds("requests")

    def run(self, request):
        _kind, seed = request
        report = kr.run_verify(kr.VerifyConfig(seed=seed, **VERIFY_SETTINGS))
        self.last_report = report
        suites_ok = (
            set(report.suites) == set(kr.VerifyConfig().suites)
            and all(res.checks > 0 for res in report.suites.values())
        )
        failed = report.total_failures
        passed = failed == 0 and suites_ok
        return passed, report.total_checks, failed if suites_ok else max(failed, 1)


WORKLOADS = {cls.name: cls for cls in (Energy, Identities, Verify)}
