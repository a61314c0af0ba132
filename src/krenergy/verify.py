"""Verification harness: exhaustive and randomized suites over all modules.

Every suite walks a family of instances, re-derives both sides of an
identity, and records a JSON witness string for each failure.  All
randomness is drawn from ``random.Random`` seeded per (suite, n, m) cell,
so a fixed seed reproduces the exact same report; the canonical JSON report
carries no timing data (timings go to the human summary) and is therefore
byte-identical across runs.

The crystal suites share two runners, one over pairs of elements and one
over tensors; pairs are drawn as two-factor tensors, so both obey the same
cell limit.  The identity suites ``lsym-identities`` and ``section4``
share one ``identity_suite`` run per (n, m, mode) cell and split its checks
by family.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .birational import (
    RationalPoint,
    check_lem_tact,
    random_point,
    rational_energy_global,
    rational_energy_product,
    s_action,
)
from .crystal import (
    CrystalElement,
    TensorElement,
    _compositions,
    apply_s,
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    energy_staircase,
    intrinsic_energy,
    r_matrix,
    r_matrix_oracle,
)
from .identities import SYMBOLIC_M_MAX, SYMBOLIC_N_MAX, identity_suite
from .lsym import ColoredPoly, sigma, sigma_product_indices, trop_eval
from .tableaux import count_ssyt, energy_staircase_shape

SUITE_NAMES = (
    "rmatrix",
    "coenergy",
    "energy-equivalence",
    "braid",
    "lsym-identities",
    "birational",
    "section4",
)

MODES = ("exhaustive", "randomized", "both")

# Exhaustive tensor spaces larger than this are deterministically sampled
# instead of fully enumerated (the report notes nothing; sampling is a
# function of the seed alone).
EXHAUSTIVE_CELL_LIMIT = 100_000


class ConfigError(ValueError):
    """Raised for invalid harness configuration."""


@dataclass(frozen=True)
class VerifyConfig:
    suites: tuple[str, ...] = SUITE_NAMES
    n_range: tuple[int, int] = (2, 3)
    m_range: tuple[int, int] = (1, 3)
    capacity_cap: int = 3
    trials: int = 50
    seed: int = 0
    mode: str = "both"

    def __post_init__(self):
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
        if not self.suites:
            raise ConfigError("at least one suite is required")
        if len(set(self.suites)) != len(self.suites):
            raise ConfigError(f"each suite may be listed once, got {self.suites}")
        n_lo, n_hi = self.n_range
        m_lo, m_hi = self.m_range
        if not (2 <= n_lo <= n_hi <= 6):
            raise ConfigError(f"n range must lie within [2, 6], got {self.n_range}")
        if not (1 <= m_lo <= m_hi <= 6):
            raise ConfigError(f"m range must lie within [1, 6], got {self.m_range}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.capacity_cap < 0:
            raise ConfigError(f"capacity cap must be nonnegative, got {self.capacity_cap}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def to_jsonable(self) -> dict:
        return {
            "suites": list(self.suites),
            "n_range": list(self.n_range),
            "m_range": list(self.m_range),
            "capacity_cap": self.capacity_cap,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
        }


@dataclass
class SuiteResult:
    checks: int = 0
    failures: int = 0
    witnesses: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, passed: bool, witness: str | None = None):
        self.checks += 1
        if not passed:
            self.failures += 1
            if witness is not None and len(self.witnesses) < 32:
                self.witnesses.append(witness)


@dataclass
class RunReport:
    config: VerifyConfig
    suites: dict[str, SuiteResult]

    @property
    def total_checks(self) -> int:
        return sum(s.checks for s in self.suites.values())

    @property
    def total_failures(self) -> int:
        return sum(s.failures for s in self.suites.values())

    def to_jsonable(self) -> dict:
        # no timings here: the canonical report must be byte-identical
        # across runs with the same config and seed
        return {
            "config": self.config.to_jsonable(),
            "seed": self.config.seed,
            "suites": {
                name: {
                    "checks": res.checks,
                    "failures": res.failures,
                    "witnesses": sorted(res.witnesses),
                }
                for name, res in sorted(self.suites.items())
            },
            "total": {"checks": self.total_checks, "failures": self.total_failures},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))

    def human_summary(self) -> str:
        lines = []
        for name, res in sorted(self.suites.items()):
            status = "ok" if res.failures == 0 else f"{res.failures} FAILURES"
            lines.append(f"{name:<20} {res.checks:>8} checks  {status}  ({res.seconds:.2f}s)")
        lines.append(
            f"{'total':<20} {self.total_checks:>8} checks  "
            f"{'ok' if self.total_failures == 0 else f'{self.total_failures} FAILURES'}"
        )
        return "\n".join(lines)


def _witness(kind: str, **data) -> str:
    return json.dumps({"kind": kind, **data}, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# instance enumeration


def elements_up_to(n: int, cap: int) -> list[CrystalElement]:
    """All single-row elements with capacity at most ``cap``."""
    return [
        CrystalElement(n, counts)
        for total in range(cap + 1)
        for counts in _compositions([total] * n, total)
    ]


def iter_tensors(n: int, m: int, cap: int):
    """Every tensor with all factor capacities at most ``cap``."""
    elements = elements_up_to(n, cap)
    for combo in itertools.product(elements, repeat=m):
        yield TensorElement(n, combo)


def tensor_space_size(n: int, m: int, cap: int) -> int:
    """Number of tensors :func:`iter_tensors` yields, without building them."""
    return math.comb(cap + n, n) ** m


def random_element(n: int, cap: int, rng: random.Random) -> CrystalElement:
    capacity = rng.randint(0, cap)
    counts = [0] * n
    for _ in range(capacity):
        counts[rng.randrange(n)] += 1
    return CrystalElement(n, counts)


def random_tensor(n: int, m: int, cap: int, rng: random.Random) -> TensorElement:
    return TensorElement(n, [random_element(n, cap, rng) for _ in range(m)])


def _tensor_stream(n: int, m: int, cap: int, trials: int, rng: random.Random, mode: str):
    """Exhaustive enumeration when feasible and requested, else sampling."""
    small = tensor_space_size(n, m, cap) <= EXHAUSTIVE_CELL_LIMIT
    if mode in ("exhaustive", "both") and small:
        yield from iter_tensors(n, m, cap)
    if mode in ("randomized", "both") or not small:
        for _ in range(trials):
            yield random_tensor(n, m, cap, rng)


# ---------------------------------------------------------------------------
# per-instance checks


def check_rmatrix_pair(b1: CrystalElement, b2: CrystalElement) -> list[str]:
    """Formula vs jeu-de-taquin oracle, capacity swap, content conservation."""
    problems = []
    c1, c2 = r_matrix(b1, b2)
    pair = {"n": b1.n, "b1": list(b1.counts), "b2": list(b2.counts)}
    if (c1.capacity, c2.capacity) != (b2.capacity, b1.capacity):
        problems.append(_witness("capacity-swap", **pair))
    if any(
        b1.counts[c] + b2.counts[c] != c1.counts[c] + c2.counts[c] for c in range(b1.n)
    ):
        problems.append(_witness("content-conservation", **pair))
    o1, o2 = r_matrix_oracle(b1, b2)
    if (c1, c2) != (o1, o2):
        problems.append(
            _witness(
                "rmatrix-vs-oracle",
                **pair,
                formula=[list(c1.counts), list(c2.counts)],
                oracle=[list(o1.counts), list(o2.counts)],
            )
        )
    return problems


def check_coenergy_pair(b1: CrystalElement, b2: CrystalElement) -> list[str]:
    """ok_1 vs sliding oracle, and invariance of coenergy under R."""
    problems = []
    pair = {"n": b1.n, "b1": list(b1.counts), "b2": list(b2.counts)}
    h = coenergy(b1, b2)
    slide = coenergy_sliding_oracle(b1, b2)
    if h != slide:
        problems.append(_witness("coenergy-vs-slide", **pair, formula=h, slide=slide))
    c1, c2 = r_matrix(b1, b2)
    if coenergy(c1, c2) != h:
        problems.append(_witness("coenergy-r-invariance", **pair))
    return problems


def check_energy_tensor(t: TensorElement) -> list[str]:
    d_global = intrinsic_energy(t)
    d_stair = energy_staircase(t)
    if d_global != d_stair:
        return [
            _witness(
                "energy-equivalence",
                tensor=t.to_jsonable(),
                intrinsic=d_global,
                staircase=d_stair,
            )
        ]
    return []


@lru_cache(maxsize=None)
def sigma_product_polys(n: int, m: int) -> tuple[ColoredPoly, ...]:
    """The sigma factors of the rational energy product at color offset 0."""
    return tuple(
        sigma(k, c, n=n, m=m, indices=idx) for k, c, idx in sigma_product_indices(m, n=n)
    )


def check_tropical_bridge_tensor(t: TensorElement) -> list[str]:
    """The tropicalized sigma product equals the intrinsic energy.  (The
    tropicalized staircase loop Schur is ``energy_staircase``, which
    :func:`check_energy_tensor` compares.)"""
    grid = counts_to_grid(t)
    d = intrinsic_energy(t)
    sigma_trop = sum(trop_eval(p, grid) for p in sigma_product_polys(t.n, t.m))
    if sigma_trop != d:
        return [_witness("trop-sigma-product", tensor=t.to_jsonable(), got=sigma_trop, want=d)]
    return []


def check_braid_tensor(t: TensorElement) -> list[str]:
    """Involution, braid, and intrinsic-energy invariance of the R-action."""
    problems = []
    m = t.m
    d = intrinsic_energy(t)
    for j in range(1, m):
        tj = apply_s(t, j)
        if apply_s(tj, j) != t:
            problems.append(_witness("involution", tensor=t.to_jsonable(), j=j))
        if intrinsic_energy(tj) != d:
            problems.append(_witness("energy-r-invariance", tensor=t.to_jsonable(), j=j))
    for j in range(1, m - 1):
        lhs = apply_s(apply_s(apply_s(t, j), j + 1), j)
        rhs = apply_s(apply_s(apply_s(t, j + 1), j), j + 1)
        if lhs != rhs:
            problems.append(_witness("braid", tensor=t.to_jsonable(), j=j))
    return problems


def check_birational_point(p: RationalPoint) -> list[str]:
    """Involution, braid, energy invariance, the product formula, and the
    transported-kappa identities, all at one exact point."""
    problems = []
    m, n = p.m, p.n
    glob = rational_energy_global(p)
    prod = rational_energy_product(p)
    point = p.to_jsonable()
    if glob != prod:
        problems.append(_witness("energyprod", point=point))
    for j in range(1, m):
        pj = s_action(j, p)
        if any(v <= 0 for row in pj.values for v in row):
            problems.append(_witness("positivity", point=point, j=j))
        if s_action(j, pj) != p:
            problems.append(_witness("birational-involution", point=point, j=j))
        if rational_energy_global(pj) != glob:
            problems.append(_witness("rational-energy-invariance", point=point, j=j))
    for j in range(1, m - 1):
        lhs = s_action(j, s_action(j + 1, s_action(j, p)))
        rhs = s_action(j + 1, s_action(j, s_action(j + 1, p)))
        if lhs != rhs:
            problems.append(_witness("birational-braid", point=point, j=j))
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            tact = check_lem_tact(i, j, (i + j) % n, p)
            if not tact.passed:
                problems.append(_witness("lem-tact", point=point, i=i, j=j))
    return problems


def check_all_ones_count(n: int, m: int) -> list[str]:
    """The rational energy at the all-ones point counts staircase tableaux."""
    if m < 2:
        return []
    expected = count_ssyt(energy_staircase_shape(n, m), m)
    value = rational_energy_product(RationalPoint.all_ones(m, n))
    if value != Fraction(expected):
        return [_witness("all-ones-count", n=n, m=m, got=str(value), want=expected)]
    return []


# ---------------------------------------------------------------------------
# suite runners


def _cfg_rng(config: VerifyConfig, suite: str, n: int, m: int) -> random.Random:
    return random.Random(f"{config.seed}:{suite}:{n}:{m}")


def _cells(config: VerifyConfig, m_min: int) -> list[tuple[int, int]]:
    """The (n, m) cells of the configured ranges that have m >= m_min."""
    (n_lo, n_hi), (m_lo, m_hi) = config.n_range, config.m_range
    return [(n, m) for n in range(n_lo, n_hi + 1) for m in range(max(m_min, m_lo), m_hi + 1)]


def _run_pairs(config: VerifyConfig, result: SuiteResult, check, label: str) -> None:
    for n in range(config.n_range[0], config.n_range[1] + 1):
        rng = _cfg_rng(config, label, n, 2)
        for t in _tensor_stream(n, 2, config.capacity_cap, config.trials, rng, config.mode):
            problems = check(*t.factors)
            result.record(not problems, problems[0] if problems else None)


def _run_tensors(
    config: VerifyConfig, result: SuiteResult, check, label: str, m_min: int
) -> None:
    for n, m in _cells(config, m_min):
        rng = _cfg_rng(config, label, n, m)
        for t in _tensor_stream(n, m, config.capacity_cap, config.trials, rng, config.mode):
            problems = check(t)
            result.record(not problems, problems[0] if problems else None)


def _check_energy_and_bridge(t: TensorElement) -> list[str]:
    return check_energy_tensor(t) + check_tropical_bridge_tensor(t)


# The families of the section4 suite; every other family of the identity
# suite belongs to lsym-identities.  All of them need m >= 2.
SECTION4_FAMILIES = frozenset(
    {"column_translation", "tau_vector_annihilation", "minor_tau_factorization"}
)
IDENTITY_SUITES = ("lsym-identities", "section4")


def _run_identities(config: VerifyConfig, results: dict[str, SuiteResult]) -> None:
    """Fill the selected identity suites from one identity_suite run per
    (n, m, mode) cell, routing each check to its family's suite."""
    for n, m in _cells(config, 1 if "lsym-identities" in results else 2):
        modes = []
        if config.mode in ("exhaustive", "both") and n <= SYMBOLIC_N_MAX and m <= SYMBOLIC_M_MAX:
            modes.append("symbolic")
        if config.mode in ("randomized", "both"):
            modes.append("randomized")
        for mode in modes:
            for check in identity_suite(n, m, mode=mode, seed=config.seed, trials=config.trials):
                suite = "section4" if check.identity in SECTION4_FAMILIES else "lsym-identities"
                if suite in results:
                    witness = json.dumps(
                        check.to_jsonable(), sort_keys=True, separators=(",", ":")
                    )
                    results[suite].record(check.passed, None if check.passed else witness)


def _run_birational(config: VerifyConfig, result: SuiteResult) -> None:
    for n, m in _cells(config, 2):
        rng = _cfg_rng(config, "birational", n, m)
        ones_problems = check_all_ones_count(n, m)
        result.record(not ones_problems, ones_problems[0] if ones_problems else None)
        for _ in range(config.trials):
            p = random_point(m, n, rng)
            problems = check_birational_point(p)
            result.record(not problems, problems[0] if problems else None)


# Each crystal suite walks its own stream; the label seeds its RNG.
SUITE_RUNNERS = {
    "rmatrix": partial(_run_pairs, check=check_rmatrix_pair, label="rmatrix"),
    "coenergy": partial(_run_pairs, check=check_coenergy_pair, label="coenergy"),
    "energy-equivalence": partial(
        _run_tensors, check=_check_energy_and_bridge, label="energy", m_min=1
    ),
    "braid": partial(_run_tensors, check=check_braid_tensor, label="braid", m_min=2),
    "birational": _run_birational,
}


def run_verify(config: VerifyConfig) -> RunReport:
    """Run the selected suites and return the aggregated report.

    lsym-identities and section4 are filled by one shared run, whose time
    each of them reports.
    """
    suites = {name: SuiteResult() for name in config.suites}
    for name, result in suites.items():
        if name in SUITE_RUNNERS:
            start = time.perf_counter()
            SUITE_RUNNERS[name](config, result)
            result.seconds = time.perf_counter() - start
    identity = {name: res for name, res in suites.items() if name in IDENTITY_SUITES}
    if identity:
        start = time.perf_counter()
        _run_identities(config, identity)
        for result in identity.values():
            result.seconds = time.perf_counter() - start
    return RunReport(config, suites)
