"""Verification harness: exhaustive and randomized suites over all modules.

Every suite walks a family of instances, re-derives both sides of an
identity, and records a JSON witness string for each failure.  All
randomness is drawn from ``random.Random`` seeded per (suite, n, m) cell,
so a fixed seed reproduces the exact same report; the canonical JSON report
carries no timing data (timings go to the human summary) and is therefore
byte-identical across runs.

The pair suites ``rmatrix`` and ``coenergy`` share one runner; pairs are
drawn as two-factor tensors, so they obey the tensor suites' cell limit.
``run_verify`` builds one ``RunTables`` per call, a ``functools.cache`` of
``intrinsic_energy`` and ``apply_s`` itself, and hands it to the
``energy-equivalence`` and ``braid`` runners, so that each distinct
tensor's energy is computed once per run: braid re-reads the energies of
an exhaustive cell, whose R-images lie in the cell.  The R-images are not
memoized: ``crystal.r_matrix`` already is, per pair of factors, and a memo
of them would hold every tensor's images until the call returns.  The
tables are dropped when the call returns; nothing is cached across
calls.  ``energy-equivalence`` collects each (n, m) cell's stream
in order and evaluates the staircase and each sigma factor over the
cell's stacked count grids, one ``lsym.trop_evals`` batch each.

The identity suites ``lsym-identities`` and ``section4`` share one
``identity_suite`` run per (n, m, mode) cell and split its checks by
family.  The ``birational`` suite runs ``birational.r_action_identities``
in two semifields: in ``RATIONAL`` at seeded points, beside the positivity
of each s_j, and in ``MIN_PLUS`` at the count grids of seeded tensors.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import NamedTuple

from .birational import (
    RationalPoint,
    cleared_values,
    move,
    r_action_identities,
    random_point,
    rational_energy_product,
)
from .crystal import (
    CrystalElement,
    TensorElement,
    _compositions,
    _grid_columns,
    apply_s,
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    intrinsic_energy,
    r_matrix,
    r_matrix_oracle,
)
from .identities import SYMBOLIC_M_MAX, SYMBOLIC_N_MAX, identity_suite
from .lsym import (
    MIN_PLUS,
    RATIONAL,
    ColoredPoly,
    Semiring,
    sigma,
    sigma_product_indices,
    staircase_loop_schur,
    trop_evals,
)
from .tableaux import energy_staircase_count

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

# The largest factor capacity a config may ask for: ``random_element`` draws
# one letter at a time, so a cap of 10^8 ran for minutes before any check.
CAPACITY_CAP_MAX = 1000


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
        for name in ("n_range", "m_range"):
            bounds = getattr(self, name)
            ints = type(bounds) is tuple and all(type(v) is int for v in bounds)
            if not (ints and len(bounds) == 2):
                raise ConfigError(f"{name} must be a (lo, hi) tuple of integers, got {bounds!r}")
        for name in ("capacity_cap", "trials", "seed"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        n_lo, n_hi = self.n_range
        m_lo, m_hi = self.m_range
        if not (2 <= n_lo <= n_hi <= 6):
            raise ConfigError(f"n range must lie within [2, 6], got {self.n_range}")
        if not (1 <= m_lo <= m_hi <= 6):
            raise ConfigError(f"m range must lie within [1, 6], got {self.m_range}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.capacity_cap <= CAPACITY_CAP_MAX:
            raise ConfigError(
                f"capacity cap must lie within [0, {CAPACITY_CAP_MAX}], got {self.capacity_cap}"
            )
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

    def record_problems(self, problems: list[str]):
        """One check, failed with its first witness if there are problems."""
        self.record(not problems, problems[0] if problems else None)


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


class RunTables(NamedTuple):
    """The tables of one ``run_verify`` call, shared by its crystal suites:
    ``energy(t)`` is ``intrinsic_energy(t)``, computed once per distinct
    tensor, and ``step(t, j)`` is ``apply_s(t, j)``.  A new call builds new
    tables, so nothing is kept across calls."""

    energy: Callable[[TensorElement], int]
    step: Callable[[TensorElement, int], TensorElement]


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


@lru_cache(maxsize=None)
def sigma_product_polys(n: int, m: int) -> tuple[ColoredPoly, ...]:
    """The sigma factors of the rational energy product at color offset 0."""
    return tuple(
        sigma(k, c, n=n, m=m, indices=idx) for k, c, idx in sigma_product_indices(m, n=n)
    )


def check_energy_cell(
    tensors: list[TensorElement], energy: Callable[[TensorElement], int]
) -> list[list[str]]:
    """Per tensor of one (n, m) cell, in order, the problems of: the
    intrinsic energy (``energy``, ``intrinsic_energy`` or the run's memo of
    it) equals the tropicalized staircase loop Schur function
    (``energy_staircase``) and the tropicalized sigma product.  Both sides
    come from one ``trop_evals`` batch per polynomial over the cell's
    stacked count grids."""
    if not tensors:
        return []
    n, m = tensors[0].n, tensors[0].m
    flats = [tuple(itertools.chain.from_iterable(_grid_columns(t))) for t in tensors]
    stairs = trop_evals(staircase_loop_schur(n, m), flats)
    sigmas = [0] * len(tensors)
    for p in sigma_product_polys(n, m):
        sigmas = list(map(operator.add, sigmas, trop_evals(p, flats)))
    out = []
    for t, d_stair, sigma_trop in zip(tensors, stairs, sigmas):
        d, problems = energy(t), []
        if d_stair != d:
            problems.append(_witness(
                "energy-equivalence", tensor=t.to_jsonable(), intrinsic=d, staircase=d_stair
            ))
        if sigma_trop != d:
            problems.append(
                _witness("trop-sigma-product", tensor=t.to_jsonable(), got=sigma_trop, want=d)
            )
        out.append(problems)
    return out


def check_braid_tensor(
    t: TensorElement,
    energy: Callable[[TensorElement], int],
    step: Callable[[TensorElement, int], TensorElement],
) -> list[str]:
    """Involution, braid, and intrinsic-energy invariance of the R-action;
    ``energy`` and ``step`` are ``intrinsic_energy`` and ``apply_s``, or
    the run's memo of them."""
    problems = []
    m = t.m
    d = energy(t)
    for j in range(1, m):
        tj = step(t, j)
        if step(tj, j) != t:
            problems.append(_witness("involution", tensor=t.to_jsonable(), j=j))
        if energy(tj) != d:
            problems.append(_witness("energy-r-invariance", tensor=t.to_jsonable(), j=j))
    for j in range(1, m - 1):
        lhs = step(step(step(t, j), j + 1), j)
        rhs = step(step(step(t, j + 1), j), j + 1)
        if lhs != rhs:
            problems.append(_witness("braid", tensor=t.to_jsonable(), j=j))
    return problems


def check_r_action(sr: Semiring, columns, **where) -> list[str]:
    """A witness, located by ``where``, for each R-action identity that
    fails on ``columns`` in ``sr``."""
    return [_witness(identity, **where, **params)
            for identity, params, passed in r_action_identities(sr, columns) if not passed]


def check_birational_point(p: RationalPoint) -> list[str]:
    """Positivity of each s_j at one exact point, read from the two columns
    that ``move`` gives, so that a non-positive value is a failed check and
    not an error, and the R-action identities in ``RATIONAL`` on its
    cleared values, whose verdicts are those at the point."""
    point = p.to_jsonable()
    moved = (move(RATIONAL, a, b) for a, b in zip(p.values, p.values[1:]))
    problems = [_witness("positivity", point=point, j=j) for j, cols in enumerate(moved, start=1)
                if min(map(min, cols)) <= 0]
    return problems + check_r_action(RATIONAL, cleared_values(p)[0], point=point)


def check_all_ones_count(n: int, m: int) -> list[str]:
    """The rational energy at the all-ones point counts the staircase
    tableaux, by their closed-form count, so no size is refused."""
    got, want = rational_energy_product(RationalPoint.all_ones(m, n)), energy_staircase_count(n, m)
    return [] if got == want else [_witness("all-ones-count", n=n, m=m, got=str(got), want=want)]


# ---------------------------------------------------------------------------
# suite runners


def _cfg_rng(config: VerifyConfig, suite: str, n: int, m: int) -> random.Random:
    return random.Random(f"{config.seed}:{suite}:{n}:{m}")


def _cells(config: VerifyConfig, m_min: int) -> list[tuple[int, int]]:
    """The (n, m) cells of the configured ranges that have m >= m_min."""
    (n_lo, n_hi), (m_lo, m_hi) = config.n_range, config.m_range
    return [(n, m) for n in range(n_lo, n_hi + 1) for m in range(max(m_min, m_lo), m_hi + 1)]


def _run_pairs(config: VerifyConfig, result: SuiteResult, tables: RunTables, check,
               label: str) -> None:
    for n in range(config.n_range[0], config.n_range[1] + 1):
        rng = _cfg_rng(config, label, n, 2)
        for t in _tensor_stream(n, 2, config.capacity_cap, config.trials, rng, config.mode):
            result.record_problems(check(*t.factors))


def _cell_streams(config: VerifyConfig, label: str, m_min: int):
    """The seeded tensor stream of each (n, m) cell with m >= m_min."""
    for n, m in _cells(config, m_min):
        rng = _cfg_rng(config, label, n, m)
        yield _tensor_stream(n, m, config.capacity_cap, config.trials, rng, config.mode)


def _run_energy(config: VerifyConfig, result: SuiteResult, tables: RunTables) -> None:
    """Each cell's stream, collected in order and checked as one batch."""
    for stream in _cell_streams(config, "energy", 1):
        for problems in check_energy_cell(list(stream), tables.energy):
            result.record_problems(problems)


def _run_braid(config: VerifyConfig, result: SuiteResult, tables: RunTables) -> None:
    for stream in _cell_streams(config, "braid", 2):
        for t in stream:
            result.record_problems(check_braid_tensor(t, tables.energy, tables.step))


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
                    witness = None if check.passed else json.dumps(
                        check.to_jsonable(), sort_keys=True, separators=(",", ":")
                    )
                    results[suite].record(check.passed, witness)


def _run_birational(config: VerifyConfig, result: SuiteResult, tables: RunTables) -> None:
    """Per cell, the all-ones count, then ``trials`` seeded points and
    ``trials`` seeded tensors, each from its own stream."""
    for n, m in _cells(config, 2):
        rng = _cfg_rng(config, "birational", n, m)
        result.record_problems(check_all_ones_count(n, m))
        for _ in range(config.trials):
            result.record_problems(check_birational_point(random_point(m, n, rng)))
        rng = _cfg_rng(config, "birational-min-plus", n, m)
        for _ in range(config.trials):
            t = random_tensor(n, m, config.capacity_cap, rng)
            grid = counts_to_grid(t).values
            result.record_problems(check_r_action(MIN_PLUS, grid, tensor=t.to_jsonable()))


# Each crystal suite walks its own stream; the label seeds its RNG.
SUITE_RUNNERS = {
    "rmatrix": partial(_run_pairs, check=check_rmatrix_pair, label="rmatrix"),
    "coenergy": partial(_run_pairs, check=check_coenergy_pair, label="coenergy"),
    "energy-equivalence": _run_energy,
    "braid": _run_braid,
    "birational": _run_birational,
}


def run_verify(config: VerifyConfig) -> RunReport:
    """Run the selected suites and return the aggregated report.

    The runners share one ``RunTables``, built here and dropped on return.
    lsym-identities and section4 are filled by one shared run, whose time
    each of them reports.
    """
    tables = RunTables(cache(intrinsic_energy), apply_s)
    suites = {name: SuiteResult() for name in config.suites}
    for name, result in suites.items():
        if name in SUITE_RUNNERS:
            start = time.perf_counter()
            SUITE_RUNNERS[name](config, result, tables)
            result.seconds = time.perf_counter() - start
    identity = {name: res for name, res in suites.items() if name in IDENTITY_SUITES}
    if identity:
        start = time.perf_counter()
        _run_identities(config, identity)
        for result in identity.values():
            result.seconds = time.perf_counter() - start
    return RunReport(config, suites)
