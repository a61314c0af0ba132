"""Verification harness: exhaustive and randomized suites over all modules.

Every suite walks a family of instances, re-derives both sides of an
identity, and records a JSON witness string for each failure.  All
randomness is drawn from ``random.Random`` seeded per (suite, n, m) cell,
so a fixed seed reproduces the exact same report; the canonical JSON report
carries no timing data (timings go to the human summary) and is therefore
byte-identical across runs.

The pair suites ``rmatrix`` and ``coenergy`` share one runner; pairs are
drawn as two-factor tensors, so they obey the tensor suites' cell limit.
The ``rmatrix`` runner hands the jeu-de-taquin oracle one bounded memo of
``crystal.rectified_pair`` per run, since an exhaustive cell meets each
pair as a target and again as a candidate of the pairs of its class.

``energy-equivalence`` and ``braid`` take each (n, m) cell's stream in
order, ``CHUNK_TENSORS`` tensors at a time, so a cell is never held whole.
A chunk's count grids are stacked once: as one int64 array of flat grids
(``lsym.stack_grids``), which one ``lsym.trop_evals`` per polynomial (the
staircase and each sigma factor) reads, and as grid columns, m lists of
n int64 arrays with one entry per tensor, on which the unchanged ``birational`` kernels run once in ``lsym.MIN_PLUS_ARRAY``:
``energy_walk`` gives every intrinsic energy of the chunk, and ``_chain``
each s_j, its involution and both sides of each braid relation.  These
are ``crystal.intrinsic_energy`` and ``crystal.apply_s`` tensor by tensor,
so each tensor has the problems, in the order and with the witnesses,
that those give.  Nothing is cached across calls.

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
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import crystal
from .birational import (
    RationalPoint,
    _chain,
    cleared_values,
    energy_walk,
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
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    r_matrix,
    r_matrix_oracle,
)
from .identities import SYMBOLIC_M_MAX, SYMBOLIC_N_MAX, identity_suite
from .lsym import (
    MIN_PLUS,
    MIN_PLUS_ARRAY,
    RATIONAL,
    ColoredPoly,
    Semiring,
    sigma,
    sigma_product_indices,
    stack_grids,
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

# energy-equivalence and braid check a cell's stream this many tensors at a
# time: the exhaustive (3, 4) cell at cap 2 peaked at 29, 33 and 38 MiB with
# chunks of 256, 4096 and 16384, and took 0.30, 0.24 and 0.18 s CPU
CHUNK_TENSORS = 4096

# the most pairs whose two-row rectification one rmatrix run keeps: a run at
# n 2:3 and capacity cap 2 meets 136, and a sampled cell at a large cap,
# whose candidates seldom repeat, holds no more than this many
RECTIFIED_MEMO = 4096

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


def check_rmatrix_pair(b1: CrystalElement, b2: CrystalElement, rectified=None) -> list[str]:
    """Formula vs jeu-de-taquin oracle, capacity swap, content conservation;
    ``rectified`` is handed to ``r_matrix_oracle``."""
    problems = []
    c1, c2 = r_matrix(b1, b2)
    pair = {"n": b1.n, "b1": list(b1.counts), "b2": list(b2.counts)}
    if (c1.capacity, c2.capacity) != (b2.capacity, b1.capacity):
        problems.append(_witness("capacity-swap", **pair))
    if any(
        b1.counts[c] + b2.counts[c] != c1.counts[c] + c2.counts[c] for c in range(b1.n)
    ):
        problems.append(_witness("content-conservation", **pair))
    o1, o2 = r_matrix_oracle(b1, b2, rectified)
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


def _chunk_grids(tensors: list[TensorElement]) -> tuple[np.ndarray, list[list]]:
    """The count grids of a chunk of one (n, m) cell, stacked once: one
    flat grid per row (``stack_grids``), which every ``trop_evals`` of the
    chunk reads, and the grid columns x_1..x_m, m lists of n int64 arrays
    whose entry k belongs to tensor k, for ``MIN_PLUS_ARRAY``.  A count is
    at most ``CAPACITY_CAP_MAX``, so no kernel sum nears 2^63."""
    n = tensors[0].n
    grids = stack_grids([tuple(itertools.chain.from_iterable(_grid_columns(t))) for t in tensors])
    rows = grids.T.copy()  # one contiguous row per (i, r)
    return grids, [list(rows[i : i + n]) for i in range(0, len(rows), n)]


def check_energy_chunk(tensors: list[TensorElement]) -> list[list[str]]:
    """Per tensor of a chunk of one (n, m) cell, in order, the problems of:
    the intrinsic energy equals the tropicalized staircase loop Schur
    function (``energy_staircase``) and the tropicalized sigma product.
    The energies come from one ``energy_walk`` over the chunk's grid
    columns, and each polynomial's side from one ``trop_evals`` of the
    chunk's one stack of grids."""
    n, m = tensors[0].n, tensors[0].m
    grids, columns = _chunk_grids(tensors)
    energies = np.broadcast_to(energy_walk(MIN_PLUS_ARRAY, columns), len(tensors)).tolist()
    stairs = trop_evals(staircase_loop_schur(n, m), grids)
    sigmas = [0] * len(tensors)
    for p in sigma_product_polys(n, m):
        sigmas = list(map(operator.add, sigmas, trop_evals(p, grids)))
    out = []
    for t, d, d_stair, sigma_trop in zip(tensors, energies, stairs, sigmas):
        problems = []
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


def _step(tensors: list[TensorElement], columns: list, j: int) -> list:
    """s_j, 1-based, on a chunk's grid columns: ``apply_s(t, j)`` of each
    tensor.  Like ``r_matrix``, a negative count raises ``RuntimeError``."""
    moved = _chain(MIN_PLUS_ARRAY, columns, (j - 1,))
    if np.min(moved[j - 1 : j + 1]) < 0:
        k = int(np.argmax(np.min(moved[j - 1 : j + 1], axis=(0, 1)) < 0))
        raise RuntimeError(f"R-matrix produced a negative count at s_{j} of {tensors[k]!r}; "
                           "this is a bug")
    return moved


def _differ(a: list, b: list) -> np.ndarray:
    """Per tensor of a chunk, whether the grid columns ``a`` and ``b``
    differ anywhere."""
    return np.logical_or.reduce([x != y for xs, ys in zip(a, b) for x, y in zip(xs, ys)])


def check_braid_chunk(tensors: list[TensorElement]) -> list[list[str]]:
    """Per tensor of a chunk of one (n, m) cell, in order, the problems of
    the R-action: for each j, s_j is an involution and keeps the intrinsic
    energy, then each braid relation s_j s_{j+1} s_j = s_{j+1} s_j s_{j+1}.
    Each move and energy is one kernel call over the chunk's grid
    columns."""
    columns = _chunk_grids(tensors)[1]
    m = len(columns)
    energy = energy_walk(MIN_PLUS_ARRAY, columns)
    moved = {j: _step(tensors, columns, j) for j in range(1, m)}
    failed = []  # (kind, j, per-tensor mask), in each tensor's check order
    for j in range(1, m):
        failed.append(("involution", j, _differ(_step(tensors, moved[j], j), columns)))
        failed.append(("energy-r-invariance", j, energy_walk(MIN_PLUS_ARRAY, moved[j]) != energy))
    for j in range(1, m - 1):
        lhs = _step(tensors, _step(tensors, moved[j], j + 1), j)
        rhs = _step(tensors, _step(tensors, moved[j + 1], j), j + 1)
        failed.append(("braid", j, _differ(lhs, rhs)))
    out = [[] for _ in tensors]
    for kind, j, mask in failed:
        for k in np.flatnonzero(mask).tolist():
            out[k].append(_witness(kind, tensor=tensors[k].to_jsonable(), j=j))
    return out


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


def _run_pairs(config: VerifyConfig, result: SuiteResult, check, label: str) -> None:
    for n in range(config.n_range[0], config.n_range[1] + 1):
        rng = _cfg_rng(config, label, n, 2)
        for t in _tensor_stream(n, 2, config.capacity_cap, config.trials, rng, config.mode):
            result.record_problems(check(*t.factors))


def _run_rmatrix(config: VerifyConfig, result: SuiteResult) -> None:
    """The pair runner with one memo of ``crystal.rectified_pair`` for the
    run, read from the module at the start of each run."""
    rectified = lru_cache(maxsize=RECTIFIED_MEMO)(crystal.rectified_pair)
    _run_pairs(config, result, partial(check_rmatrix_pair, rectified=rectified), "rmatrix")


def _run_chunks(config: VerifyConfig, result: SuiteResult, check, label: str,
                m_min: int) -> None:
    """The seeded stream of each (n, m) cell with m >= m_min, checked in
    order ``CHUNK_TENSORS`` tensors at a time."""
    for n, m in _cells(config, m_min):
        rng = _cfg_rng(config, label, n, m)
        stream = _tensor_stream(n, m, config.capacity_cap, config.trials, rng, config.mode)
        while chunk := list(itertools.islice(stream, CHUNK_TENSORS)):
            for problems in check(chunk):
                result.record_problems(problems)


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


def _run_birational(config: VerifyConfig, result: SuiteResult) -> None:
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
    "rmatrix": _run_rmatrix,
    "coenergy": partial(_run_pairs, check=check_coenergy_pair, label="coenergy"),
    "energy-equivalence": partial(_run_chunks, check=check_energy_chunk, label="energy",
                                  m_min=1),
    "braid": partial(_run_chunks, check=check_braid_chunk, label="braid", m_min=2),
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
