"""Verification harness: exhaustive and randomized suites over all modules.

Every suite walks a family of instances, re-derives both sides of each
identity, and records one check per instance, with the JSON witness of its
first failing identity.  All randomness is drawn from ``random.Random``
seeded per (suite, n, m) cell, so a fixed seed reproduces the exact same
report; the canonical JSON report carries no timing data (timings go to
the human summary) and is therefore byte-identical across runs.

The pair suites ``rmatrix`` and ``coenergy`` share one runner; pairs are
drawn as two-factor tensors, so they obey the tensor suites' cell limit.
The ``rmatrix`` runner hands the jeu-de-taquin oracle one bounded memo of
``crystal.rectified_pair`` per run, since an exhaustive cell meets each
pair as a target and again as a candidate of the pairs of its class.

``energy-equivalence`` and ``braid`` take each (n, m) cell's stream in
order, ``CHUNK_TENSORS`` tensors at a time, so a cell is never held whole.
A chunk's counts are read once into an int64 array, and its count grids
gathered from it by one index array: as an int64 array of flat grids,
which ``lsym.trop_evals`` of the cached ``lsym.staircase_form`` reads, and
as grid columns, m lists of n int64 arrays with one entry per tensor, on
which the kernels run once in ``lsym.MIN_PLUS_ARRAY``: ``energy_walk``
and ``lsym.sigma_product`` for ``energy-equivalence``, and
``birational.r_action_identities``, the one statement of the R-action
identities, for ``braid``.  ``first_failures`` reads each tensor's first
failing identity off the per-entry verdicts, as it does for one rational
point.  Values that the semiring's zero enters are float64; a count is at
most ``CAPACITY_CAP_MAX``, so each is an exact integer.  A config with an
energy-equivalence cell over the enumeration guard is refused before any
suite runs.

The identity suites ``lsym-identities`` and ``section4`` share one
``identity_suite`` run per (n, m, mode) cell and split its checks by
family.  The ``birational`` suite runs ``birational.r_action_identities``
in two semifields: in ``RATIONAL`` at seeded points, after the positivity
of each s_j, and in ``MIN_PLUS_ARRAY`` on seeded tensors, in chunks.

The suites fall in two halves, each on its own seeded streams: the
``SUITE_RUNNERS`` half and the identity half.  When a config selects both,
and the platform has ``os.fork`` and the process may run on two or more
CPUs (``os.sched_getaffinity``, else ``os.cpu_count``), the first half runs
in one forked child, which pickles its results back through a pipe, while
the calling process runs the identity half; otherwise both run here, one
after the other.  The report is the same; per-suite times overlap.  Only
pure caches outlive a call, in the calling process: the identity half's
plans and the energy cells' staircase forms, built before the fork.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import random
import signal
import time
import traceback
from collections.abc import Callable, Iterable, Iterator
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
    coenergy,
    coenergy_sliding_oracle,
    r_matrix,
    r_matrix_oracle,
)
from .identities import SYMBOLIC_M_MAX, SYMBOLIC_N_MAX, identity_suite
from .lsym import (
    MIN_PLUS_ARRAY,
    RATIONAL,
    sigma_product,
    staircase_form,
    staircase_guard,
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

    def record(self, witness: str | None):
        """One check, failed with its first witness unless that is None."""
        self.checks += 1
        if witness is not None:
            self.failures += 1
            if len(self.witnesses) < 32:
                self.witnesses.append(witness)


@dataclass
class RunReport:
    config: VerifyConfig
    suites: dict[str, SuiteResult]
    seconds: float = 0.0  # wall time of the run; per-suite times may overlap

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
            f"  ({self.seconds:.2f}s)"
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


def check_rmatrix_pair(b1: CrystalElement, b2: CrystalElement, rectified=None) -> str | None:
    """The witness of the first failing check, or None: capacity swap,
    content conservation, formula vs jeu-de-taquin oracle; ``rectified``
    is handed to ``r_matrix_oracle``."""
    c1, c2 = r_matrix(b1, b2)
    pair = {"n": b1.n, "b1": list(b1.counts), "b2": list(b2.counts)}
    if (c1.capacity, c2.capacity) != (b2.capacity, b1.capacity):
        return _witness("capacity-swap", **pair)
    if any(
        b1.counts[c] + b2.counts[c] != c1.counts[c] + c2.counts[c] for c in range(b1.n)
    ):
        return _witness("content-conservation", **pair)
    o1, o2 = r_matrix_oracle(b1, b2, rectified)
    if (c1, c2) != (o1, o2):
        return _witness(
            "rmatrix-vs-oracle",
            **pair,
            formula=[list(c1.counts), list(c2.counts)],
            oracle=[list(o1.counts), list(o2.counts)],
        )
    return None


def check_coenergy_pair(b1: CrystalElement, b2: CrystalElement) -> str | None:
    """The witness of the first failing check, or None: ok_1 vs sliding
    oracle, and invariance of coenergy under R."""
    pair = {"n": b1.n, "b1": list(b1.counts), "b2": list(b2.counts)}
    h = coenergy(b1, b2)
    slide = coenergy_sliding_oracle(b1, b2)
    if h != slide:
        return _witness("coenergy-vs-slide", **pair, formula=h, slide=slide)
    c1, c2 = r_matrix(b1, b2)
    if coenergy(c1, c2) != h:
        return _witness("coenergy-r-invariance", **pair)
    return None


def _chunk_grids(tensors: list[TensorElement]) -> tuple[np.ndarray, list[list]]:
    """The count grids of a chunk of one (n, m) cell, stacked once: one
    flat grid per row of an int64 array, which ``trop_evals`` reads, and
    the grid columns x_1..x_m, m lists of n int64 arrays whose entry k
    belongs to tensor k, for ``MIN_PLUS_ARRAY``.  The counts are read once
    into a (k, m, n) array, and one index array gathers its flat grids: the
    positions of factor i's counts, ``range(n)`` rotated by
    ``crystal._column``.  A count is at most ``CAPACITY_CAP_MAX``, so no
    kernel sum nears 2^63."""
    n, m = tensors[0].n, tensors[0].m
    counts = itertools.chain.from_iterable(b.counts for t in tensors for b in t.factors)
    counts = np.fromiter(counts, dtype=np.int64, count=len(tensors) * m * n)
    index = [(i - 1) * n + c for i in range(1, m + 1) for c in crystal._column(tuple(range(n)), i)]
    grids = counts.reshape(-1, m * n)[:, index]
    rows = grids.T.copy()  # one contiguous row per (i, r)
    return grids, [list(rows[i : i + n]) for i in range(0, len(rows), n)]


def check_energy_chunk(tensors: list[TensorElement]) -> list[str | None]:
    """Per tensor of a chunk of one (n, m) cell, in order, the witness of
    its first failing check, or None: the intrinsic energy equals the
    tropicalized staircase loop Schur function (``energy_staircase``), then
    the min-plus sigma product.  The energies and the sigmas come from one
    kernel call each over the chunk's grid columns, and the staircase side
    from one ``trop_evals`` of the chunk's stack of grids."""
    n, m, count = tensors[0].n, tensors[0].m, len(tensors)
    grids, columns = _chunk_grids(tensors)
    energies = np.broadcast_to(energy_walk(MIN_PLUS_ARRAY, columns), count).tolist()
    stairs = trop_evals(staircase_form(n, m), grids)
    product = sigma_product(MIN_PLUS_ARRAY, columns)
    # float64 where the zero entered, so ints for a witness
    sigmas = np.broadcast_to(product, count).astype(np.int64).tolist()
    return [
        _witness("energy-equivalence", tensor=t.to_jsonable(), intrinsic=d, staircase=stair)
        if stair != d else
        _witness("trop-sigma-product", tensor=t.to_jsonable(), got=sigma_trop, want=d)
        if sigma_trop != d else None
        for t, d, stair, sigma_trop in zip(tensors, energies, stairs, sigmas)
    ]


def first_failures(verdicts: Iterable[tuple], count: int,
                   where: Callable[[int], dict]) -> list[str | None]:
    """Per entry k < ``count``, the witness of the first identity of
    ``verdicts`` (``(identity, params, passed)``, as
    ``r_action_identities`` yields them) that entry k fails, located by
    ``where(k)``, or None if it fails none.  A bool verdict covers one
    entry, and a ``MIN_PLUS_ARRAY`` mask one entry per tensor."""
    out = [None] * count
    for identity, params, passed in verdicts:
        if passed is True:  # a scalar pass, the common case at a point
            continue
        for k in np.flatnonzero(np.logical_not(np.broadcast_to(passed, count))).tolist():
            if out[k] is None:
                out[k] = _witness(identity, **where(k), **params)
    return out


def check_r_action_chunk(tensors: list[TensorElement]) -> list[str | None]:
    """Per tensor of a chunk of one (n, m) cell, in order, the witness of
    its first failing R-action identity, or None: one
    ``r_action_identities`` run in ``MIN_PLUS_ARRAY`` on the chunk's grid
    columns."""
    verdicts = r_action_identities(MIN_PLUS_ARRAY, _chunk_grids(tensors)[1])
    return first_failures(verdicts, len(tensors), lambda k: {"tensor": tensors[k].to_jsonable()})


def check_r_action_moves(tensors: list[TensorElement]) -> list[str | None]:
    """``check_r_action_chunk``, for the braid suite: like ``r_matrix``, an
    s_j that gives a negative count raises ``RuntimeError``, tested once
    per s_j over the chunk."""
    columns = _chunk_grids(tensors)[1]
    for j in range(1, len(columns)):
        moved = _chain(MIN_PLUS_ARRAY, columns, (j - 1,))[j - 1 : j + 1]
        if np.min(moved) < 0:
            k = int(np.argmax(np.min(moved, axis=(0, 1)) < 0))
            raise RuntimeError(f"R-matrix produced a negative count at s_{j} of "
                               f"{tensors[k]!r}; this is a bug")
    verdicts = r_action_identities(MIN_PLUS_ARRAY, columns)
    return first_failures(verdicts, len(tensors), lambda k: {"tensor": tensors[k].to_jsonable()})


def check_birational_point(p: RationalPoint) -> str | None:
    """The witness of the first failing check at one exact point, or None:
    the positivity of each s_j, read from the two columns that ``move``
    gives, so that a non-positive value is a failed check and not an
    error, then the R-action identities in ``RATIONAL`` on its cleared
    values, whose verdicts are those at the point."""
    point = p.to_jsonable()
    positive = (("positivity", {"j": j}, min(map(min, move(RATIONAL, a, b))) > 0)
                for j, (a, b) in enumerate(zip(p.values, p.values[1:]), start=1))
    verdicts = itertools.chain(positive, r_action_identities(RATIONAL, cleared_values(p)[0]))
    return first_failures(verdicts, 1, lambda k: {"point": point})[0]


def check_all_ones_count(n: int, m: int) -> str | None:
    """The rational energy at the all-ones point counts the staircase
    tableaux, by their closed-form count, so no size is refused."""
    got, want = rational_energy_product(RationalPoint.all_ones(m, n)), energy_staircase_count(n, m)
    return None if got == want else _witness("all-ones-count", n=n, m=m, got=str(got), want=want)


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
            result.record(check(*t.factors))


def _run_rmatrix(config: VerifyConfig, result: SuiteResult) -> None:
    """The pair runner with one memo of ``crystal.rectified_pair`` for the
    run, read from the module at the start of each run."""
    rectified = lru_cache(maxsize=RECTIFIED_MEMO)(crystal.rectified_pair)
    _run_pairs(config, result, partial(check_rmatrix_pair, rectified=rectified), "rmatrix")


def _record_chunks(result: SuiteResult, stream: Iterator[TensorElement], check) -> None:
    """``check`` each ``CHUNK_TENSORS`` tensors of ``stream`` in order, and
    record one check per tensor with its first witness."""
    while chunk := list(itertools.islice(stream, CHUNK_TENSORS)):
        for witness in check(chunk):
            result.record(witness)


def _run_chunks(config: VerifyConfig, result: SuiteResult, check, label: str,
                m_min: int) -> None:
    """The seeded stream of each (n, m) cell with m >= m_min, checked in
    chunks."""
    for n, m in _cells(config, m_min):
        rng = _cfg_rng(config, label, n, m)
        stream = _tensor_stream(n, m, config.capacity_cap, config.trials, rng, config.mode)
        _record_chunks(result, stream, check)


# The families of the section4 suite; every other family of the identity
# suite belongs to lsym-identities.  All of them need m >= 2.
SECTION4_FAMILIES = frozenset(
    {"column_translation", "tau_vector_annihilation", "minor_tau_factorization"}
)
IDENTITY_SUITES = ("lsym-identities", "section4")


def _run_identities(config: VerifyConfig, results: dict[str, SuiteResult]) -> None:
    """Fill the selected identity suites from one identity_suite run per
    (n, m, mode) cell, routing each check to its family's suite; each of
    them reports the time of the whole run."""
    start = time.perf_counter()
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
                    results[suite].record(None if check.passed else json.dumps(
                        check.to_jsonable(), sort_keys=True, separators=(",", ":")
                    ))
    for result in results.values():
        result.seconds = time.perf_counter() - start


def _run_birational(config: VerifyConfig, result: SuiteResult) -> None:
    """Per cell, the all-ones count, then ``trials`` seeded points and
    ``trials`` seeded tensors, in chunks, each from its own stream."""
    for n, m in _cells(config, 2):
        rng = _cfg_rng(config, "birational", n, m)
        result.record(check_all_ones_count(n, m))
        for _ in range(config.trials):
            result.record(check_birational_point(random_point(m, n, rng)))
        rng = _cfg_rng(config, "birational-min-plus", n, m)
        stream = (random_tensor(n, m, config.capacity_cap, rng) for _ in range(config.trials))
        _record_chunks(result, stream, check_r_action_chunk)


# Each crystal suite walks its own stream; the label seeds its RNG.
SUITE_RUNNERS = {
    "rmatrix": _run_rmatrix,
    "coenergy": partial(_run_pairs, check=check_coenergy_pair, label="coenergy"),
    "energy-equivalence": partial(_run_chunks, check=check_energy_chunk, label="energy",
                                  m_min=1),
    "braid": partial(_run_chunks, check=check_r_action_moves, label="braid", m_min=2),
    "birational": _run_birational,
}


def _run_crystal(config: VerifyConfig, results: dict[str, SuiteResult]) -> dict[str, SuiteResult]:
    """Run each selected suite of ``SUITE_RUNNERS`` in turn, timing each."""
    for name, result in results.items():
        start = time.perf_counter()
        SUITE_RUNNERS[name](config, result)
        result.seconds = time.perf_counter() - start
    return results


def _two_cpus() -> bool:
    """Whether this process can fork and may run on two or more CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2


def _overlap(child: Callable[[], object], parent: Callable[[], object]) -> object:
    """Run ``child`` in a forked process while this one runs ``parent``,
    and return what ``child`` returned, or raise what it raised (as a
    ``RuntimeError`` with its traceback if that does not pickle).  The
    child is always reaped, and killed first if ``parent`` raised.
    ``os.fork``, since ``multiprocessing`` gives a daemonic worker no child."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                message = ("ok", child())
            except BaseException as exc:
                message = ("error", exc)
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    message = ("error", RuntimeError("".join(traceback.format_exception(exc))))
            with open(write_fd, "wb") as pipe:
                pickle.dump(message, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            parent()
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the child process of run_verify exited with status {code} "
                           "before it sent a result")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise value
    return value


def run_verify(config: VerifyConfig) -> RunReport:
    """Run the selected suites and return the aggregated report.

    ``EnumerationGuardError`` refuses a staircase of an energy-equivalence
    cell over the guard before any suite runs; the staircase forms of those
    cells are then built here, where the next call finds them cached.
    """
    start = time.perf_counter()
    if "energy-equivalence" in config.suites:
        cells = _cells(config, 1)
        for n, m in cells:
            staircase_guard(n, m)
        for n, m in cells:
            staircase_form(n, m)
    suites = {name: SuiteResult() for name in config.suites}
    crystal = {name: res for name, res in suites.items() if name in SUITE_RUNNERS}
    identity = {name: res for name, res in suites.items() if name in IDENTITY_SUITES}
    if crystal and identity and _two_cpus():
        suites.update(_overlap(partial(_run_crystal, config, crystal),
                               partial(_run_identities, config, identity)))
    else:
        _run_crystal(config, crystal)
        if identity:
            _run_identities(config, identity)
    return RunReport(config, suites, time.perf_counter() - start)
