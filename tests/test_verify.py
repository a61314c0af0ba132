"""``run_verify`` in two processes: the ``SUITE_RUNNERS`` half in a forked
child, the identity half in the caller, and the same report in one."""

import multiprocessing
import os
import signal
import time

import pytest

from krenergy import birational, verify
from krenergy.lsym import staircase_form
from krenergy.verify import VerifyConfig, run_verify

from test_crystal import shift_move

BENCHMARK_CONFIG = VerifyConfig(seed=0, n_range=(2, 3), m_range=(1, 3), capacity_cap=2, trials=5,
                                mode="exhaustive")
# one suite from each half
MIXED_CONFIG = VerifyConfig(suites=("braid", "lsym-identities"), n_range=(2, 2), m_range=(2, 2),
                            capacity_cap=1, trials=2)


def cpus(monkeypatch, count):
    """Let ``run_verify`` see ``count`` CPUs, so that it forks with two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_counting_forks(config, monkeypatch):
    """``run_verify(config)`` and the number of times it forked."""
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    try:
        return run_verify(config), len(forks)
    finally:
        monkeypatch.setattr(os, "fork", real)
        assert_no_child()


@pytest.mark.parametrize("mutate", [None, shift_move], ids=["correct", "shifted-move"])
@pytest.mark.parametrize("config", [BENCHMARK_CONFIG, VerifyConfig()], ids=["benchmark", "default"])
def test_forked_and_in_process_reports_are_byte_identical(config, mutate, monkeypatch):
    if mutate:
        mutate(monkeypatch)
    cpus(monkeypatch, 2)
    forked, forks = run_counting_forks(config, monkeypatch)
    cpus(monkeypatch, 1)
    alone, no_forks = run_counting_forks(config, monkeypatch)
    assert (forks, no_forks) == (1, 0)
    assert forked.to_json() == alone.to_json()
    assert (forked.total_failures > 0) == (mutate is not None)


def test_one_half_alone_runs_in_process(monkeypatch):
    cpus(monkeypatch, 2)
    for suites in (("braid", "rmatrix"), ("section4", "lsym-identities")):
        config = VerifyConfig(suites=suites, n_range=(2, 2), m_range=(2, 2), capacity_cap=1,
                              trials=2)
        assert run_counting_forks(config, monkeypatch)[1] == 0


def test_an_exception_in_the_child_half_is_raised_by_run_verify(monkeypatch):
    """A move that gives a negative count raises in the braid suite, in the
    child: ``run_verify`` raises it, with the type and message of the
    in-process run."""
    real = birational.move

    def negative(sr, a, b):
        x, y = real(sr, a, b)
        return [sr.mul(v, -1_000) for v in x], y

    monkeypatch.setattr(birational, "move", negative)
    raised = []
    for count in (2, 1):
        cpus(monkeypatch, count)
        with pytest.raises(RuntimeError, match="negative count at s_1") as info:
            run_verify(MIXED_CONFIG)
        assert_no_child()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_a_child_that_dies_without_a_result_raises(monkeypatch):
    parent = os.getpid()

    def die(config, result):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(verify.SUITE_RUNNERS, "braid", die)
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status -9 before it sent a result"):
        run_verify(MIXED_CONFIG)
    assert_no_child()


def test_the_child_is_killed_when_the_callers_half_raises(monkeypatch):
    """The child's braid suite would run for a minute; the caller's half
    raises at once, and ``run_verify`` kills and reaps the child."""

    def forever(config, result):
        time.sleep(60)

    def refuse(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.SUITE_RUNNERS, "braid", forever)
    monkeypatch.setattr(verify, "identity_suite", refuse)
    cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verify(MIXED_CONFIG)
    assert_no_child()
    assert time.monotonic() - start < 30


def test_staircase_forms_are_built_in_the_caller(monkeypatch):
    """The energy cells' staircase forms are built before the fork, so the
    second call builds none."""
    config = VerifyConfig(suites=("energy-equivalence", "lsym-identities"), n_range=(2, 3),
                          m_range=(1, 2), capacity_cap=1, trials=2)
    cpus(monkeypatch, 2)
    staircase_form.cache_clear()
    first, forks = run_counting_forks(config, monkeypatch)
    assert forks == 1 and staircase_form.cache_info().misses == 4
    assert run_verify(config).to_json() == first.to_json()
    assert staircase_form.cache_info()[:2] == (4, 4)  # hits, misses


def test_run_verify_in_a_daemonic_pool_worker():
    """A pool worker is daemonic, and ``multiprocessing`` refuses it a
    child; ``run_verify`` forks with ``os.fork`` and still runs there."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        report = pool.apply(run_verify, (MIXED_CONFIG,))
    assert report.to_json() == run_verify(MIXED_CONFIG).to_json()
    assert report.total_checks > 0 and report.total_failures == 0


def test_report_wall_seconds_are_shown_but_not_in_the_json():
    report = run_verify(MIXED_CONFIG)
    assert report.seconds > 0
    assert report.human_summary().splitlines()[-1].endswith(f"({report.seconds:.2f}s)")
    assert "seconds" not in report.to_json()
