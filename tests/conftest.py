"""Shared pytest fixtures for the PyAOmpLib test suite."""

from __future__ import annotations

import faulthandler
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

import repro.obs.registry as obs_registry
from repro.runtime.backend import ThreadBackend, set_backend
from repro.runtime.config import RuntimeConfig, set_config
from repro.runtime.locks import global_locks
from repro.runtime.threadlocal import global_thread_locals
from repro.runtime.trace import TraceRecorder, set_global_recorder
from repro.tune import reset_tuner


@pytest.fixture(autouse=True)
def _clean_runtime_state():
    """Reset global runtime state around every test.

    Tests freely change the global configuration, backend, lock registry and
    trace recorder; this fixture guarantees isolation.
    """
    previous_backend = set_backend(ThreadBackend())
    previous_recorder = set_global_recorder(None)
    set_config(RuntimeConfig(num_threads=4, tracing=True, default_schedule="static_block", tune_cache=None))
    global_locks.clear()
    reset_tuner()
    obs_registry.reset()
    yield
    set_backend(previous_backend)
    set_global_recorder(previous_recorder)
    set_config(RuntimeConfig())
    global_locks.clear()
    reset_tuner()
    # Owners that cannot be weakly referenced (bare ``object()`` instances in
    # tests) are held strongly by the store; clear them between tests.
    global_thread_locals.clear()


#: wall-clock budget for watchdog-guarded scenarios (seconds); generous
#: compared to the expected runtimes (<2s each) but below the runtime's own
#: 120s barrier timeouts, so the watchdog reports first with a useful message.
WATCHDOG_TIMEOUT = 60.0


def run_with_watchdog(fn, timeout: float = WATCHDOG_TIMEOUT):
    """Run ``fn`` on a worker thread; fail the calling test if it hangs.

    The shared watchdog behind the stress tier and the nested-team
    conformance tests (marker ``nested``): a deadlocked or livelocked team —
    including an inner team of a team-of-teams — turns into a test failure
    with a stack dump instead of hanging tier-1.  The runtime's own barrier
    timeouts (:data:`repro.runtime.barrier.DEFAULT_BARRIER_TIMEOUT`,
    :data:`repro.runtime.shm.BARRIER_TIMEOUT`) are the backstop that
    eventually unblocks the abandoned worker thread.
    """
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="watchdog")
    future = pool.submit(fn)
    try:
        result = future.result(timeout=timeout)
    except FutureTimeoutError:  # pragma: no cover - only on deadlock/livelock
        faulthandler.dump_traceback(file=sys.stderr)
        pool.shutdown(wait=False)
        pytest.fail(f"scenario did not finish within {timeout}s (deadlock/livelock?)")
    pool.shutdown(wait=True)
    return result


@pytest.fixture
def watchdog():
    """The :func:`run_with_watchdog` helper as a fixture (stress + nested tests)."""
    return run_with_watchdog


@pytest.fixture
def recorder():
    """A trace recorder installed as the global recorder for the test."""
    rec = TraceRecorder()
    set_global_recorder(rec)
    yield rec
    set_global_recorder(None)
