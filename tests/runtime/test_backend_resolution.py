"""Capability-matrix tests for ``Backend.resolve_for_region`` and friends.

Covers the full backend × region-shape matrix (team size, nesting level,
``requires_shared_locals``), the one fallback policy both isolated-heap
backends (processes, distributed) share, the live ``true_parallel``
capability on every backend, and the loud fork-requirement error of the
components that cannot degrade.
"""

from __future__ import annotations

import warnings

import pytest

from repro.runtime import backend as backend_mod
from repro.runtime import shm
from repro.runtime.backend import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    backend_by_name,
    free_threaded_build,
    gil_enabled,
)
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BackendError

#: the (size, nesting_level, requires_shared_locals) shapes the matrix covers
REGION_SHAPES = [
    (1, 0, False),
    (1, 0, True),
    (4, 0, False),
    (4, 0, True),
    (4, 1, False),
    (4, 1, True),
]

#: the isolated-heap backends, which share one fallback policy
ISOLATED = pytest.mark.parametrize(
    "backend_cls",
    [
        pytest.param(
            ProcessBackend,
            marks=pytest.mark.skipif(not shm.fork_available(), reason="process backend needs fork"),
        ),
        DistributedBackend,
    ],
)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) == {"serial", "threads", "processes", "distributed"}

    def test_unknown_backend_names_the_valid_set(self):
        with pytest.raises(ValueError, match="unknown backend 'interpreters'; valid backends: distributed, processes"):
            backend_by_name("interpreters")  # a former alias of the deleted backend

    def test_capability_flags_per_backend(self):
        expectations = {
            "serial": (True, 1.0),
            "threads": (True, 1.0),
            "processes": (False, 4.0),
            "distributed": (False, 8.0),
        }
        for name, (shared_locals, spinup) in expectations.items():
            backend = backend_by_name(name)
            assert backend.supports_shared_locals == shared_locals, name
            assert backend.spinup_cost_scale == spinup, name

    def test_spinup_cost_ordering(self):
        # Isolated-heap teams cost more to spin up; the tuner's serial cutoff
        # scales with this, so the ordering is semantically meaningful.
        assert (
            ThreadBackend().spinup_cost_scale
            < ProcessBackend().spinup_cost_scale
            < DistributedBackend().spinup_cost_scale
        )


class TestInProcessBackends:
    """Backends with one shared heap never need to fall back."""

    @pytest.mark.parametrize("size,nesting,shared_locals", REGION_SHAPES)
    def test_thread_backend_always_resolves_to_self(self, size, nesting, shared_locals):
        backend = ThreadBackend()
        assert (
            backend.resolve_for_region(size=size, nesting_level=nesting, requires_shared_locals=shared_locals)
            is backend
        )

    @pytest.mark.parametrize("size,nesting,shared_locals", REGION_SHAPES)
    def test_serial_backend_always_resolves_to_self(self, size, nesting, shared_locals):
        backend = SerialBackend()
        assert (
            backend.resolve_for_region(size=size, nesting_level=nesting, requires_shared_locals=shared_locals)
            is backend
        )


class TestIsolatedHeapResolution:
    @ISOLATED
    @pytest.mark.parametrize("shared_locals", [False, True])
    def test_size_one_resolves_to_self(self, backend_cls, shared_locals, recwarn):
        backend = backend_cls()
        assert backend.resolve_for_region(size=1, nesting_level=0, requires_shared_locals=shared_locals) is backend
        assert not recwarn.list

    @ISOLATED
    def test_top_level_spmd_region_resolves_to_self(self, backend_cls, recwarn):
        backend = backend_cls()
        assert backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False) is backend
        assert not recwarn.list

    @ISOLATED
    @pytest.mark.parametrize("shared_locals", [False, True])
    def test_nested_regions_go_to_the_fallback_silently(self, backend_cls, shared_locals, recwarn):
        # Designed hierarchy, not a degradation: no warning.
        backend = backend_cls()
        resolved = backend.resolve_for_region(size=4, nesting_level=1, requires_shared_locals=shared_locals)
        assert resolved is backend.fallback
        assert not recwarn.list

    @ISOLATED
    def test_shared_locals_warn_once_naming_the_backend(self, backend_cls):
        backend = backend_cls()
        with pytest.warns(RuntimeWarning, match=f"{backend_cls.__name__}: .*shared Python heap") as caught:
            for _ in range(3):
                resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=True)
                assert resolved is backend.fallback
        assert len(caught) == 1

    @ISOLATED
    def test_fallback_is_one_cached_thread_backend(self, backend_cls):
        backend = backend_cls()
        assert isinstance(backend.fallback, ThreadBackend)
        assert backend.fallback is backend.fallback

    @ISOLATED
    def test_ineligible_body_is_never_shipped(self, backend_cls):
        # Only picklable bound methods of process_safe owners can be shipped;
        # a closure forks (processes) or runs on the fallback (distributed).
        backend = backend_cls()
        assert backend._body_payload(lambda: None) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sync = backend.create_process_sync(2, lambda: None)
        assert sync is None or not sync.pooled

    def test_ineligible_body_warns_once_on_distributed(self):
        backend = DistributedBackend()
        with pytest.warns(RuntimeWarning, match="DistributedBackend: region body is not a picklable") as caught:
            for _ in range(3):
                assert backend.create_process_sync(2, lambda: None) is None
        assert len(caught) == 1

    def test_no_fork_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        backend = ProcessBackend()
        with pytest.warns(RuntimeWarning, match="ProcessBackend: fork start method unavailable"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        assert resolved is backend.fallback

    @pytest.mark.parametrize("backend_cls", [ThreadBackend, SerialBackend])
    def test_in_process_backends_have_no_fallback(self, backend_cls):
        assert backend_cls().fallback is None


class TestTrueParallel:
    def test_serial_is_never_parallel(self):
        assert SerialBackend().true_parallel is False

    def test_threads_follow_the_live_gil_state(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "gil_enabled", lambda: True)
        assert ThreadBackend().true_parallel is False
        monkeypatch.setattr(backend_mod, "gil_enabled", lambda: False)
        assert ThreadBackend().true_parallel is True

    def test_processes_follow_fork_availability(self, monkeypatch):
        assert ProcessBackend().true_parallel == shm.fork_available()
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        assert ProcessBackend().true_parallel is False

    def test_distributed_is_always_parallel(self):
        assert DistributedBackend().true_parallel is True

    def test_build_introspection_is_consistent(self):
        assert isinstance(free_threaded_build(), bool)
        assert isinstance(gil_enabled(), bool)
        if not free_threaded_build():
            # A regular build cannot have its GIL disabled.
            assert gil_enabled() is True


class TestForkRequirement:
    """Components whose contract is fork inheritance fail loudly, not subtly."""

    def test_require_fork_passes_where_fork_exists(self):
        if shm.fork_available():
            shm.require_fork("a test component")  # must not raise

    def test_require_fork_raises_backend_error(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(BackendError, match="fork.*start method") as excinfo:
            shm.require_fork("the persistent process pool")
        message = str(excinfo.value)
        assert "the persistent process pool" in message
        # The error points at the backends that do work here.
        assert "threads or distributed" in message

    def test_persistent_pool_refuses_to_build_without_fork(self, monkeypatch):
        from repro.runtime.procpool import PersistentProcessPool

        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(BackendError, match="persistent process pool"):
            PersistentProcessPool(2)
