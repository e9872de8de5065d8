"""Thread-local field storage and reductions.

Implements the semantics of the paper's ``@ThreadLocalField`` /
``threadLocalFieldRead`` / ``threadLocalFieldWrite`` / ``@Reduce`` constructs
(Section III.C):

* a field of an object is instantiated *per team thread* instead of per
  object;
* the thread-local copy is lazily initialised **from the shared value** if the
  first access by that thread is a read; a first write simply installs the
  written value;
* a *reduction* merges the thread-local copies back into a single shared value
  at a designated join point, using a user-provided reducer.

The store is keyed by the owning object and field name, so several fields on
several objects can be thread-local at once (distinguished by the annotation's
``id`` parameter in the paper; here by ``(owner, field)``).  Owners are held
weakly, so a woven instance's slots die with it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Hashable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.runtime import context as ctx
from repro.runtime.exceptions import ReductionError

_MISSING = object()
_SHARED_KEY = ("__shared__",)


def _thread_key() -> Hashable:
    """Key identifying the *logical* thread: team id inside a region, OS id outside."""
    context = ctx.current_context()
    if context is not None:
        return ("team", id(context.team), context.thread_id)
    return ("os", threading.get_ident())


@runtime_checkable
class Reducer(Protocol):
    """Protocol for merging two thread-local values into one.

    Mirrors the paper's *reducer interface* that annotated thread-local
    objects must implement.
    """

    def merge(self, left: Any, right: Any) -> Any:
        """Return the combination of ``left`` and ``right``."""
        ...

    def identity(self) -> Any:
        """Return the neutral element used when a thread never touched the field."""
        ...


class SumReducer:
    """Reducer adding numeric values (identity 0)."""

    def merge(self, left: Any, right: Any) -> Any:
        return left + right

    def identity(self) -> Any:
        return 0


class ListReducer:
    """Reducer concatenating lists (identity ``[]``)."""

    def merge(self, left: list, right: list) -> list:
        return list(left) + list(right)

    def identity(self) -> list:
        return []


class ArrayReducer:
    """Reducer adding numpy arrays elementwise.

    This is the reduction used by the JGF-style MolDyn parallelisation: each
    thread accumulates forces into its own array, and the per-thread arrays
    are summed into the shared array at the end of the force phase.
    """

    def __init__(self, shape: tuple[int, ...] | None = None, dtype: Any = float) -> None:
        self.shape = shape
        self.dtype = dtype

    def merge(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return left + right

    def identity(self) -> Any:
        if self.shape is None:
            return 0.0
        return np.zeros(self.shape, dtype=self.dtype)


class CallableReducer:
    """Adapter turning ``(merge_fn, identity_value)`` into a :class:`Reducer`."""

    def __init__(self, merge_fn: Callable[[Any, Any], Any], identity_value: Any = None) -> None:
        self._merge = merge_fn
        self._identity = identity_value

    def merge(self, left: Any, right: Any) -> Any:
        return self._merge(left, right)

    def identity(self) -> Any:
        return self._identity


def reduce_values(values: Iterable[Any], reducer: Reducer) -> Any:
    """Fold ``values`` with ``reducer``; raises :class:`ReductionError` when empty."""
    iterator = iter(values)
    try:
        accumulator = next(iterator)
    except StopIteration as exc:
        raise ReductionError("cannot reduce an empty collection of thread-local values") from exc
    for value in iterator:
        accumulator = reducer.merge(accumulator, value)
    return accumulator


class ThreadLocalStore:
    """Per-(owner, field) storage of per-thread values plus the shared value."""

    def __init__(self) -> None:
        #: owner -> field -> slot; an owner's slots go when the owner does.
        self._values: "weakref.WeakKeyDictionary[Any, dict[str, dict[Hashable, Any]]]" = weakref.WeakKeyDictionary()
        #: the same for owners that cannot be weakly referenced (``object()``,
        #: ``__slots__`` classes without ``__weakref__``), held strongly.
        self._pinned: dict[Hashable, dict[str, dict[Hashable, Any]]] = {}
        self._lock = threading.Lock()

    def _slot(self, owner: Hashable, field: str) -> dict[Hashable, Any]:
        with self._lock:
            try:
                fields = self._values.get(owner)
                if fields is None:
                    fields = self._values[owner] = {}
            except TypeError:
                fields = self._pinned.setdefault(owner, {})
            slot = fields.get(field)
            if slot is None:
                slot = fields[field] = {}
            return slot

    def clear(self) -> None:
        """Drop every owner's slots."""
        with self._lock:
            self._values.clear()
            self._pinned.clear()

    # -- shared value --------------------------------------------------------

    def set_shared(self, owner: Hashable, field: str, value: Any) -> None:
        """Set the shared (outside-thread-local-context) value of the field."""
        self._slot(owner, field)[_SHARED_KEY] = value

    def get_shared(self, owner: Hashable, field: str, default: Any = None) -> Any:
        """Get the shared value of the field."""
        return self._slot(owner, field).get(_SHARED_KEY, default)

    # -- thread-local access --------------------------------------------------

    def read(self, owner: Hashable, field: str, copy: Callable[[Any], Any] | None = None) -> Any:
        """Thread-local read.

        If the calling thread has no local copy yet, one is initialised from
        the shared value (optionally passed through ``copy`` so mutable values
        are not aliased), matching the paper's first-access-is-a-read rule.
        """
        slot = self._slot(owner, field)
        key = _thread_key()
        value = slot.get(key, _MISSING)
        if value is _MISSING:
            shared = slot.get(_SHARED_KEY)
            value = copy(shared) if copy is not None and shared is not None else shared
            slot[key] = value
        return value

    def write(self, owner: Hashable, field: str, value: Any) -> None:
        """Thread-local write: installs ``value`` as the calling thread's copy."""
        self._slot(owner, field)[_thread_key()] = value

    def local_values(self, owner: Hashable, field: str) -> list[Any]:
        """Return all thread-local copies currently stored (excluding the shared value)."""
        slot = self._slot(owner, field)
        return [v for k, v in slot.items() if k != _SHARED_KEY]

    def clear_locals(self, owner: Hashable, field: str) -> None:
        """Drop all thread-local copies, keeping the shared value."""
        slot = self._slot(owner, field)
        shared = slot.get(_SHARED_KEY, _MISSING)
        slot.clear()
        if shared is not _MISSING:
            slot[_SHARED_KEY] = shared

    # -- reduction ------------------------------------------------------------

    def reduce(self, owner: Hashable, field: str, reducer: Reducer, *, include_shared: bool = True, clear: bool = True) -> Any:
        """Merge all thread-local copies (and optionally the shared value).

        The merged value becomes the new shared value; local copies are
        dropped when ``clear`` is true.  Mirrors the paper's ``@Reduce``.
        """
        locals_ = self.local_values(owner, field)
        values = list(locals_)
        shared = self.get_shared(owner, field, _MISSING)
        if include_shared and shared is not _MISSING and shared is not None:
            values.append(shared)
        if not values:
            raise ReductionError(f"no values to reduce for field {field!r}")
        merged = reduce_values(values, reducer)
        self.set_shared(owner, field, merged)
        if clear:
            self.clear_locals(owner, field)
        return merged


#: Default store used by the thread-local-field aspect/annotation.
global_thread_locals = ThreadLocalStore()
