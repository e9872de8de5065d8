"""JGF LUFact benchmark — Linpack LU factorisation and solve.

This is the paper's Section III.E case study.  The kernel factorises a dense
``n x n`` matrix with partial pivoting (``dgefa``) and solves the resulting
triangular systems (``dgesl``), exactly following the Java Linpack structure:
the matrix is stored column-wise (``a[j]`` is column ``j``), the pivot search
(``idamax``), column scaling (``dscal``) and column update (``daxpy``) mirror
the BLAS-1 routines of the original.

Refactoring (paper Figure 6): the row-elimination loop has been moved into the
for method :meth:`reduce_all_cols`, and the pivot interchange into
:meth:`interchange`, so the parallelisation of Figure 7/8 can be expressed
purely with aspects/annotations:

* ``dgefa`` is the parallel region;
* ``reduce_all_cols`` gets the for work-sharing construct and a barrier after;
* ``interchange`` and ``dscal_pivot`` are master-only with barriers.

The parallelisation below uses the *annotation style* (paper Figure 8): the
PyAOmpLib annotations are placed directly on the base program's methods.  They
attach metadata only — the class behaves exactly like the sequential program
until :func:`repro.core.annotation_weaver.weave_annotations` is applied by the
AOmp driver, and reverts to it when the weaver is unplugged.
"""

from __future__ import annotations

import numpy as np

from repro.core import annotations as aomp
from repro.jgf.jgfrandom import JGFRandom
from repro.runtime import context as rt_ctx
from repro.runtime import shm
from repro.runtime.worksharing import run_for


class Linpack:
    """Refactored sequential Linpack kernel (column-major storage, as in Java).

    With ``shared=True`` the matrix, right-hand side and pivot vector live in
    :mod:`repro.runtime.shm` shared memory, making the kernel safe for the
    process backend (worker processes eliminate columns of the same physical
    matrix); the kernel then declares itself ``process_safe`` so its bound
    methods may be shipped to the persistent worker pool.
    """

    def __init__(self, n: int, seed: int = 1325, *, shared: bool = False) -> None:
        if n < 2:
            raise ValueError("matrix order must be at least 2")
        self.n = n
        self.shared = bool(shared)
        self.process_safe = self.shared
        rng = JGFRandom(seed, left=-0.5, right=0.5)
        # a[j] is column j (lda == n); generated column-by-column as in Linpack.
        a = rng.doubles(n * n).reshape(n, n)
        # Right-hand side chosen so the exact solution is all ones.
        b = a.sum(axis=0).copy()
        self.a = shm.as_shared(a) if shared else a
        self.b = shm.as_shared(b) if shared else b
        self.ipvt = shm.as_shared(np.zeros(n, dtype=np.int64)) if shared else np.zeros(n, dtype=np.int64)
        self.a_original = a.copy()
        self.b_original = b.copy()
        #: schedule/chunk used by the SPMD collapse driver (plain attributes,
        #: so the zero-arg region body stays a picklable bound method).
        self.spmd_schedule: "str | None" = None
        self.spmd_chunk = 1
        self._pivot_k = 0
        self._pivot_row = 0

    def release_shared(self) -> None:
        """Free the shared-memory segments (no-op for in-process kernels)."""
        for array in (self.a, self.b, self.ipvt):
            if shm.is_shared(array):
                array.close()

    # -- BLAS-1 style helpers -------------------------------------------------------

    @staticmethod
    def idamax(column: np.ndarray, offset: int) -> int:
        """Index (absolute, within the column) of the largest magnitude entry from ``offset`` on."""
        return int(offset + np.argmax(np.abs(column[offset:])))

    @aomp.master
    @aomp.barrier_before
    @aomp.barrier_after
    def interchange(self, k: int, pivot: int) -> None:
        """Swap the pivot element into place in column ``k`` (paper's ``interchange``)."""
        self.interchange_inline(k, pivot)

    @aomp.master
    @aomp.barrier_after
    def dscal_pivot(self, k: int) -> None:
        """Compute the multipliers for column ``k`` (paper's ``dscal`` call)."""
        self.dscal_pivot_inline(k)

    # -- base program (refactored as in paper Figure 6) -------------------------------

    @aomp.parallel
    def dgefa(self) -> int:
        """LU factorisation with partial pivoting; returns 0 on success."""
        n = self.n
        info = 0
        for k in range(n - 1):
            col_k = self.a[k]
            pivot = self.idamax(col_k, k)
            self.ipvt[k] = pivot
            if col_k[pivot] == 0.0:
                info = k
                continue
            self.interchange(k, pivot)
            self.dscal_pivot(k)
            self.reduce_all_cols(k + 1, n, 1, k, pivot)
        self.ipvt[n - 1] = n - 1
        if self.a[n - 1][n - 1] == 0.0:
            info = n - 1
        return info

    @aomp.for_loop(schedule="staticBlock")
    @aomp.barrier_after
    def reduce_all_cols(self, start: int, end: int, step: int, k: int, pivot: int) -> None:
        """For method: eliminate rows below the pivot in columns [start, end).

        Each column ``j`` swaps its pivot element and then applies the daxpy
        update ``a[j][k+1:] += t * col_k[k+1:]`` — columns are independent, so
        the loop is the work-shared source of parallelism (paper Figure 6).
        """
        col_k = self.a[k]
        for j in range(start, end, step):
            col_j = self.a[j]
            t = col_j[pivot]
            if pivot != k:
                col_j[pivot] = col_j[k]
                col_j[k] = t
            col_j[k + 1 :] += t * col_k[k + 1 :]

    # -- collapse(2) decomposition (nested-worksharing port) ---------------------------

    def pivot_swap_cols(self, start: int, end: int, step: int) -> None:
        """For method: apply the pending pivot swap in columns [start, end).

        The first phase of the collapsed elimination: the per-column swap of
        ``reduce_all_cols`` is hoisted out so the row-elimination phase can be
        split along *both* dimensions without racing the swap (a row segment
        containing the pivot row must observe the swapped value).  The pivot
        state is read from :meth:`publish_pivot`'s slots.
        """
        k = int(self._pivot_k)
        pivot = int(self._pivot_row)
        for j in range(start, end, step):
            col_j = self.a[j]
            t = col_j[pivot]
            if pivot != k:
                col_j[pivot] = col_j[k]
                col_j[k] = t

    def daxpy_cols_rows(
        self,
        col_start: int,
        col_end: int,
        col_step: int,
        row_start: int,
        row_end: int,
        row_step: int,
    ) -> None:
        """Collapsed for method: eliminate rows [row_start, row_end) of columns
        [col_start, col_end).

        The daxpy update is elementwise per ``(column, row)`` pair, so any
        tiling of the 2D space produces bit-identical results — exactly what
        ``collapse(2)`` needs.  The multiplier ``t`` is the post-swap
        ``col_j[k]`` (phase one has completed by the time this runs).
        """
        k = int(self._pivot_k)
        col_k = self.a[k]
        for j in range(col_start, col_end, col_step):
            col_j = self.a[j]
            col_j[row_start:row_end:row_step] += col_j[k] * col_k[row_start:row_end:row_step]

    def publish_pivot(self, k: int, pivot: int) -> None:
        """Record the current elimination step's pivot state (master only).

        Stored on the instance (shared heap for in-process teams; worker
        processes recompute it — see :meth:`run_spmd_collapse`).
        """
        self._pivot_k = k
        self._pivot_row = pivot

    def run_spmd_collapse(self) -> None:
        """SPMD region body: LU factorisation with ``collapse(2)`` worksharing.

        Every member executes the same ``k`` loop; the pivot search is
        replicated (deterministic — all members agree), the master performs
        the pivot bookkeeping of the paper's master phases, and the row
        elimination is workshared over the *combined* column × row space so a
        wide team stays busy even for the small trailing submatrices that
        starve a column-only distribution.  Zero-argument and picklable, so
        the process backend can run it on its persistent worker pool; the
        schedule comes from :attr:`spmd_schedule`/:attr:`spmd_chunk`.
        """
        n = self.n
        schedule = self.spmd_schedule
        chunk = self.spmd_chunk
        team = rt_ctx.current_team()
        for k in range(n - 1):
            col_k = self.a[k]
            pivot = self.idamax(col_k, k)
            # Replicated bookkeeping: every member computes the identical
            # pivot and writes the same values (workers cannot see the
            # master's heap under the process backend).
            self.publish_pivot(k, pivot)
            if col_k[pivot] == 0.0:
                self.ipvt[k] = pivot
                continue
            if team is not None:
                # Every member has finished its (replicated) pivot search of
                # column k before the master mutates it — the counterpart of
                # the annotated version's @BarrierBefore on interchange.
                team.barrier(label="lufact:pivot")
            if rt_ctx.get_thread_id() == 0:
                self.ipvt[k] = pivot
                self.interchange_inline(k, pivot)
                self.dscal_pivot_inline(k)
            if team is not None:
                team.barrier(label="lufact:multipliers")
            run_for(
                self.pivot_swap_cols, k + 1, n, 1,
                loop_name="Linpack.pivot_swap_cols",
                schedule=schedule, chunk=chunk,
            )
            run_for(
                self.daxpy_cols_rows, k + 1, n, 1, k + 1, n, 1,
                collapse=2,
                loop_name="Linpack.daxpy_cols_rows",
                schedule=schedule, chunk=chunk,
            )
        if rt_ctx.get_thread_id() == 0:
            self.ipvt[n - 1] = n - 1

    def interchange_inline(self, k: int, pivot: int) -> None:
        """Pivot interchange without the master/barrier annotations.

        The SPMD driver sequences phases itself; calling the annotated
        :meth:`interchange` from it would nest a second master construct.
        """
        column = self.a[k]
        if pivot != k:
            column[k], column[pivot] = column[pivot], column[k]

    def dscal_pivot_inline(self, k: int) -> None:
        """Multiplier computation without the master/barrier annotations."""
        column = self.a[k]
        t = -1.0 / column[k]
        column[k + 1 :] *= t

    def dgesl(self) -> np.ndarray:
        """Solve ``A x = b`` using the factorisation (sequential, as in JGF)."""
        n = self.n
        b = self.b
        # Forward elimination applying the stored multipliers.
        for k in range(n - 1):
            pivot = int(self.ipvt[k])
            t = b[pivot]
            if pivot != k:
                b[pivot] = b[k]
                b[k] = t
            b[k + 1 :] += t * self.a[k][k + 1 :]
        # Back substitution.
        for k in range(n - 1, -1, -1):
            b[k] /= self.a[k][k]
            t = -b[k]
            b[:k] += t * self.a[k][:k]
        return b

    def run(self) -> float:
        """Factorise and solve; returns the residual norm (validation value)."""
        self.dgefa()
        solution = self.dgesl()
        return self.residual(solution)

    # -- validation ------------------------------------------------------------------

    def residual(self, solution: np.ndarray) -> float:
        """Normalised residual ||A x - b|| / (n ||A|| ||x||), as Linpack reports."""
        ax = self.a_original.T @ solution
        numerator = float(np.abs(ax - self.b_original).max())
        norm_a = float(np.abs(self.a_original).max())
        norm_x = float(np.abs(solution).max())
        eps = np.finfo(np.float64).eps
        return numerator / (self.n * norm_a * norm_x * eps)
