"""Reference :class:`~repro.gpusim.context.GridContext`: the test oracle.

:class:`ReferenceGridContext` overrides every charging primitive,
collective and loop schedule of the production context with its original,
allocation-heavy formulation: plain ``np.where``/``reshape``/``repeat``
expressions, eager counter updates, fresh result arrays and the sort-based
coalescing count.  Production must stay byte-identical to it — same
``warp_cycles``, same counters, same returned arrays, same deadlock
messages.  The bodies are frozen: change them only together with an
intentional change of simulated behaviour.

:func:`reference_launch` runs a kernel on it the way
:func:`repro.gpusim.launch` runs one on the production context.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulatedDeadlockError
from repro.gpusim.context import GridContext
from repro.gpusim.device import MEMORY_SEGMENT_BYTES, DeviceSpec
from repro.gpusim.kernel import KernelResult, validate_launch
from repro.gpusim.memory import coalesced_transactions
from repro.gpusim.timing import time_kernel


class ReferenceGridContext(GridContext):
    """:class:`GridContext` with the reference body of every primitive."""

    def _warp_any(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Reference :meth:`GridContext._warp_any`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        return m.reshape(self.num_warps, self.warp_size).any(axis=1)

    def flops(self, n: float, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.flops`."""
        active = self._warp_any(mask)
        cyc = float(n) * self.device.alu_cycles
        self.charge_warps(cyc, active)
        self.counters.alu_cycles += cyc * int(active.sum())

    def flops_per_lane(self, n_per_lane: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.flops_per_lane`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        lanes = np.where(m, np.asarray(n_per_lane, dtype=np.float64), 0.0)
        per_warp = lanes.reshape(self.num_warps, self.warp_size).max(axis=1)
        cyc = per_warp * self.device.alu_cycles
        self.warp_cycles += cyc
        self.counters.alu_cycles += float(cyc.sum())

    def sfu(self, n: float, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.sfu`."""
        active = self._warp_any(mask)
        cyc = float(n) * self.device.sfu_cycles
        self.charge_warps(cyc, active)
        self.counters.sfu_cycles += cyc * int(active.sum())

    def _charge_global(self, byte_addresses: np.ndarray, mask: np.ndarray | None) -> None:
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        # full_mask=False pins the sort-based reference path: this context
        # is the baseline production is measured against, so it must not
        # silently inherit the analytic shortcut.
        txns = coalesced_transactions(
            np.asarray(byte_addresses, dtype=np.int64),
            m,
            self.warp_size,
            full_mask=False,
        )
        cyc = txns * self.device.mem_txn_cycles
        self.warp_cycles += cyc
        ntx = int(txns.sum())
        self.counters.mem_cycles += float(cyc.sum())
        self.counters.global_transactions += ntx
        self.counters.dram_bytes += ntx * MEMORY_SEGMENT_BYTES
        self.counters.global_accesses += 1

    def global_read(
        self, arr: np.ndarray, idx: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Reference :meth:`GridContext.global_read`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        safe = np.where(m, idx, 0)
        self._charge_global(safe * arr.itemsize, m)
        if self.sanitizer is not None:
            self.sanitizer.on_global_read(arr, safe, m)
        out = arr.reshape(-1)[safe]
        return np.where(m, out, np.zeros((), dtype=arr.dtype))

    def global_write(
        self,
        arr: np.ndarray,
        idx: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Reference :meth:`GridContext.global_write`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        safe = np.where(m, idx, 0)
        self._charge_global(safe * arr.itemsize, m)
        if self.sanitizer is not None:
            self.sanitizer.on_global_write(arr, safe, m, self)
        flat = arr.reshape(-1)
        flat[safe[m]] = np.asarray(values)[m] if np.ndim(values) else values

    def charge_global_streamed(
        self,
        elements: float,
        itemsize: int = 8,
        mask: np.ndarray | None = None,
        buffers: str | tuple | None = None,
        indices=None,
        writes: str | tuple | None = None,
    ) -> None:
        """Reference :meth:`GridContext.charge_global_streamed`."""
        if self.sanitizer is not None and (buffers or writes):
            m = self.mask if mask is None else np.logical_and(self.mask, mask)
            self.sanitizer.on_streamed_read(
                buffers, indices=indices, mask=m, writes=writes)
        active = self._warp_any(mask)
        txns_per_warp = float(elements) * np.ceil(
            self.warp_size * itemsize / MEMORY_SEGMENT_BYTES
        )
        ntx_warp = int(round(txns_per_warp))
        cyc = txns_per_warp * self.device.mem_txn_cycles
        self.charge_warps(cyc, active)
        nwarps = int(active.sum())
        self.counters.mem_cycles += cyc * nwarps
        self.counters.global_transactions += ntx_warp * nwarps
        self.counters.dram_bytes += ntx_warp * nwarps * MEMORY_SEGMENT_BYTES
        self.counters.global_accesses += 1

    def shared_access(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.shared_access`."""
        active = self._warp_any(mask)
        cyc = float(n) * self.device.shared_cycles
        self.charge_warps(cyc, active)
        self.counters.shared_cycles += cyc * int(active.sum())
        self.counters.shared_accesses += 1

    def shared_table_write(
        self,
        region: str,
        table_ids: np.ndarray,
        mask: np.ndarray | None = None,
        accesses: float = 1.0,
    ) -> None:
        """Reference :meth:`GridContext.shared_table_write`."""
        self.shared_access(float(accesses), mask)
        if self.sanitizer is not None:
            m = self.mask if mask is None else np.logical_and(self.mask, mask)
            self.sanitizer.on_table_write(region, np.asarray(table_ids), m, self)

    def _charge_intrinsic(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        active = self._warp_any(mask)
        cyc = float(n) * self.device.intrinsic_cycles
        self.charge_warps(cyc, active)
        self.counters.intrinsic_cycles += cyc * int(active.sum())
        self.counters.intrinsics += 1

    def ballot(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Reference :meth:`GridContext.ballot`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        p = np.logical_and(np.asarray(pred, dtype=bool), m)
        counts = p.reshape(self.num_warps, self.warp_size).sum(axis=1)
        self._charge_intrinsic(1.0, mask)
        return np.repeat(counts, self.warp_size)

    def warp_active_count(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Reference :meth:`GridContext.warp_active_count`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        counts = m.reshape(self.num_warps, self.warp_size).sum(axis=1)
        return np.repeat(counts, self.warp_size)

    def warp_reduce(
        self, values: np.ndarray, op: str = "sum", mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Reference :meth:`GridContext.warp_reduce`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        v = np.asarray(values, dtype=np.float64)
        grid = v.reshape(self.num_warps, self.warp_size)
        act = m.reshape(self.num_warps, self.warp_size)
        if op == "sum":
            red = np.where(act, grid, 0.0).sum(axis=1)
        elif op == "max":
            red = np.where(act, grid, -np.inf).max(axis=1)
        elif op == "min":
            red = np.where(act, grid, np.inf).min(axis=1)
        else:
            raise ValueError(f"unknown warp reduction {op!r}")
        self._charge_intrinsic(float(np.log2(self.warp_size)), mask)
        return np.repeat(red, self.warp_size)

    def barrier(self, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.barrier`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        per_block = m.reshape(self.num_blocks, self.threads_per_block)
        some = per_block.any(axis=1)
        all_ = per_block.all(axis=1)
        divergent = np.logical_and(some, np.logical_not(all_))
        if divergent.any():
            bad = int(np.argmax(divergent))
            raise SimulatedDeadlockError(
                f"barrier reached under divergent control flow in block {bad}: "
                f"{int(per_block[bad].sum())}/{self.threads_per_block} threads arrived"
            )
        active = self._warp_any(mask)
        cyc = self.device.barrier_cycles
        self.charge_warps(cyc, active)
        self.counters.barrier_cycles += cyc * int(active.sum())
        self.counters.barriers += 1
        if self.sanitizer is not None:
            # Synchronizing boundary: the race detector opens a new epoch.
            self.sanitizer.on_barrier()

    def atomic_shared(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        """Reference :meth:`GridContext.atomic_shared`."""
        active = self._warp_any(mask)
        cyc = float(n) * self.device.atomic_cycles
        self.charge_warps(cyc, active)
        self.counters.atomic_cycles += cyc * int(active.sum())
        self.counters.atomics += 1

    def block_count(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Reference :meth:`GridContext.block_count`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        p = np.logical_and(np.asarray(pred, dtype=bool), m)
        per_block = p.reshape(self.num_blocks, self.threads_per_block).sum(axis=1)
        self._charge_intrinsic(1.0, mask)  # ballot + popc
        self.atomic_shared(1.0, mask)  # leader atomicAdd
        # The barrier is block-wide: ``mask`` selects who *votes*, not who
        # reaches the synchronization point — every converged thread of the
        # block arrives (a ragged tail still synchronizes on real hardware).
        self.barrier()
        self.shared_access(1.0, mask)  # read back the total
        return np.repeat(per_block, self.threads_per_block)

    def block_active_count(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Reference :meth:`GridContext.block_active_count`."""
        m = self.mask if mask is None else np.logical_and(self.mask, mask)
        counts = m.reshape(self.num_blocks, self.threads_per_block).sum(axis=1)
        return np.repeat(counts, self.threads_per_block)

    def grid_stride(self, n: int, start: int = 0):
        """Reference :meth:`GridContext.grid_stride`."""
        n = int(n)
        start = int(start)
        stride = self.total_threads
        step = 0
        base = start + self.thread_id
        while start + step * stride < n:
            idx = base + step * stride
            live = idx < n
            yield step, idx, np.logical_and(self.mask, live)
            step += 1

    def block_stride(self, n: int):
        """Reference :meth:`GridContext.block_stride`."""
        n = int(n)
        step = 0
        while step * self.num_blocks < n:
            item = self.block_id + step * self.num_blocks
            live = item < n
            yield step, item, np.logical_and(self.mask, live)
            step += 1

    def team_chunk_stride(self, n: int):
        """Reference :meth:`GridContext.team_chunk_stride`."""
        n = int(n)
        chunk = (n + self.num_blocks - 1) // self.num_blocks
        base = self.block_id * chunk + self.lane_in_block
        step = 0
        while step * self.threads_per_block < chunk:
            idx = base + step * self.threads_per_block
            offset = self.lane_in_block + step * self.threads_per_block
            live = np.logical_and(offset < chunk, idx < n)
            yield step, idx, np.logical_and(self.mask, live)
            step += 1

    def block_chunk_stride(self, n: int):
        """Reference :meth:`GridContext.block_chunk_stride`."""
        n = int(n)
        chunk = (n + self.num_blocks - 1) // self.num_blocks
        step = 0
        while step < chunk:
            item = self.block_id * chunk + step
            live = item < n
            yield step, item, np.logical_and(self.mask, live)
            step += 1


def reference_launch(
    kernel,
    device: DeviceSpec,
    num_blocks: int,
    threads_per_block: int,
    sanitizer=None,
) -> KernelResult:
    """Run ``kernel(ctx)`` on a :class:`ReferenceGridContext` and time it
    exactly as :func:`repro.gpusim.launch` does."""
    validate_launch(device, num_blocks, threads_per_block)
    ctx = ReferenceGridContext(
        device, num_blocks, threads_per_block, sanitizer=sanitizer
    )
    name = getattr(kernel, "__name__", "kernel")
    if sanitizer is not None:
        sanitizer.begin_launch(name, {})
        try:
            value = kernel(ctx)
        finally:
            sanitizer.end_launch()
    else:
        value = kernel(ctx)
    counters = ctx.counters
    timing = time_kernel(
        device,
        name,
        ctx.warp_cycles,
        counters,
        num_blocks,
        threads_per_block,
        shared_bytes_per_block=ctx.shared.used_per_block,
    )
    return KernelResult(timing=timing, counters=counters, context=ctx, value=value)
