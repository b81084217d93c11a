"""Randomized differential test: ``GridContext`` against the reference oracle.

Hypothesis draws a primitive program — a sequence of operation kinds, a
grid shape and a seed — and the seed materializes every operand: masks,
address vectors, values, predicates, loop trip counts.  The same program
then runs on a production :class:`~repro.gpusim.context.GridContext` and on
a :class:`~tests.reference.ReferenceGridContext`, and everything observable
must match byte for byte: ``warp_cycles``, every counter, every returned
array (copied at once, because collective results are borrowed), the arrays
written through ``global_write``, and the deadlock messages.  ``global_read``
results are also held uncopied to the end, since they must be fresh.

Programs cover nested ``push_mask``/``pop_mask`` (depth <= 3); ``None``,
all-true, warp-uniform, block-uniform and scattered partial masks (shared
mask objects, so the identity-keyed active-warp cache is hit and must stay
correct); affine and scattered ``global_read``/``global_write`` addresses;
fractional ``charge_global_streamed``; ``ballot``, ``warp_reduce`` with
sum/max/min, ``block_count`` and ``barrier`` under divergent masks (the
deadlock path); and all four loop schedules, whose yielded masks feed
further charges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulatedDeadlockError
from repro.gpusim import GridContext, amd_mi250x, nvidia_v100
from tests.reference import ReferenceGridContext

DEVICES = {"nvidia_v100": nvidia_v100(), "amd_mi250x": amd_mi250x()}

OPS = (
    "push", "pop", "flops", "sfu", "flops_per_lane", "shared", "atomic",
    "read", "write", "streamed", "ballot", "active_count", "reduce",
    "block_count", "block_active", "barrier", "argmax", "loop",
)
SCHEDULES = ("grid_stride", "block_stride", "team_chunk_stride", "block_chunk_stride")
MAX_DEPTH = 3


class Program:
    """Concrete operands for one drawn program; runs on any context."""

    def __init__(self, kinds, num_blocks, threads_per_block, warp_size, seed):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.num_blocks = num_blocks
        self.tpb = threads_per_block
        self.warp_size = warp_size
        self.total = num_blocks * threads_per_block
        self.size = 4 * self.total
        self.masks = [self._mask(kind) for kind in ("all", "warp", "block", "scatter")]
        self.sources = {
            "f64": rng.standard_normal(self.size),
            "f32": rng.standard_normal(self.size).astype(np.float32),
            "i32": rng.integers(-1000, 1000, self.size).astype(np.int32),
        }
        self.steps = []
        depth = 0
        for kind in kinds:
            if kind == "push" and depth >= MAX_DEPTH or kind == "pop" and depth == 0:
                continue
            depth += {"push": 1, "pop": -1}.get(kind, 0)
            self.steps.append((kind, self._operands(kind)))

    # -- operand generation ------------------------------------------------
    def _mask(self, kind):
        rng, total = self.rng, self.total
        if kind == "all":
            m = np.ones(total, dtype=bool)
        elif kind == "warp":
            m = np.repeat(rng.random(total // self.warp_size) < 0.6, self.warp_size)
        elif kind == "block":
            m = np.repeat(rng.random(self.num_blocks) < 0.6, self.tpb)
        else:
            m = rng.random(total) < rng.uniform(0.2, 0.9)
        m.setflags(write=False)  # masks are immutable by contract
        return m

    def _pick_mask(self, allow_none=True):
        choice = int(self.rng.integers(-1 if allow_none else 0, len(self.masks)))
        return None if choice < 0 else self.masks[choice]

    def _index(self):
        rng, total = self.rng, self.total
        if rng.random() < 0.5:
            stride = int(rng.integers(0, 4))
            base = int(rng.integers(0, self.size - stride * (total - 1)))
            return base + stride * np.arange(total, dtype=np.int64)
        return rng.integers(0, self.size, total)

    def _operands(self, kind):
        rng, total = self.rng, self.total
        if kind == "push":
            return (self._pick_mask(allow_none=False),)
        if kind == "pop":
            return ()
        if kind in ("flops", "sfu", "shared", "atomic"):
            return (float(rng.choice([0.5, 1.0, 3.0])), self._pick_mask())
        if kind == "flops_per_lane":
            return (rng.integers(0, 20, total).astype(np.float64), self._pick_mask())
        if kind == "read":
            return (str(rng.choice(list(self.sources))), self._index(), self._pick_mask())
        if kind == "write":
            name = str(rng.choice(list(self.sources)))
            values = (
                rng.integers(-50, 50, total).astype(self.sources[name].dtype)
                if rng.random() < 0.7 else self.sources[name].dtype.type(7)
            )
            return (name, self._index(), values, self._pick_mask())
        if kind == "streamed":
            elements = float(rng.choice([0.1, 0.3125, 1.0, 2.5, 3.0]))
            return (elements, int(rng.choice([4, 8])), self._pick_mask())
        if kind in ("ballot", "block_count"):
            return (rng.random(total) < 0.5, self._pick_mask())
        if kind in ("active_count", "block_active", "barrier"):
            return (self._pick_mask(),)
        if kind == "reduce":
            op = str(rng.choice(["sum", "max", "min"]))
            return (rng.standard_normal(total), op, self._pick_mask())
        if kind == "argmax":
            return (rng.integers(0, 8, total).astype(np.float64), self._pick_mask())
        if kind == "loop":
            schedule = str(rng.choice(SCHEDULES))
            # Thread schedules hand out lanes, block schedules whole blocks:
            # size each to span a few steps, including a ragged last one.
            per_step = self.num_blocks if schedule.startswith("block") else total
            n = int(rng.integers(1, 3 * per_step + 2))
            start = int(rng.integers(0, n)) if rng.random() < 0.3 else 0
            return (schedule, n, start)
        raise AssertionError(kind)

    # -- execution ---------------------------------------------------------
    def run(self, ctx):
        """Execute on ``ctx``; returns (log, written arrays)."""
        arrays = {k: v.copy() for k, v in self.sources.items()}
        log = []
        reads = []  # global_read results are fresh: held uncopied to the end

        def record(tag, value):
            a = np.array(value, copy=True)
            log.append((tag, str(a.dtype), a.shape, a.tobytes()))

        for i, (kind, args) in enumerate(self.steps):
            tag = f"{i}:{kind}"
            try:
                if kind == "push":
                    ctx.push_mask(args[0])
                elif kind == "pop":
                    record(tag, ctx.pop_mask())
                elif kind == "flops":
                    ctx.flops(*args)
                elif kind == "sfu":
                    ctx.sfu(*args)
                elif kind == "shared":
                    ctx.shared_access(*args)
                elif kind == "atomic":
                    ctx.atomic_shared(*args)
                elif kind == "flops_per_lane":
                    ctx.flops_per_lane(*args)
                elif kind == "read":
                    name, idx, mask = args
                    reads.append(ctx.global_read(arrays[name], idx, mask))
                    record(tag, reads[-1])
                elif kind == "write":
                    name, idx, values, mask = args
                    ctx.global_write(arrays[name], idx, values, mask)
                elif kind == "streamed":
                    elements, itemsize, mask = args
                    ctx.charge_global_streamed(elements, itemsize=itemsize, mask=mask)
                elif kind == "ballot":
                    record(tag, ctx.ballot(*args))
                elif kind == "active_count":
                    record(tag, ctx.warp_active_count(*args))
                elif kind == "reduce":
                    values, op, mask = args
                    record(tag, ctx.warp_reduce(values, op, mask))
                elif kind == "block_count":
                    record(tag, ctx.block_count(*args))
                elif kind == "block_active":
                    record(tag, ctx.block_active_count(*args))
                elif kind == "barrier":
                    ctx.barrier(*args)
                elif kind == "argmax":
                    record(tag, ctx.warp_argmax(*args))
                elif kind == "loop":
                    self._loop(ctx, tag, record, *args)
            except SimulatedDeadlockError as e:
                log.append((tag, "deadlock", str(e)))
        for value in reads:
            record("held read", value)
        return log, arrays

    @staticmethod
    def _loop(ctx, tag, record, schedule, n, start):
        data = np.arange(n, dtype=np.float64)
        it = (
            ctx.grid_stride(n, start=start)
            if schedule == "grid_stride"
            else getattr(ctx, schedule)(n)
        )
        for step, idx, mask in it:
            record(f"{tag}:{step}:idx", idx)
            record(f"{tag}:{step}:mask", mask)
            ctx.flops(1.0, mask)
            # Dead lanes carry out-of-range indices: only ``mask`` keeps
            # the read inside ``data``.
            record(f"{tag}:{step}:read", ctx.global_read(data, idx, mask))


def _run(cls, program, device):
    ctx = cls(device, program.num_blocks, program.tpb)
    log, arrays = program.run(ctx)
    return ctx.warp_cycles.tobytes(), vars(ctx.counters), log, arrays


@pytest.mark.parametrize("device_name", sorted(DEVICES))
@given(
    kinds=st.lists(st.sampled_from(OPS), min_size=1, max_size=30),
    num_blocks=st.integers(1, 3),
    warps_per_block=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_production_matches_reference(device_name, kinds, num_blocks, warps_per_block, seed):
    device = DEVICES[device_name]
    program = Program(
        kinds, num_blocks, warps_per_block * device.warp_size, device.warp_size, seed
    )
    cycles, counters, log, arrays = _run(GridContext, program, device)
    ref_cycles, ref_counters, ref_log, ref_arrays = _run(ReferenceGridContext, program, device)

    assert len(log) == len(ref_log)
    for got, want in zip(log, ref_log):
        assert got == want, f"{got[0]} differs from the reference"
    for name in arrays:
        assert arrays[name].tobytes() == ref_arrays[name].tobytes(), f"write to {name}"
    assert counters == ref_counters
    assert cycles == ref_cycles
