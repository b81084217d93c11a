"""Span tracer installed from the benchmark's side, around the public
functions of each ``repro`` layer.

Nothing inside ``src/`` is modified: :func:`install` replaces attributes on
the layer modules and classes with timing wrappers, patching the name each
caller actually resolves (``repro.openmp.runtime`` imports ``launch`` by
name, so that binding is patched too).  Spans are kept in memory with their
parent ids and written out once, at the end of a run; self times are the
span's duration minus the time its direct children cover.

Layer of a span = its name up to the first dot (``gpusim``, ``approx``,
``apps``, ``openmp``, ``runner``, ``batch``, ``pruning``, ``database``,
``campaign``).  Kernel bodies and the accurate ``compute`` callbacks of
approximated regions are app code, so they are wrapped as ``apps.kernel``
and ``apps.compute`` spans: that keeps them out of the self time of the
``gpusim.launch`` / ``approx.*`` spans that call them.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

#: GridContext methods that charge global, streamed and shared memory.
MEMORY_METHODS = (
    "global_read", "global_write", "charge_global_streamed",
    "shared_access", "shared_table_write",
)
#: GridContext warp/block collectives, barriers and atomics.
COLLECTIVE_METHODS = (
    "ballot", "warp_active_count", "warp_reduce", "warp_argmax", "barrier",
    "atomic_shared", "block_count", "block_active_count",
)
#: Remaining GridContext charging and iteration methods.
CONTEXT_METHODS = (
    "charge_warps", "flops", "flops_per_lane", "sfu", "push_mask", "pop_mask",
    "grid_stride", "block_stride", "team_chunk_stride", "block_chunk_stride",
)


class Tracer:
    """In-memory span recorder plus exact counters."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start, end) per closed span.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        with self._id_lock:
            self._next_id += 1
            sid = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn):
        """A wrapper recording one ``name`` span per call of ``fn``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)

        return traced

    def _wrap_generator(self, name: str, fn):
        """Generators are timed per resumption: the consumer's loop body
        runs between ``next`` calls and must not count as this span's."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._close(sid, parent, name, t0)
                yield item

        return traced

    def wrap_cm(self, name: str, fn):
        """Context-manager factory: enter and exit are separate spans, so
        the ``with`` body stays attributed to whoever runs it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedCM(tracer, name, fn(*args, **kwargs))

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, kind: str = "call") -> None:
        """Wrap ``owner.attr`` in ``name`` spans."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        maker = {"call": self.wrap, "cm": self.wrap_cm}[kind]
        if isinstance(original, (classmethod, staticmethod)):
            self.replace(owner, attr, type(original)(maker(name, original.__func__)))
        else:
            self.replace(owner, attr, maker(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child.get(sid, 0.0)
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _sid, _parent, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _sid, _parent, name, _t0, _t1 in self.spans)

    def dump(self, path) -> None:
        """Write every span as one JSON line (the trace, kept for reading)."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1}
                ) + "\n")


class _TracedCM:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        sid, parent = self.tracer._open()
        t0 = time.perf_counter()
        try:
            return self.inner.__enter__()
        finally:
            self.tracer._close(sid, parent, self.name + ".enter", t0)

    def __exit__(self, *exc):
        sid, parent = self.tracer._open()
        t0 = time.perf_counter()
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer._close(sid, parent, self.name + ".exit", t0)


# ---------------------------------------------------------------------------
def install(tracer: Tracer) -> Tracer:
    """Wrap the public surface of every simulated layer.  Returns ``tracer``."""
    import repro.gpusim.kernel as kernel_mod
    import repro.openmp.runtime as omp_runtime
    from repro.approx.base import Technique
    from repro.approx.runtime import ApproxRuntime
    from repro.apps.common import Benchmark
    from repro.gpusim.context import GridContext
    from repro.harness import batch, database, pruning
    from repro.harness import campaign as campaign_pkg
    from repro.harness.runner import ExperimentRunner

    # gpusim: one wrapped ``launch`` bound under both names callers use.
    original_launch = kernel_mod.launch

    def launch(fn, *args, **kwargs):
        result = original_launch(tracer.wrap("apps.kernel", fn), *args, **kwargs)
        tracer.counts["gpusim.launches"] += 1
        tracer.counts["gpusim.sim_warp_cycles"] += float(result.timing.total_warp_cycles)
        return result

    traced_launch = tracer.wrap("gpusim.launch", launch)
    for mod in (kernel_mod, omp_runtime):
        tracer.replace(mod, "launch", traced_launch)
    for attr in MEMORY_METHODS:
        tracer.patch(GridContext, attr, f"gpusim.memory.{attr}")
    for attr in COLLECTIVE_METHODS:
        tracer.patch(GridContext, attr, f"gpusim.collectives.{attr}")
    for attr in CONTEXT_METHODS:
        tracer.patch(GridContext, attr, f"gpusim.context.{attr}")

    # openmp
    from repro.openmp.runtime import OffloadProgram

    tracer.patch(OffloadProgram, "target_data", "openmp.target_data", kind="cm")
    for attr in ("target_teams", "taskwait", "host_work", "teams_for"):
        tracer.patch(OffloadProgram, attr, f"openmp.{attr}")

    # approx: the span name carries the region's technique; the accurate
    # compute callback is app code and becomes its own child span.
    original_region = ApproxRuntime.__dict__["region"]
    original_loop = ApproxRuntime.__dict__["loop"]
    region_spans = {
        t: tracer.wrap(f"approx.{t.value}", original_region) for t in Technique
    }
    loop_spans = {
        t: tracer.wrap(f"approx.{t.value}", original_loop) for t in Technique
    }

    def region(self, ctx, name, compute, *args, **kwargs):
        traced = region_spans[self.spec(name).technique]
        return traced(self, ctx, name, tracer.wrap("apps.compute", compute), *args, **kwargs)

    def loop(self, ctx, name, n):
        return loop_spans[self.spec(name).technique](self, ctx, name, n)

    tracer.replace(ApproxRuntime, "region", region)
    tracer.replace(ApproxRuntime, "loop", loop)

    # apps
    tracer.patch(Benchmark, "run", "apps.run")
    tracer.patch(Benchmark, "build_regions", "apps.build_regions")

    # harness
    tracer.patch(ExperimentRunner, "run_point", "runner.run_point")
    tracer.patch(ExperimentRunner, "baseline", "runner.baseline")
    tracer.patch(batch.BatchEngine, "submit", "batch.submit")
    tracer.patch(batch.EngineStream, "report", "batch.report")
    tracer.patch(pruning, "run_sweep_pruned", "pruning.run_sweep_pruned")
    tracer.patch(database.CheckpointWriter, "write", "database.write")
    tracer.patch(database.ResultsDB, "load", "database.load")
    tracer.patch(campaign_pkg, "split_campaign", "campaign.split")
    tracer.patch(campaign_pkg, "merge_campaign", "campaign.merge")
    return tracer


def install_queue(tracer: Tracer) -> None:
    """Wrap the campaign queue's lease operations (worker processes)."""
    from repro.harness.campaign.queue import FileQueue

    for attr in ("claim", "heartbeat", "complete"):
        tracer.patch(FileQueue, attr, f"campaign.{attr}")


def layer_summary(tracer: Tracer) -> dict:
    """Self seconds and call counts aggregated per layer and sub-layer —
    the JSON-able digest a worker process ships back to the benchmark."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    totals = tracer.total_times()
    agg: dict[str, float] = defaultdict(float)
    ncalls: dict[str, int] = defaultdict(int)
    for name, secs in selfs.items():
        parts = name.split(".")
        for depth in (1, 2):
            key = ".".join(parts[:depth])
            agg[key] += secs
            ncalls[key] += calls[name]
    return {
        "self_s": dict(agg),
        "calls": dict(ncalls),
        "total_s": totals,
        "span_calls": dict(calls),
        "counts": dict(tracer.counts),
    }


def merge_summaries(summaries: list[dict]) -> dict:
    out = {"self_s": Counter(), "calls": Counter(), "total_s": Counter(),
           "span_calls": Counter(), "counts": Counter()}
    for s in summaries:
        for key in out:
            out[key].update(s.get(key, {}))
    return {k: dict(v) for k, v in out.items()}
