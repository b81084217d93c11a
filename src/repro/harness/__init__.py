"""DSE harness: sweeps, metrics, results database, figure reproductions.

The software equivalent of the paper's execution harness (§2.3): it applies
a technique + parameters to a benchmark, executes it, and records runtime
and error into a queryable database; :mod:`repro.harness.figures` drives it
to regenerate every evaluation figure.
"""

from repro.harness.batch import (
    AdaptiveChunker,
    BatchEngine,
    BatchJob,
    BatchReport,
    BatchStream,
    Completion,
    EngineStats,
    EngineStream,
    StreamSession,
    WorkerPool,
    run_batch,
)
from repro.harness.config import SweepConfig, resolve_config
from repro.harness.database import CheckpointWriter, ResultsDB, compact_checkpoint
from repro.harness.executor import SweepReport, run_sweep_parallel
from repro.harness.reporting import format_engine_stats
from repro.harness.metrics import (
    convergence_speedup,
    error,
    geomean_speedup,
    mape,
    mcr,
    r_squared,
    speedup,
)
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.search import SearchResult, evolutionary_search, random_search
from repro.harness.sensitivity import (
    SiteSensitivity,
    analyze_sensitivity,
    format_sensitivity,
)
from repro.harness.sweep import (
    MEMO_ITEMS_PER_THREAD,
    SweepPoint,
    chunk_points,
    full_space_size,
    table2_space,
)

__all__ = [
    "AdaptiveChunker",
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "BatchStream",
    "CheckpointWriter",
    "Completion",
    "EngineStats",
    "EngineStream",
    "ExperimentRunner",
    "StreamSession",
    "SweepConfig",
    "WorkerPool",
    "resolve_config",
    "compact_checkpoint",
    "format_engine_stats",
    "run_batch",
    "MEMO_ITEMS_PER_THREAD",
    "ResultsDB",
    "SweepReport",
    "chunk_points",
    "run_sweep_parallel",
    "RunRecord",
    "SearchResult",
    "SiteSensitivity",
    "analyze_sensitivity",
    "SweepPoint",
    "convergence_speedup",
    "error",
    "evolutionary_search",
    "format_sensitivity",
    "full_space_size",
    "geomean_speedup",
    "mape",
    "random_search",
    "mcr",
    "r_squared",
    "speedup",
    "table2_space",
]
