"""Lattice-pruned, surrogate-ordered DSE sweeps (ROADMAP: "stop evaluating
points we can predict").

Table 2 spans 57k+ (technique, threshold/rate, hierarchy-level)
configurations, and the grid is *monotone*: making a configuration more
aggressive along any axis — a higher TAF/iACT threshold, a denser
perforation pattern, a coarser AC-state hierarchy level — can only admit
more approximation.  A point that already violates its QoI bound therefore
implies (under that monotonicity) that every more-aggressive descendant
violates it too, so simulating the descendants buys nothing.  Three
components exploit that structure:

* :class:`SweepLattice` — the subsumption lattice over sweep points.
  Points that agree on every non-aggressiveness parameter form a chain
  group; within a group, point *q* descends from *p* when *q*'s
  aggressiveness vector dominates *p*'s.  :func:`run_sweep_pruned`
  dispatches each point as soon as its ancestors are decided
  (:class:`DataflowScheduler`) and, once a point's error exceeds the
  bound, records every un-evaluated descendant as a ``pruned``
  checkpoint row naming the violating ancestor — the same
  mechanism preflight uses for ``infeasible`` rows, so resume, merge, and
  :class:`~repro.harness.database.ResultsDB` work unchanged.
* :class:`Surrogate` — a cheap incremental least-squares regressor of
  (error, speedup) over :func:`~repro.harness.sweep.point_features`,
  refit from completed records.  It *orders* frontiers (it never decides
  anything): likely-Pareto points and likely-violating pruning roots with
  many descendants evaluate first, so budgeted searches and streaming
  consumers see the interesting records early.
* :class:`VariantCache` — a content-hash record cache keyed on the fully
  lowered configuration (app, device, problem, seed, point, site,
  sanitize), so identical configurations across apps, figures, and
  campaigns never re-simulate; optionally persisted to a JSONL file.

Soundness: pruning is exact only where error is monotone along the pruned
axes.  The threshold axes are monotone by construction (a larger threshold
accepts strictly more approximations); the hierarchy-level axis is
heuristic (sharing AC state across a warp usually, but not provably,
increases error).  Surviving (non-pruned) records are byte-identical to
the unpruned sweep's in either case — pruning only ever *removes* rows
from the simulated set, replacing them with ``pruned`` markers.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.config import SweepConfig
from repro.harness.database import CheckpointWriter, ResultsDB, _decode, _encode
from repro.harness.reporting import SweepProgress, progress_callback
from repro.harness.runner import RunRecord
from repro.harness.sweep import LEVEL_ORDER, SweepPoint, point_features

#: Default QoI bound when ``SweepConfig(prune=True)`` does not name one —
#: the paper's 10% error budget (Fig 6).
DEFAULT_QOI_BOUND = 0.10

#: ``RunRecord.note`` prefix identifying a lattice-pruned checkpoint row
#: (mirrors the ``"preflight"`` prefix on statically pruned rows).
PRUNED_NOTE_PREFIX = "pruned:"


# ---------------------------------------------------------------------------
# Aggressiveness axes
# ---------------------------------------------------------------------------
def aggression_axes(point: SweepPoint) -> list[tuple[str, int]]:
    """The (param, direction) axes along which ``point`` can get more
    aggressive.  Direction ``+1`` means a larger value admits more
    approximation; ``-1`` the opposite (small-perforation ``skip`` drops
    one of every M iterations, so a *smaller* M skips more)."""
    t = point.technique
    if t in ("taf", "iact"):
        return [("threshold", +1)]
    if t == "perfo":
        kind = point.params.get("kind")
        if kind == "small":
            return [("skip", -1)]
        if kind == "large":
            return [("skip", +1)]
        if kind in ("ini", "fini"):
            return [("skip_percent", +1)]
    return []


def aggression_vector(
    point: SweepPoint, include_level: bool = True
) -> tuple[float, ...] | None:
    """Sortable aggressiveness coordinates, or ``None`` when the point has
    no recognized axes (such points form singleton lattice groups)."""
    axes = aggression_axes(point)
    coords: list[float] = []
    for name, sign in axes:
        val = point.params.get(name)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            return None
        coords.append(sign * float(val))
    if include_level:
        coords.append(float(LEVEL_ORDER.get(point.level, -1)))
    if not coords:
        return None
    return tuple(coords)


def _base_key(point: SweepPoint, include_level: bool) -> tuple:
    """Everything a point's identity holds *except* its aggressiveness
    coordinates — two points compare only when these match."""
    axis_names = {name for name, _sign in aggression_axes(point)}
    fixed = tuple(
        sorted((k, v) for k, v in point.params.items() if k not in axis_names)
    )
    key = (point.technique, fixed, point.items_per_thread)
    if not include_level:
        key += (point.level,)
    return key


def _dominates(a: tuple, b: tuple) -> bool:
    """True when ``b`` is strictly more aggressive than ``a`` (elementwise
    ``>=`` with at least one ``>``)."""
    return all(x <= y for x, y in zip(a, b)) and a != b


class SweepLattice:
    """Subsumption lattice over a set of sweep points.

    Points sharing a :func:`_base_key` form one group; within a group the
    partial order is elementwise dominance of :func:`aggression_vector`.
    Points with no recognized axes (or non-numeric axis values) are
    singletons — never pruned, never pruning anything.
    """

    def __init__(
        self, points: Iterable[SweepPoint], include_level: bool = True
    ) -> None:
        self.points: list[SweepPoint] = []
        self._vec: dict[str, tuple | None] = {}
        self._groups: dict[tuple, list[SweepPoint]] = OrderedDict()
        self._group_of: dict[str, tuple] = {}
        seen: set[str] = set()
        for n, pt in enumerate(points):
            label = pt.label()
            if label in seen:
                continue
            seen.add(label)
            self.points.append(pt)
            vec = aggression_vector(pt, include_level)
            self._vec[label] = vec
            # Unordered points get a unique group so they stand alone.
            key = (
                _base_key(pt, include_level) if vec is not None else ("·", n)
            )
            self._groups.setdefault(key, []).append(pt)
            self._group_of[label] = key
        self._ancestors: dict[str, list[SweepPoint]] = {}
        self._descendants: dict[str, list[SweepPoint]] = {}
        self._depth: dict[str, int] = {}
        for group in self._groups.values():
            for pt in group:
                label = pt.label()
                vec = self._vec[label]
                anc: list[SweepPoint] = []
                desc: list[SweepPoint] = []
                if vec is not None:
                    for other in group:
                        if other is pt:
                            continue
                        ovec = self._vec[other.label()]
                        if _dominates(ovec, vec):
                            anc.append(other)
                        elif _dominates(vec, ovec):
                            desc.append(other)
                self._ancestors[label] = anc
                self._descendants[label] = desc

    def __len__(self) -> int:
        return len(self.points)

    def vector(self, point: SweepPoint) -> tuple | None:
        return self._vec.get(point.label())

    def ancestors(self, point: SweepPoint) -> list[SweepPoint]:
        """Strictly less-aggressive points of the same group."""
        return self._ancestors.get(point.label(), [])

    def descendants(self, point: SweepPoint) -> list[SweepPoint]:
        """Strictly more-aggressive points of the same group."""
        return self._descendants.get(point.label(), [])

    def depth(self, point: SweepPoint) -> int:
        """Lattice level: 0 for roots, else one past the deepest ancestor."""
        label = point.label()
        if label not in self._depth:
            anc = self._ancestors.get(label, [])
            self._depth[label] = 1 + max((self.depth(a) for a in anc), default=-1)
        return self._depth[label]

    def roots(self) -> list[SweepPoint]:
        """Minimal (least aggressive) elements, in input order."""
        return [p for p in self.points if not self._ancestors[p.label()]]

    def groups(self) -> list[list[SweepPoint]]:
        return [list(g) for g in self._groups.values()]


# ---------------------------------------------------------------------------
# Surrogate regressor
# ---------------------------------------------------------------------------
class Surrogate:
    """Incremental linear surrogate of (error, speedup) over point features.

    One least-squares model per technique, refit lazily whenever new
    observations have arrived since the last prediction.  Deliberately
    cheap and deterministic: the surrogate only *orders* work — a wrong
    prediction costs evaluation order, never correctness — so a linear
    model over :func:`~repro.harness.sweep.point_features` (which carries
    log-scale copies of every axis) is plenty.
    """

    #: Observations a technique needs before its model is trusted.
    MIN_FIT = 4

    def __init__(self) -> None:
        self._rows: dict[str, list[list[float]]] = {}
        self._err: dict[str, list[float]] = {}
        self._spd: dict[str, list[float]] = {}
        self._coef: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._stale: set[str] = set()
        #: Observations accepted (finite, feasible records only).
        self.observed = 0

    def observe(self, point: SweepPoint, record: RunRecord) -> None:
        """Absorb one completed record (infeasible/non-finite are skipped)."""
        if not record.feasible:
            return
        err = float(record.error)
        spd = float(record.reported_speedup)
        if not (np.isfinite(err) and np.isfinite(spd)):
            return
        t = point.technique
        self._rows.setdefault(t, []).append(point_features(point))
        self._err.setdefault(t, []).append(err)
        self._spd.setdefault(t, []).append(spd)
        self._stale.add(t)
        self.observed += 1

    def observe_records(self, records: Iterable[RunRecord]) -> int:
        """Absorb records (points reconstructed from their identity);
        returns how many were actually fit (infeasible rows are skipped)."""
        before = self.observed
        for rec in records:
            self.observe(SweepPoint.of_record(rec), rec)
        return self.observed - before

    def _model(self, technique: str) -> tuple[np.ndarray, np.ndarray] | None:
        rows = self._rows.get(technique)
        if rows is None or len(rows) < self.MIN_FIT:
            return None
        if technique in self._stale or technique not in self._coef:
            X = np.asarray(rows, dtype=np.float64)
            ce, *_ = np.linalg.lstsq(
                X, np.asarray(self._err[technique]), rcond=None
            )
            cs, *_ = np.linalg.lstsq(
                X, np.asarray(self._spd[technique]), rcond=None
            )
            self._coef[technique] = (ce, cs)
            self._stale.discard(technique)
        return self._coef[technique]

    def predict(self, point: SweepPoint) -> tuple[float, float] | None:
        """Predicted ``(error, speedup)``, or None below :data:`MIN_FIT`."""
        model = self._model(point.technique)
        if model is None:
            return None
        x = np.asarray(point_features(point), dtype=np.float64)
        return float(x @ model[0]), float(x @ model[1])

    def score(self, point: SweepPoint, bound: float = DEFAULT_QOI_BOUND) -> float:
        """Paper-style desirability: predicted speedup when predicted under
        the bound, else the (negative) predicted excess error.  Unfitted
        techniques score a neutral 0.0, leaving input order untouched."""
        pred = self.predict(point)
        if pred is None:
            return 0.0
        err, spd = pred
        return spd if err <= bound else -(err - bound)

    def order(
        self,
        points: list[SweepPoint],
        bound: float = DEFAULT_QOI_BOUND,
        prune_weight: Callable[[SweepPoint], float] | None = None,
    ) -> list[SweepPoint]:
        """Stable descending-desirability ordering of ``points``.

        ``prune_weight`` adds a bonus for points the surrogate expects to
        *violate* the bound (likely pruning roots): evaluating them early
        confirms the violation and releases their subtree sooner."""
        def key(pt: SweepPoint) -> float:
            s = self.score(pt, bound)
            if prune_weight is not None and s < 0.0:
                s += prune_weight(pt)
            return -s

        return sorted(points, key=key)  # stable: ties keep input order


# ---------------------------------------------------------------------------
# Variant cache
# ---------------------------------------------------------------------------
class VariantCache:
    """Content-hash record cache keyed on the fully lowered configuration.

    The key digests everything that determines a deterministic simulation's
    record — app, resolved device name, problem override fingerprint, seed,
    the point label (technique + params + level + items-per-thread), the
    site override, and the sanitize flag — so a hit is byte-exact by
    construction.  Shared across engines, figures, and campaigns; pass a
    ``path`` to persist (JSONL: one ``{"key", "record"}`` object per line).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, RunRecord] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if self.path is not None and self.path.exists():
            self.load(self.path)

    @staticmethod
    def key_for(
        app: str,
        device: str | DeviceSpec,
        point: SweepPoint,
        *,
        site: str | None = None,
        seed: int = 2023,
        problem: dict | None = None,
        sanitize: bool = False,
    ) -> str:
        """Stable digest of one lowered configuration."""
        payload = {
            "app": app,
            "device": get_device(device).name,
            "point": point.label(),
            "site": site,
            "seed": int(seed),
            "problem": repr(sorted(problem.items())) if problem else "",
            "sanitize": bool(sanitize),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def get(self, key: str) -> RunRecord | None:
        rec = self._records.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: str, record: RunRecord) -> None:
        if key not in self._records:
            self.stores += 1
        self._records[key] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached record to ``path`` (default: the load path)."""
        dest = Path(path) if path is not None else self.path
        if dest is None:
            raise ValueError("VariantCache.save: no path given or configured")
        if dest.parent != Path(""):
            dest.parent.mkdir(parents=True, exist_ok=True)
        with dest.open("w") as fh:
            for key, rec in self._records.items():
                fh.write(
                    json.dumps(
                        {"key": key, "record": _encode(rec.to_dict())},
                        allow_nan=False,
                    )
                    + "\n"
                )
        return dest

    def load(self, path: str | Path) -> int:
        """Merge records from ``path``; returns how many were loaded."""
        n = 0
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = RunRecord(**_decode(obj["record"]))
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # torn line: the variant just re-simulates
            self._records[obj["key"]] = rec
            n += 1
        return n


def resolve_variant_cache(value) -> "VariantCache | None":
    """Normalize a ``SweepConfig.variant_cache`` value to an instance."""
    if value is None:
        return None
    if isinstance(value, VariantCache):
        return value
    return VariantCache(value)


# ---------------------------------------------------------------------------
# Pruned checkpoint rows
# ---------------------------------------------------------------------------
def pruned_record(
    app: str,
    device_name: str,
    point: SweepPoint,
    ancestor: str,
    ancestor_error: float,
    bound: float,
) -> RunRecord:
    """The checkpoint row recorded for a lattice-pruned point.

    Shaped exactly like a preflight ``infeasible`` row — ``feasible=False``
    with a provenance note — so checkpoint resume, merge, and every
    :class:`ResultsDB` query treat it as just another row; the pruning
    ancestor's label rides in both the note and ``extra["pruned_by"]``."""
    return RunRecord(
        app=app,
        device=device_name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=(
            f"{PRUNED_NOTE_PREFIX} ancestor {ancestor} "
            f"error {ancestor_error:.6g} > bound {bound:g}"
        ),
        extra={
            "pruned_by": ancestor,
            "ancestor_error": ancestor_error,
            "qoi_bound": bound,
        },
    )


def is_pruned_record(record: RunRecord) -> bool:
    """True for rows written by :func:`pruned_record`."""
    return not record.feasible and (record.note or "").startswith(
        PRUNED_NOTE_PREFIX
    )


def _violates(record: RunRecord, bound: float) -> bool:
    """A feasible record whose error exceeds the QoI bound (non-finite
    errors count: a diverged run certainly violates)."""
    return bool(record.feasible) and not (float(record.error) <= bound)


# ---------------------------------------------------------------------------
# Dependency state of a pruned sweep
# ---------------------------------------------------------------------------
class DataflowScheduler:
    """Which points of a pruned sweep are decided, ready, running or held.

    A point *resolves* once every lattice ancestor is decided: if any
    ancestor violates the bound it is decided on the spot as the
    :func:`pruned_record` naming the least aggressive violator (the
    subtree's original root); otherwise it joins :attr:`ready`, or takes
    the record a speculative run already returned.  Because a point's
    fate depends only on its ancestors' final records, never on the order
    they arrived in, the decided records are the same at any worker count
    and under any interleaving of completions.

    :meth:`speculate` hands out an unresolved point for a worker that
    would otherwise idle; its result is held until the point resolves and
    discarded (counted in :attr:`discarded`) if an ancestor violates.
    ``likely_violates`` (e.g. the surrogate's prediction) steers
    speculation away from points below an ancestor expected to violate;
    it affects only which work runs early, never a decided record.
    """

    def __init__(
        self,
        lattice: SweepLattice,
        app: str,
        device_name: str,
        bound: float,
        decided: dict[str, RunRecord],
        likely_violates: Callable[[SweepPoint], bool] | None = None,
    ) -> None:
        self.lattice = lattice
        self.bound = bound
        self._likely_violates = likely_violates
        self._app = app
        self._dev = device_name
        #: label -> final record (resumed rows included).
        self.decided = decided
        #: Resolved points awaiting dispatch, in dispatch order.
        self.ready: list[SweepPoint] = []
        #: True when points joined :attr:`ready` since :meth:`order_ready`.
        self.ready_changed = False
        #: (point, record) decided by this sweep, in decision order; the
        #: driver drains it into the checkpoint.
        self.fresh: list[tuple[SweepPoint, RunRecord]] = []
        self.evaluated = self.preflight_pruned = 0
        self.lattice_pruned = self.discarded = 0
        #: Lattice levels holding a point decided by this sweep.
        self.levels: set[int] = set()
        self._running: set[str] = set()
        self._held: dict[str, tuple[RunRecord, str]] = {}
        self._open = [pt for pt in lattice.points if pt.label() not in decided]
        self._waiting = {
            pt.label(): sum(
                1 for a in lattice.ancestors(pt) if a.label() not in decided
            )
            for pt in self._open
        }
        # Snapshot first: resolving one point can prune (and so resolve)
        # descendants whose count only now reached zero.
        for pt in [p for p in self._open if self._waiting[p.label()] == 0]:
            self._resolve(pt)

    @property
    def done(self) -> bool:
        return len(self.decided) >= len(self.lattice)

    def order_ready(self, order: Callable[[list], list]) -> None:
        """Re-rank :attr:`ready` with ``order`` (a permutation of it)."""
        self.ready = order(self.ready)
        self.ready_changed = False

    def take(self, n: int) -> list[SweepPoint]:
        """Pop the first ``n`` ready points for dispatch."""
        out, self.ready = self.ready[:n], self.ready[n:]
        self._running.update(pt.label() for pt in out)
        return out

    def speculate(self) -> SweepPoint | None:
        """An unresolved point to run ahead of its ancestors — the one with
        the fewest undecided ancestors, then input order — or None."""
        self._open = [pt for pt in self._open if pt.label() not in self.decided]
        best = None
        for pt in self._open:
            label = pt.label()
            waiting = self._waiting[label]
            if (
                waiting == 0
                or label in self._running
                or label in self._held
                or (best is not None and waiting >= best[0])
                or self._violator(pt) is not None
                or self._risky(pt)
            ):
                continue
            best = (waiting, pt)
        if best is None:
            return None
        self._running.add(best[1].label())
        return best[1]

    def complete(self, point: SweepPoint, record: RunRecord, origin: str) -> None:
        """Absorb a dispatched point's record (``origin`` as reported by
        :class:`~repro.harness.batch.Completion`)."""
        label = point.label()
        self._running.discard(label)
        if label in self.decided:
            # Pruned while its speculative run was in flight.
            self.discarded += origin == "run"
        elif self._waiting[label] == 0:
            self._accept(point, record, origin)
        else:
            self._held[label] = (record, origin)

    # -- internals ------------------------------------------------------
    def _risky(self, point: SweepPoint) -> bool:
        """An undecided ancestor is expected to violate the bound."""
        return self._likely_violates is not None and any(
            a.label() not in self.decided and self._likely_violates(a)
            for a in self.lattice.ancestors(point)
        )

    def _violator(self, point: SweepPoint) -> SweepPoint | None:
        """The least aggressive decided ancestor violating the bound."""
        violators = [
            a for a in self.lattice.ancestors(point)
            if a.label() in self.decided
            and _violates(self.decided[a.label()], self.bound)
        ]
        if not violators:
            return None
        return min(violators, key=lambda a: (self.lattice.vector(a), a.label()))

    def _resolve(self, point: SweepPoint) -> None:
        label = point.label()
        root = self._violator(point)
        if root is not None:
            held = self._held.pop(label, None)
            if held is not None:
                self.discarded += held[1] == "run"
            self.lattice_pruned += 1
            self._decide(
                point,
                pruned_record(
                    self._app, self._dev, point, root.label(),
                    float(self.decided[root.label()].error), self.bound,
                ),
            )
        elif label in self._held:
            self._accept(point, *self._held.pop(label))
        elif label not in self._running:
            self.ready.append(point)
            self.ready_changed = True

    def _accept(self, point: SweepPoint, record: RunRecord, origin: str) -> None:
        self.evaluated += origin == "run"
        self.preflight_pruned += origin == "preflight"
        self._decide(point, record)

    def _decide(self, point: SweepPoint, record: RunRecord) -> None:
        self.decided[point.label()] = record
        self.fresh.append((point, record))
        self.levels.add(self.lattice.depth(point))
        for d in self.lattice.descendants(point):
            label = d.label()
            if label in self._waiting and label not in self.decided:
                self._waiting[label] -= 1
                if self._waiting[label] == 0:
                    self._resolve(d)


# ---------------------------------------------------------------------------
# The pruned sweep driver
# ---------------------------------------------------------------------------
def run_sweep_pruned(
    app: str,
    device: str | DeviceSpec,
    points: list[SweepPoint],
    *,
    site: str | None = None,
    problems: dict | None = None,
    seed: int = 2023,
    config: SweepConfig | None = None,
    engine=None,
):
    """Execute ``points`` with lattice pruning (and optional surrogate
    ordering); returns the same :class:`~repro.harness.executor.SweepReport`
    shape as :func:`~repro.harness.executor.run_sweep_parallel`.

    Dispatch is dependency-driven (:class:`DataflowScheduler`) over one
    completion-order :class:`~repro.harness.batch.EngineStream` on a
    :class:`~repro.harness.batch.BatchEngine`: a point is submitted as soon
    as every lattice ancestor is decided — or recorded as a ``pruned`` row
    right away when one violates the bound — ready points are ordered by
    the surrogate (or the ``config.order`` callable), and chunks are sized
    to spread the ready points over the idle workers.  A worker that would
    otherwise idle runs an undecided point speculatively; if an ancestor
    then violates, that record is replaced by the ``pruned`` row and
    counted in ``extra["speculative_discarded"]``, never in ``evaluated``.
    Records are byte-identical to the unpruned sweep's for every point
    evaluated, and identical at any worker count.

    ``config.checkpoint`` is managed *here* (loaded once for resume, each
    decided row appended as it is decided — in completion order when
    ``workers > 1``); the stream runs with the checkpoint stripped so it
    neither resumes nor writes rows on its own.  ``extra["waves"]`` counts
    the lattice levels this call resolved.
    """
    from repro.harness.batch import BatchEngine, BatchJob
    from repro.harness.executor import SweepReport

    cfg = config if config is not None else SweepConfig(prune=True)
    bound = DEFAULT_QOI_BOUND if cfg.prune is True else float(cfg.prune)
    dev_name = get_device(device).name
    t0 = time.monotonic()

    unique: "OrderedDict[str, SweepPoint]" = OrderedDict()
    for pt in points:
        unique.setdefault(pt.label(), pt)
    lattice = SweepLattice(unique.values())

    # Resume: checkpoint rows (evaluated, preflight, and prior pruned rows
    # alike) are trusted decisions.
    decided: dict[str, RunRecord] = {}
    if cfg.checkpoint is not None and Path(cfg.checkpoint).exists():
        for rec in ResultsDB.load(cfg.checkpoint).query(feasible=None):
            if rec.app != app or rec.device != dev_name:
                continue
            label = SweepPoint.of_record(rec).label()
            if label in unique:
                decided[label] = rec
    skipped = len(decided)

    writer = (
        CheckpointWriter(cfg.checkpoint) if cfg.checkpoint is not None else None
    )
    progress = progress_callback(cfg.progress)
    # The stream runs without the checkpoint and progress (both managed
    # here) and without prune / order (this driver is both).
    stream_cfg = cfg.replace(
        checkpoint=None, prune=False, order=False, progress=False
    )
    owned = engine is None
    if owned:
        engine = BatchEngine(problems=problems, seed=seed, config=stream_cfg)
    variant_hits0 = engine.stats.variant_hits

    surrogate: Surrogate | None = None
    if cfg.order and not callable(cfg.order):
        surrogate = Surrogate()
        surrogate.observe_records(decided.values())

    def order(ready: list[SweepPoint]) -> list[SweepPoint]:
        if callable(cfg.order):
            jobs = cfg.order([BatchJob(app, device, pt, site=site) for pt in ready])
            return [job.point for job in jobs]
        return surrogate.order(
            ready,
            bound=bound,
            prune_weight=lambda p: 0.1 * len(lattice.descendants(p)),
        )

    sched = DataflowScheduler(
        lattice, app, dev_name, bound, decided,
        likely_violates=(
            (lambda pt: surrogate.score(pt, bound) < 0.0)
            if surrogate is not None else None
        ),
    )
    total = len(unique) - skipped
    feasible = 0

    def flush() -> None:
        nonlocal feasible
        fresh, sched.fresh = sched.fresh, []
        if not fresh:
            return
        if writer is not None:
            writer.write([rec for _pt, rec in fresh])
        for pt, rec in fresh:
            feasible += rec.feasible
            if surrogate is not None:
                surrogate.observe(pt, rec)
        if progress is not None:
            done = len(decided) - skipped
            progress(SweepProgress(
                total=total, done=done, feasible=feasible,
                infeasible=done - feasible, skipped=skipped,
                elapsed=time.monotonic() - t0,
            ))

    stream = engine.open_stream(config=stream_cfg, completion_order=True)
    inflight: dict[int, SweepPoint] = {}
    group = (app, dev_name)
    try:
        while True:
            flush()
            while not sched.done and stream.inflight < stream.capacity:
                if sched.ready:
                    if cfg.order and sched.ready_changed:
                        sched.order_ready(order)
                    batch = sched.take(stream.chunk_size(len(sched.ready), group))
                else:
                    spec = sched.speculate()
                    if spec is None:
                        break
                    batch = [spec]
                tickets = stream.put_chunk(
                    [BatchJob(app, device, pt, site=site) for pt in batch]
                )
                inflight.update(zip(tickets, batch))
            # Once every point is decided, whatever is still in flight is a
            # speculative run of a pruned point: drained here, it counts as
            # discarded.
            done = stream.next_completed()
            if done is None:
                if sched.done:
                    break
                raise RuntimeError(  # pragma: no cover - lattices are acyclic
                    "pruned sweep stalled: no ready points"
                )
            while done is not None:
                sched.complete(inflight.pop(done.ticket), done.record, done.origin)
                done = stream.next_completed() if stream.settled else None
    finally:
        stream.close()
        if writer is not None:
            writer.close()
        variant_hits = engine.stats.variant_hits - variant_hits0
        if owned:
            engine.close()

    return SweepReport(
        records=[decided[pt.label()] for pt in points],
        evaluated=sched.evaluated,
        skipped=skipped,
        pruned=sched.preflight_pruned,
        elapsed=time.monotonic() - t0,
        checkpoint=(
            str(cfg.checkpoint) if cfg.checkpoint is not None else None
        ),
        extra={
            "lattice_pruned": sched.lattice_pruned,
            "waves": len(sched.levels),
            "speculative_discarded": sched.discarded,
            "qoi_bound": bound,
            "ordered": bool(cfg.order),
            "variant_hits": variant_hits,
            "surrogate_observations": (
                surrogate.observed if surrogate is not None else 0
            ),
        },
    )
