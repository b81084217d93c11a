"""Lattice-pruned sweep tests.

The acceptance bar from the issue: on a Table-2-style sub-grid the pruned
sweep must evaluate at most 60% of the full sweep's points, every record
it *does* evaluate must be byte-identical to the unpruned run, and every
point it skips must appear as a checkpoint row naming its pruning
ancestor.  On top of that: checkpoint resume over pruned rows, surrogate
ordering determinism at any worker count, and variant-cache hit
accounting.
"""

import json

import numpy as np
import pytest

from repro.harness.batch import BatchEngine, BatchJob
from repro.harness.config import SweepConfig
from repro.harness.database import ResultsDB, dumps_record, record_status
from repro.harness.executor import run_sweep_parallel
from repro.harness.pruning import (
    DEFAULT_QOI_BOUND,
    Surrogate,
    SweepLattice,
    VariantCache,
    aggression_axes,
    aggression_vector,
    is_pruned_record,
    pruned_record,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {"kmeans": {"num_obs": 2048, "max_iters": 8}}


def _label(rec):
    return SweepPoint.of_record(rec).label()


def taf_grid():
    """32-point kmeans TAF sub-grid spanning benign-to-aggressive."""
    return [
        SweepPoint("taf", {"hsize": h, "psize": ps, "threshold": t}, level=lvl)
        for h in (1, 2)
        for ps in (4, 8)
        for t in (0.3, 0.9, 3.0, 20.0)
        for lvl in ("thread", "warp")
    ]


@pytest.fixture(scope="module")
def grid():
    return taf_grid()


@pytest.fixture(scope="module")
def full_report(grid):
    """Unpruned serial reference sweep (shared across tests)."""
    return run_sweep_parallel(
        "kmeans", "v100_small", grid, problems=PROBLEMS,
        config=SweepConfig(),
    )


@pytest.fixture(scope="module")
def pruned_report(grid):
    return run_sweep_parallel(
        "kmeans", "v100_small", grid, problems=PROBLEMS,
        config=SweepConfig(prune=0.10, order=True),
    )


class TestLattice:
    def test_axes_directions(self):
        taf = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.5})
        assert aggression_axes(taf) == [("threshold", 1)]
        small = SweepPoint("perfo", {"kind": "small", "skip": 4})
        assert aggression_axes(small) == [("skip", -1)]
        large = SweepPoint("perfo", {"kind": "large", "skip": 4})
        assert aggression_axes(large) == [("skip", 1)]
        ini = SweepPoint("perfo", {"kind": "ini", "skip_percent": 20})
        assert aggression_axes(ini) == [("skip_percent", 1)]

    def test_vector_orders_aggressiveness(self):
        mild = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3})
        harsh = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 3.0})
        vm, vh = aggression_vector(mild), aggression_vector(harsh)
        assert vm is not None and vh is not None
        assert all(a <= b for a, b in zip(vm, vh)) and vm != vh

    def test_small_perfo_skip_direction(self):
        # skip-1-of-2 drops half the iterations; skip-1-of-8 drops 1/8 —
        # the smaller skip value is the MORE aggressive point.
        s2 = SweepPoint("perfo", {"kind": "small", "skip": 2})
        s8 = SweepPoint("perfo", {"kind": "small", "skip": 8})
        v2, v8 = aggression_vector(s2), aggression_vector(s8)
        assert all(a >= b for a, b in zip(v2, v8))

    def test_level_in_vector(self):
        params = {"hsize": 1, "psize": 4, "threshold": 1.0}
        t = SweepPoint("taf", params, level="thread")
        w = SweepPoint("taf", params, level="warp")
        vt, vw = aggression_vector(t), aggression_vector(w)
        assert vt[-1] < vw[-1]

    def test_descendants_within_group_only(self, grid):
        lat = SweepLattice(grid)
        root = next(pt for pt in grid if not lat.ancestors(pt))
        # Ancestry is symmetric: every descendant of a root sees that root
        # among its ancestors, and never crosses base-key groups.
        descendants = lat.descendants(root)
        assert descendants
        for d in descendants:
            assert root.label() in {a.label() for a in lat.ancestors(d)}

    def test_roots_count(self, grid):
        lat = SweepLattice(grid)
        # With level in the aggression vector the threshold x level plane is
        # ordered per (hsize, psize) group: 2*2 groups, least point of each.
        assert len(lat.roots()) == 4

    def test_unordered_points_isolated(self):
        pts = [SweepPoint("sc", {"rate": r}) for r in (1, 2)]
        lat = SweepLattice(pts)
        for p in pts:
            assert not lat.ancestors(p)
            assert not lat.descendants(p)


class TestPrunedSweepEquivalence:
    def test_evaluates_at_most_60_percent(self, full_report, pruned_report):
        assert pruned_report.evaluated <= 0.60 * full_report.evaluated

    def test_survivors_byte_identical(self, full_report, pruned_report):
        full = {_label(r): dumps_record(r) for r in full_report.records}
        for rec in pruned_report.records:
            if is_pruned_record(rec):
                continue
            assert dumps_record(rec) == full[_label(rec)]

    def test_pruned_rows_name_real_ancestors(self, grid, pruned_report):
        labels = {p.label() for p in grid}
        evaluated = {
            _label(r) for r in pruned_report.records
            if not is_pruned_record(r)
        }
        pruned = [r for r in pruned_report.records if is_pruned_record(r)]
        assert pruned, "bound 0.10 must prune something on this grid"
        for rec in pruned:
            anc = rec.extra["pruned_by"]
            assert anc in labels and anc in evaluated
            assert rec.extra["ancestor_error"] > rec.extra["qoi_bound"]
            assert not rec.feasible
            assert record_status(rec) == "pruned"

    def test_pruned_ancestor_actually_violates(self, full_report, pruned_report):
        by_label = {_label(r): r for r in full_report.records}
        for rec in pruned_report.records:
            if is_pruned_record(rec):
                anc = by_label[rec.extra["pruned_by"]]
                assert anc.feasible and anc.error > 0.10

    def test_report_extra_accounting(self, grid, pruned_report):
        extra = pruned_report.extra
        assert extra["qoi_bound"] == 0.10
        assert extra["lattice_pruned"] == sum(
            1 for r in pruned_report.records if is_pruned_record(r)
        )
        assert pruned_report.evaluated + extra["lattice_pruned"] == len(grid)
        assert extra["waves"] >= 1 and extra["ordered"]

    def test_records_in_input_order(self, grid, pruned_report):
        assert [_label(r) for r in pruned_report.records] == [
            p.label() for p in grid
        ]

    def test_prune_true_uses_default_bound(self, grid):
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid[:4], problems=PROBLEMS,
            config=SweepConfig(prune=True),
        )
        assert rep.extra["qoi_bound"] == DEFAULT_QOI_BOUND

    def test_prune_rejects_custom_factory(self, grid):
        with pytest.raises(ValueError, match="stock runner"):
            run_sweep_parallel(
                "kmeans", "v100_small", grid[:2], problems=PROBLEMS,
                config=SweepConfig(prune=0.1),
                runner_factory=ExperimentRunner,
            )


class TestPrunedCheckpointResume:
    def test_resume_skips_everything(self, grid, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        cfg = SweepConfig(prune=0.10, checkpoint=ck)
        r1 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        r2 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        assert r2.evaluated == 0 and r2.skipped == len(grid)
        assert [dumps_record(a) for a in r1.records] == [
            dumps_record(b) for b in r2.records
        ]

    def test_partial_resume_preserves_pruned_rows(self, grid, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        cfg = SweepConfig(prune=0.10, checkpoint=ck)
        half = grid[: len(grid) // 2]
        run_sweep_parallel("kmeans", "v100_small", half,
                           problems=PROBLEMS, config=cfg)
        mid = ResultsDB.load(ck)
        r2 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        db = ResultsDB.load(ck)
        # Every row from the first run is trusted verbatim by the second.
        final = {_label(r): dumps_record(r) for r in
                 db.query(feasible=None)}
        for rec in mid.query(feasible=None):
            assert final[_label(rec)] == dumps_record(rec)
        assert {_label(r) for r in r2.records} == {
            p.label() for p in grid
        }
        assert db.status_counts()["pruned"] == sum(
            1 for r in r2.records if is_pruned_record(r)
        )

    def test_matches_uncheckpointed_run(self, grid, tmp_path, pruned_report):
        ck = str(tmp_path / "ck.jsonl")
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid, problems=PROBLEMS,
            config=SweepConfig(prune=0.10, order=True, checkpoint=ck),
        )
        assert [dumps_record(a) for a in rep.records] == [
            dumps_record(b) for b in pruned_report.records
        ]


class TestOrderingDeterminism:
    def test_worker_count_invariance(self, grid, pruned_report):
        for workers in (2, 3):
            rep = run_sweep_parallel(
                "kmeans", "v100_small", grid, problems=PROBLEMS,
                config=SweepConfig(prune=0.10, order=True, workers=workers),
            )
            assert [dumps_record(a) for a in rep.records] == [
                dumps_record(b) for b in pruned_report.records
            ]

    def test_order_without_prune_identical_records(self, grid, full_report):
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid, problems=PROBLEMS,
            config=SweepConfig(order=True, workers=2),
        )
        assert [dumps_record(a) for a in rep.records] == [
            dumps_record(b) for b in full_report.records
        ]

    def test_callable_order_must_be_permutation(self, grid):
        with pytest.raises(ValueError, match="permutation"):
            run_sweep_parallel(
                "kmeans", "v100_small", grid[:4], problems=PROBLEMS,
                config=SweepConfig(order=lambda jobs: jobs[:-1]),
            )

    def test_callable_order_applied(self, grid, full_report):
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid, problems=PROBLEMS,
            config=SweepConfig(order=lambda jobs: list(reversed(jobs))),
        )
        assert [dumps_record(a) for a in rep.records] == [
            dumps_record(b) for b in full_report.records
        ]


class TestSurrogate:
    def test_needs_min_fit(self):
        s = Surrogate()
        pt = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 1.0})
        assert s.predict(pt) is None

    def test_learns_monotone_threshold_trend(self, grid, full_report):
        s = Surrogate()
        n = s.observe_records(full_report.records)
        assert n == len(grid)
        mild = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3},
                          level="thread")
        harsh = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 20.0},
                           level="thread")
        em, _ = s.predict(mild)
        eh, _ = s.predict(harsh)
        assert eh > em

    def test_order_is_stable_and_complete(self, grid, full_report):
        s = Surrogate()
        s.observe_records(full_report.records)
        ordered = s.order(grid, bound=0.10)
        assert sorted(p.label() for p in ordered) == sorted(
            p.label() for p in grid
        )
        assert [p.label() for p in s.order(grid, bound=0.10)] == [
            p.label() for p in ordered
        ]

    def test_infeasible_observations_ignored(self):
        s = Surrogate()
        pt = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 1.0})
        rec = pruned_record("kmeans", "v100", pt, ancestor=pt,
                            ancestor_error=0.5, bound=0.1)
        s.observe(pt, rec)
        assert s.observed == 0


class TestVariantCache:
    def test_hit_and_miss_counters(self, grid, tmp_path):
        cache = VariantCache(tmp_path / "vc.jsonl")
        sub = grid[:6]
        cfg = SweepConfig(variant_cache=cache)
        r1 = run_sweep_parallel("kmeans", "v100_small", sub,
                                problems=PROBLEMS, config=cfg)
        assert r1.evaluated == len(sub)
        assert r1.extra["variant_hits"] == 0
        assert cache.misses == len(sub) and cache.stores == len(sub)
        r2 = run_sweep_parallel("kmeans", "v100_small", sub,
                                problems=PROBLEMS, config=cfg)
        assert r2.evaluated == 0
        assert r2.extra["variant_hits"] == len(sub)
        assert cache.hits == len(sub)
        assert [dumps_record(a) for a in r1.records] == [
            dumps_record(b) for b in r2.records
        ]

    def test_persistence_round_trip(self, grid, tmp_path):
        path = tmp_path / "vc.jsonl"
        cache = VariantCache(path)
        sub = grid[:4]
        run_sweep_parallel("kmeans", "v100_small", sub, problems=PROBLEMS,
                           config=SweepConfig(variant_cache=cache))
        cache.save()
        reloaded = VariantCache(path)
        assert len(reloaded) == len(sub)
        rep = run_sweep_parallel("kmeans", "v100_small", sub,
                                 problems=PROBLEMS,
                                 config=SweepConfig(variant_cache=reloaded))
        assert rep.evaluated == 0 and rep.extra["variant_hits"] == len(sub)

    def test_key_sensitive_to_inputs(self, grid):
        pt = grid[0]
        base = VariantCache.key_for("kmeans", "v100_small", pt, site=None,
                                    seed=2023, problem=None, sanitize=False)
        assert base != VariantCache.key_for(
            "kmeans", "v100_small", pt, site=None, seed=7, problem=None,
            sanitize=False)
        assert base != VariantCache.key_for(
            "lulesh", "v100_small", pt, site=None, seed=2023, problem=None,
            sanitize=False)
        assert base != VariantCache.key_for(
            "kmeans", "v100_small", grid[1], site=None, seed=2023,
            problem=None, sanitize=False)
        assert base == VariantCache.key_for(
            "kmeans", "v100_small", pt, site=None, seed=2023, problem=None,
            sanitize=False)

    def test_stream_session_consults_cache(self, grid):
        vc = VariantCache()
        pt = grid[0]
        eng = BatchEngine(
            config=SweepConfig(variant_cache=vc),
            runner=ExperimentRunner(problems=PROBLEMS),
        )
        try:
            with eng.open_stream() as s:
                s.put(BatchJob("kmeans", "v100_small", pt))
                for _ in s:
                    pass
        finally:
            eng.close()
        eng2 = BatchEngine(
            config=SweepConfig(variant_cache=vc),
            runner=ExperimentRunner(problems=PROBLEMS),
        )
        try:
            with eng2.open_stream() as s:
                s.put(BatchJob("kmeans", "v100_small", pt))
                recs = [r for _, r in s]
            assert eng2.stats.variant_hits == 1
            assert eng2.stats.executed == 0
            assert recs[0].feasible
        finally:
            eng2.close()

    def test_torn_cache_line_skipped(self, tmp_path, grid):
        path = tmp_path / "vc.jsonl"
        cache = VariantCache(path)
        run_sweep_parallel("kmeans", "v100_small", grid[:2],
                           problems=PROBLEMS,
                           config=SweepConfig(variant_cache=cache))
        cache.save()
        with open(path, "a") as fh:
            fh.write('{"key": "abc", "record": {tru')
        reloaded = VariantCache(path)
        assert len(reloaded) == 2


# ---------------------------------------------------------------------------
# Dependency-driven dispatch: speculation, discards, crash respawn, levels
# ---------------------------------------------------------------------------
def _fake_record(pt, error):
    from repro.harness.runner import RunRecord

    return RunRecord(
        app="kmeans", device="V100-small", technique=pt.technique,
        params=dict(pt.params), level=pt.level,
        items_per_thread=pt.items_per_thread, speedup=1.5, error=error,
    )


def _chain():
    """Three points of one lattice group: mild < mid < harsh."""
    return [
        SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": t})
        for t in (0.3, 0.9, 3.0)
    ]


class TestDataflowScheduler:
    def _sched(self, pts, bound=0.10):
        from repro.harness.pruning import DataflowScheduler

        return DataflowScheduler(
            SweepLattice(pts), "kmeans", "V100-small", bound, {}
        )

    def test_only_roots_start_ready(self):
        mild, mid, harsh = _chain()
        sched = self._sched([mild, mid, harsh])
        assert [p.label() for p in sched.ready] == [mild.label()]

    def test_descendant_finishing_first_is_still_pruned_by_ancestor(self):
        mild, mid, harsh = _chain()
        sched = self._sched([mild, mid, harsh])
        assert sched.take(1) == [mild]
        assert sched.speculate() == mid  # fewest undecided ancestors
        assert sched.speculate() == harsh
        # Both descendants return before their violating root does.
        sched.complete(harsh, _fake_record(harsh, 0.02), "run")
        sched.complete(mid, _fake_record(mid, 0.01), "run")
        assert not sched.decided  # held: ancestors undecided
        sched.complete(mild, _fake_record(mild, 0.5), "run")
        assert sched.done
        for pt in (mid, harsh):
            expected = pruned_record(
                "kmeans", "V100-small", pt, mild.label(), 0.5, 0.10
            )
            assert dumps_record(sched.decided[pt.label()]) == dumps_record(
                expected
            )
        assert sched.evaluated == 1
        assert sched.lattice_pruned == 2
        assert sched.discarded == 2

    def test_decisions_do_not_depend_on_completion_order(self):
        mild, mid, harsh = _chain()
        errors = {mild.label(): 0.01, mid.label(): 0.4, harsh.label(): 0.9}
        finals = []
        for late_first in (True, False):
            sched = self._sched([mild, mid, harsh])
            sched.take(1)
            spec = [sched.speculate(), sched.speculate()]
            arrivals = [mild] + spec
            if late_first:
                arrivals = arrivals[::-1]
            for pt in arrivals:
                sched.complete(pt, _fake_record(pt, errors[pt.label()]), "run")
            finals.append(
                {k: dumps_record(v) for k, v in sched.decided.items()}
            )
            # harsh is pruned by mid (the violating ancestor) either way.
            assert is_pruned_record(sched.decided[harsh.label()])
            assert sched.decided[harsh.label()].extra["pruned_by"] == mid.label()
            assert sched.evaluated == 2 and sched.discarded == 1
        assert finals[0] == finals[1]

    def test_no_speculation_below_a_decided_violator(self):
        pts = [
            SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": t}, lvl)
            for t in (0.3, 0.9)
            for lvl in ("thread", "warp")
        ]
        sched = self._sched(pts)
        (root,) = sched.take(1)
        sched.complete(root, _fake_record(root, 0.5), "run")
        # Every other point descends from the violating root: all pruned
        # at once, nothing left to speculate on.
        assert sched.done and sched.speculate() is None
        assert sched.lattice_pruned == 3

    def test_likely_violators_are_not_speculated_under(self):
        from repro.harness.pruning import DataflowScheduler

        mild, mid, harsh = _chain()
        sched = DataflowScheduler(
            SweepLattice([mild, mid, harsh]), "kmeans", "V100-small", 0.10,
            {}, likely_violates=lambda pt: pt.label() == mild.label(),
        )
        sched.take(1)
        assert sched.speculate() is None

    def test_resumed_violator_prunes_its_chain_once(self):
        from repro.harness.pruning import DataflowScheduler

        mild, mid, harsh = _chain()
        sched = DataflowScheduler(
            SweepLattice([mild, mid, harsh]), "kmeans", "V100-small", 0.10,
            {mild.label(): _fake_record(mild, 0.5)},
        )
        assert sched.done and not sched.ready
        assert sched.lattice_pruned == 2
        assert [pt.label() for pt, _rec in sched.fresh] == [
            mid.label(), harsh.label()
        ]

    def test_levels_count_lattice_depths(self):
        mild, mid, harsh = _chain()
        lat = SweepLattice([mild, mid, harsh])
        assert [lat.depth(p) for p in (mild, mid, harsh)] == [0, 1, 2]
        sched = self._sched([mild, mid, harsh])
        sched.complete(sched.take(1)[0], _fake_record(mild, 0.01), "run")
        sched.complete(sched.take(1)[0], _fake_record(mid, 0.01), "run")
        sched.complete(sched.take(1)[0], _fake_record(harsh, 0.01), "run")
        assert sched.levels == {0, 1, 2}


class TestDataflowDispatch:
    def _violating_pair(self, full_report):
        """A (root, child) chain plus a bound of half the root's error, so
        the root must violate it."""
        by_label = {_label(r): r for r in full_report.records}
        for h in (1, 2):
            root = SweepPoint("taf", {"hsize": h, "psize": 4, "threshold": 3.0})
            child = SweepPoint("taf", {"hsize": h, "psize": 4, "threshold": 20.0})
            err = by_label[root.label()].error
            if by_label[root.label()].feasible and err > 0:
                return root, child, err / 2
        pytest.skip("no feasible root with nonzero error on this grid")

    def test_evaluated_excludes_discarded_speculation(self, full_report):
        from repro.harness.pruning import run_sweep_pruned

        root, child, bound = self._violating_pair(full_report)
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            rep = run_sweep_pruned(
                "kmeans", "v100_small", [root, child], problems=PROBLEMS,
                config=SweepConfig(prune=bound, workers=2), engine=eng,
            )
            executed = eng.stats.executed
        # The idle worker ran the child ahead of its root; the root then
        # violated, so that run was discarded for the pruned row.
        assert rep.extra["speculative_discarded"] == 1
        assert executed == 2
        assert rep.evaluated == 1 and rep.extra["lattice_pruned"] == 1
        assert rep.records[1].extra["pruned_by"] == root.label()
        serial = run_sweep_pruned(
            "kmeans", "v100_small", [root, child], problems=PROBLEMS,
            config=SweepConfig(prune=bound),
        )
        assert serial.extra["speculative_discarded"] == 0
        assert serial.evaluated == 1
        assert [dumps_record(r) for r in rep.records] == [
            dumps_record(r) for r in serial.records
        ]

    def test_killed_worker_mid_sweep_identical_records(
        self, grid, pruned_report
    ):
        import os
        import signal

        from repro.harness.pruning import run_sweep_pruned

        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            kills = []

            def kill_once(progress):
                # After the first decisions, with chunks still in flight.
                if not kills and progress.done < progress.total:
                    kills.extend(eng.pool._executor._processes)
                    for pid in kills:
                        os.kill(pid, signal.SIGKILL)

            rep = run_sweep_pruned(
                "kmeans", "v100_small", grid, problems=PROBLEMS,
                config=SweepConfig(
                    prune=0.10, order=True, workers=2, progress=kill_once
                ),
                engine=eng,
            )
            assert kills
            assert eng.stats.pool_respawns >= 1
        assert [dumps_record(r) for r in rep.records] == [
            dumps_record(r) for r in pruned_report.records
        ]

    def test_waves_count_lattice_levels_resolved(self, grid, pruned_report):
        lat = SweepLattice(grid)
        assert pruned_report.extra["waves"] >= 1
        assert pruned_report.extra["waves"] == len({lat.depth(p) for p in grid})

    def test_parallel_checkpoint_resumes_to_same_records(
        self, grid, pruned_report, tmp_path
    ):
        ck = str(tmp_path / "ck.jsonl")
        cfg = SweepConfig(prune=0.10, order=True, workers=2, checkpoint=ck)
        first = run_sweep_parallel("kmeans", "v100_small", grid,
                                   problems=PROBLEMS, config=cfg)
        # Rows land in completion order, one per point, none discarded.
        rows = ResultsDB.load(ck).query(feasible=None)
        assert sorted(_label(r) for r in rows) == sorted(p.label() for p in grid)
        again = run_sweep_parallel("kmeans", "v100_small", grid,
                                   problems=PROBLEMS, config=cfg)
        assert again.evaluated == 0 and again.skipped == len(grid)
        assert [dumps_record(r) for r in again.records] == [
            dumps_record(r) for r in first.records
        ] == [dumps_record(r) for r in pruned_report.records]

    def test_variant_cache_serves_a_repeated_pruned_sweep(
        self, grid, pruned_report
    ):
        vc = VariantCache()
        cfg = SweepConfig(prune=0.10, order=True, workers=2, variant_cache=vc)
        first = run_sweep_parallel("kmeans", "v100_small", grid,
                                   problems=PROBLEMS, config=cfg)
        again = run_sweep_parallel("kmeans", "v100_small", grid,
                                   problems=PROBLEMS, config=cfg)
        assert again.evaluated == 0
        assert again.extra["variant_hits"] >= first.evaluated
        assert [dumps_record(r) for r in again.records] == [
            dumps_record(r) for r in pruned_report.records
        ]
