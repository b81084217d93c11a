"""LavaMD benchmark tests."""

import numpy as np
import pytest

from repro.apps.lavamd import LavaMD
from repro.harness.metrics import mape

SMALL = {"boxes_per_dim": 2, "particles_per_box": 32, "time_steps": 12}


def einsum_pair_contrib(pos_home, q_home, pos_nb, q_nb, alpha):
    """The einsum formulation ``LavaMD._pair_contrib`` must match bit for bit."""
    dr = pos_nb[:, None, :, :] - pos_home[:, :, None, :]  # (B, P, P, 3)
    r2 = np.einsum("bijk,bijk->bij", dr, dr)
    w = q_nb[:, None, :] * np.exp(-alpha * r2)
    pot = w.sum(axis=2)
    force = np.einsum("bij,bijk->bik", w, dr)
    return np.concatenate([force, pot[..., None]], axis=2)  # (B, P, 4)


@pytest.fixture(scope="module")
def app():
    a = LavaMD(problem=SMALL)
    a.default_num_threads = 32
    return a


@pytest.fixture(scope="module")
def baseline(app):
    return app.run("v100_small", items_per_thread=1)


class TestPhysics:
    def test_pair_contrib_symmetry(self):
        # A particle's contribution from its own box includes self-terms;
        # potential is positive for positive charges.
        rng = np.random.default_rng(0)
        pos = rng.random((1, 8, 3))
        q = np.ones((1, 8))
        c = LavaMD._pair_contrib(pos, q, pos, q, alpha=2.0)
        assert (c[0, :, 3] > 0).all()

    def test_pair_forces_are_antisymmetric(self):
        # Unit charges make the pair weight symmetric, so box A's summed
        # force on box B is minus B's on A, and the potentials agree.
        rng = np.random.default_rng(2)
        a = rng.random((1, 16, 3))
        b = rng.random((1, 16, 3)) + np.array([1.0, 0.0, 1.0])
        q = np.ones((1, 16))
        on_b = LavaMD._pair_contrib(b, q, a, q, 2.0)[0].sum(axis=0)
        on_a = LavaMD._pair_contrib(a, q, b, q, 2.0)[0].sum(axis=0)
        assert np.abs(on_a[:3]).max() > 0
        assert np.allclose(on_b[:3], -on_a[:3])
        assert np.isclose(on_b[3], on_a[3])

    def test_far_boxes_contribute_less(self):
        rng = np.random.default_rng(1)
        home = rng.random((1, 16, 3))
        near = rng.random((1, 16, 3)) + np.array([1.0, 0, 0])
        far = rng.random((1, 16, 3)) + np.array([1.0, 1.0, 1.0])
        q = np.ones((1, 16))
        c_near = LavaMD._pair_contrib(home, q, near, q, 2.0)[0, :, 3].mean()
        c_far = LavaMD._pair_contrib(home, q, far, q, 2.0)[0, :, 3].mean()
        assert c_far < c_near

    def test_qoi_layout(self, app, baseline):
        n = 8 * 32  # boxes x particles
        assert len(baseline.qoi) == 5 * n  # |F|, potential, 3 position comps

    def test_forces_nonzero(self, baseline):
        n = 8 * 32
        assert baseline.qoi[:n].max() > 0


class TestPairKernelBytes:
    """``_pair_contrib`` reproduces the einsum formulation byte for byte.

    P covers numpy's pairwise-sum paths (the plain loop below 8, the
    8-way unrolled loop with and without a remainder); B crosses the
    home-box blocking boundaries."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("ppb", [1, 7, 8, 13, 64, 65])
    def test_matches_einsum_bytes(self, ppb, alpha):
        rng = np.random.default_rng([ppb, int(alpha * 10)])
        for nb in sorted({1, 27, *rng.integers(1, 28, size=3).tolist()}):
            corner = rng.integers(0, 3, size=(nb, 1, 3))
            home = corner + rng.random((nb, ppb, 3))
            shift = rng.integers(-1, 2, size=(nb, 1, 3))  # a neighbour box
            pos_nb = corner + shift + rng.random((nb, ppb, 3))
            q_home = 0.1 + 1.9 * rng.random((nb, ppb))
            q_nb = 0.1 + 1.9 * rng.random((nb, ppb))
            got = LavaMD._pair_contrib(home, q_home, pos_nb, q_nb, alpha)
            want = einsum_pair_contrib(home, q_home, pos_nb, q_nb, alpha)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (nb, ppb, alpha)


class TestApproximation:
    def test_taf_speedup_low_error(self, app, baseline):
        """Fig 11a: ~3× speedup at ~0.1% error."""
        regs = app.build_regions("taf", hsize=2, psize=4, threshold=0.05)
        res = app.run("v100_small", regs, items_per_thread=1)
        assert baseline.seconds / res.seconds > 1.5
        assert mape(baseline.qoi, res.qoi) < 0.10

    def test_iact_slows_down_with_low_error(self, app, baseline):
        """Fig 11b: iACT's scan costs more than a cheap pair loop saves."""
        regs = app.build_regions("iact", tsize=8, threshold=0.3, tperwarp=1)
        res = app.run("v100_small", regs, items_per_thread=1)
        assert res.seconds > baseline.seconds * 0.98
        assert mape(baseline.qoi, res.qoi) < 0.10

    def test_warp_level_beats_thread_level_in_transition(self, app, baseline):
        """Fig 11c: warp decisions remove divergence at thresholds where
        per-particle stability straddles the criterion."""
        speeds = {}
        for level in ("thread", "warp"):
            regs = app.build_regions(
                "taf", level=level, hsize=2, psize=4, threshold=0.009
            )
            res = app.run("v100_small", regs, items_per_thread=1)
            speeds[level] = baseline.seconds / res.seconds
        assert speeds["warp"] >= speeds["thread"] * 0.98

    def test_forced_lanes_counted_at_warp_level(self, app):
        regs = app.build_regions("taf", level="warp", hsize=2, psize=4, threshold=0.009)
        res = app.run("v100_small", regs, items_per_thread=1)
        stats = res.region_stats["neighbor_force"]
        assert stats["forced"] + stats["denied"] >= 0  # bookkeeping present

    def test_psize_increases_approximation(self, app):
        fracs = []
        for ps in (2, 6):
            regs = app.build_regions("taf", hsize=2, psize=ps, threshold=0.05)
            res = app.run("v100_small", regs, items_per_thread=1)
            fracs.append(res.region_stats["neighbor_force"]["approx_fraction"])
        assert fracs[1] > fracs[0]
