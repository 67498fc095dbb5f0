import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bridgediff import metrics
from bridgediff.metrics import diversity, energy_distance, moments
from bridgediff.seeding import rng_for


class TestDiversity:
    def test_identical_samples_zero(self):
        sets = [np.tile([1.0, -2.0], (5, 1)) for _ in range(3)]
        assert diversity(sets, k=5) == 0.0

    def test_two_scalar_samples_population_convention(self):
        # {0, 2}: population sd (divisor k) is 1.0; sample sd is sqrt(2).
        sets = [np.array([[0.0], [2.0]])]
        assert diversity(sets, k=2) == pytest.approx(1.0, abs=1e-15)
        assert diversity(sets, k=2, sample_sd=True) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_translation_invariance(self):
        rng = rng_for(51, "div")
        sets = [rng.normal(size=(5, 3)) for _ in range(4)]
        shifted = [s + np.array([10.0, -3.0, 0.5]) for s in sets]
        assert diversity(shifted, k=5) == pytest.approx(diversity(sets, k=5), abs=1e-12)

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diversity([np.zeros((4, 2))], k=5)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diversity([np.zeros((5, 2)), np.zeros((5, 3))], k=5)


class TestEnergyDistance:
    def test_identical_sets_zero(self):
        rng = rng_for(52, "ed")
        a = rng.normal(size=(40, 3))
        assert energy_distance(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = rng_for(53, "ed")
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(45, 2)) + 0.5
        assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), abs=1e-12)

    def test_rotation_invariance(self):
        rng = rng_for(54, "ed")
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2)) + np.array([1.0, -0.5])
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        assert energy_distance(a @ rot.T, b @ rot.T) == pytest.approx(
            energy_distance(a, b), abs=1e-9
        )

    def test_offset_gaussians_match_quadrature_oracle(self):
        # 1-D unit Gaussians offset by mu: the population value is
        # 2 E|X-Y| - E|X-X'| - E|Y-Y'| with each expectation an integral of
        # |z| against a normal density, evaluated here by quadrature.
        mu = 1.3

        def mean_abs_normal(mean, var):
            sd = math.sqrt(var)
            val, _ = integrate.quad(
                lambda z: abs(z) * stats.norm.pdf(z, loc=mean, scale=sd),
                mean - 12 * sd, mean + 12 * sd,
            )
            return val

        expected = 2 * mean_abs_normal(mu, 2.0) - 2 * mean_abs_normal(0.0, 2.0)

        rng = rng_for(55, "ed")
        n = 4000
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(n, 1)) + mu
        observed = energy_distance(a, b)
        assert observed == pytest.approx(expected, rel=0.08)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_zero_dimensional_samples_give_zero(self):
        assert energy_distance(np.zeros((3, 0)), np.zeros((4, 0))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((0, 2)), np.zeros((3, 2)))


def _naive_mean_distance(a, b):
    # Every pair at once: the (n, m, d) difference array the tiles avoid.
    diff = a[:, None, :] - b[None, :, :]
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=2))))


class TestTiledPairSums:
    """``_pair_distance_sum`` against an all-pairs reference, across tile
    edges (sizes 255, 256, 257 around ``_TILE``) and the ``a is b`` path."""

    SIZES = (1, 255, 256, 257, 600)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_all_pairs_reference(self, n, d):
        assert metrics._TILE == 256
        rng = rng_for(57, "tiles", n, d)
        a = rng.normal(size=(n, d))
        for m in self.SIZES:
            b = rng.normal(size=(m, d)) + 0.3
            ab = metrics._pair_distance_sum(a, b) / (n * m)
            aa = metrics._pair_distance_sum(a, a) / (n * n)
            bb = metrics._pair_distance_sum(b, b) / (m * m)
            assert ab == pytest.approx(_naive_mean_distance(a, b), rel=1e-12, abs=0)
            assert aa == pytest.approx(_naive_mean_distance(a, a), rel=1e-12, abs=0)
            assert bb == pytest.approx(_naive_mean_distance(b, b), rel=1e-12, abs=0)
            naive_ed = (2.0 * _naive_mean_distance(a, b) - _naive_mean_distance(a, a)
                        - _naive_mean_distance(b, b))
            assert energy_distance(a, b) == pytest.approx(naive_ed, rel=0, abs=1e-12 * ab)

    @pytest.mark.parametrize("n", SIZES)
    def test_same_set_visits_half_the_tiles(self, n):
        # ``a is b`` sums the upper tiles twice; a copy sums every tile.
        a = rng_for(58, "tiles", n).normal(size=(n, 2))
        assert metrics._pair_distance_sum(a, a) == pytest.approx(
            metrics._pair_distance_sum(a, a.copy()), rel=1e-12, abs=0
        )
        assert energy_distance(a, a) == 0.0

    def test_memory_does_not_grow_with_set_size(self):
        rng = rng_for(59, "tiles")
        a = rng.normal(size=(3000, 2))
        peaks = []
        for m in (3000, 12000):
            b = rng.normal(size=(m, 2))
            tracemalloc.start()
            try:
                energy_distance(a, b)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8e6
        assert peaks[1] <= peaks[0] + 65536


class TestMoments:
    def test_single_sample_flagged(self):
        m = moments(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(m.mean, [1.0, 2.0])
        np.testing.assert_array_equal(m.var, [0.0, 0.0])
        assert not m.var_defined

    def test_constants_zero_variance(self):
        m = moments(np.tile([3.0, -1.0], (10, 1)))
        np.testing.assert_array_equal(m.var, [0.0, 0.0])
        assert m.var_defined

    def test_standard_normal_clt_bounds(self):
        n = 10**6
        draws = rng_for(56, "mom").standard_normal((n, 1))
        m = moments(draws)
        assert abs(m.mean[0]) < 0.004          # 4 sigma of sd/sqrt(n)
        assert abs(m.var[0] - 1.0) < 0.006     # ~4 sigma of sqrt(2/n)
