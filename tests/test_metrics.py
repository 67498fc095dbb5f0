import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bridgediff import cli, metrics, parallel
from bridgediff.data import gen_two_moons_paired, save
from bridgediff.metrics import diversity, energy_distance, moments
from bridgediff.seeding import rng_for


class TestDiversity:
    def test_identical_samples_zero(self):
        sets = [np.tile([1.0, -2.0], (5, 1)) for _ in range(3)]
        assert diversity(sets, k=5) == 0.0

    def test_two_scalar_samples_population_convention(self):
        # {0, 2}: population sd (divisor k) is 1.0; sample sd would be sqrt(2).
        sets = [np.array([[0.0], [2.0]])]
        assert diversity(sets, k=2) == pytest.approx(1.0, abs=1e-15)

    def test_translation_invariance(self):
        rng = rng_for(51, "div")
        sets = [rng.normal(size=(5, 3)) for _ in range(4)]
        shifted = [s + np.array([10.0, -3.0, 0.5]) for s in sets]
        assert diversity(shifted, k=5) == pytest.approx(diversity(sets, k=5), abs=1e-12)

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"set 0 must hold exactly k=5 samples, got shape \(4, 2\)"):
            diversity([np.zeros((4, 2))], k=5)
        with pytest.raises(ValueError, match=r"set 1 must hold exactly k=5 samples, got shape \(5,\)"):
            diversity([np.zeros((5, 2)), np.zeros(5)], k=5)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="set 1 has dimension 3, expected 2"):
            diversity([np.zeros((5, 2)), np.zeros((5, 3))], k=5)

    def test_matches_per_input_loop(self):
        # The stacked form gives the bits of the per-input loop: each
        # input's std over its k rows, its mean over dimensions, then the
        # mean over inputs.
        rng = rng_for(71, "div")
        for _ in range(60):
            k, d, n = (int(x) for x in rng.integers(1, (40, 20, 200)))
            scale = 10.0 ** rng.uniform(-8, 8)
            sets = [(rng.normal(size=(k, d)) + rng.normal() * 10) * scale for _ in range(n)]
            loop = float(np.mean([float(np.mean(np.std(s, axis=0))) for s in sets]))
            assert diversity(sets, k=k) == loop

    def test_grouped_array_is_read_without_a_copy(self):
        # eval passes the reader's (inputs, k, d) array as it is: the same
        # bits as the list of its sets, and a peak below a second copy of it.
        groups = rng_for(72, "div").normal(size=(20_000, 5, 2))
        assert diversity(groups, k=5) == diversity(list(groups), k=5)
        with pytest.raises(ValueError, match=r"set 0 must hold exactly k=4 samples, got shape \(5, 2\)"):
            diversity(groups, k=4)
        tracemalloc.start()
        try:
            diversity(groups, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * groups.nbytes


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

    @pytest.mark.parametrize("m", [1, 300, 700])
    def test_precomputed_self_sum_keeps_the_bits(self, m):
        rng = rng_for(56, "ed", m)
        a = rng.normal(size=(90, 2))
        b = rng.normal(size=(m, 2)) + 0.25
        bb = metrics.self_distance_sum(b)
        assert bb == metrics._pair_distance_sum(b, b)
        assert energy_distance(a, b, bb).hex() == energy_distance(a, b).hex()

    def test_self_distance_key_names_what_fixes_the_bits(self):
        b = rng_for(57, "ed").normal(size=(40, 3))
        key = metrics.self_distance_key(b)
        assert key.startswith("n=40 d=3 sha256=")
        assert key.endswith(f" tile={metrics._TILE} numpy={np.__version__}")
        assert metrics.self_distance_key(np.asfortranarray(b)) == key
        assert metrics.self_distance_key(b.tolist()) == key
        edited = b.copy()
        edited[5, 2] = np.nextafter(edited[5, 2], np.inf)
        assert metrics.self_distance_key(edited) != key
        assert metrics.self_distance_key(b.reshape(30, 4)).startswith("n=30 d=4 ")


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
            # An untraced call first: whatever a first call leaves allocated
            # for later ones (which earlier tests may or may not have done)
            # stays out of the traced peak, so the bounds do not depend on
            # the test order. Every tile is summed contiguously, so no
            # worker holds a numpy reduction buffer and one traced call does.
            energy_distance(a, b)
            tracemalloc.start()
            try:
                energy_distance(a, b)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8e6
        assert peaks[1] <= peaks[0] + 65536


def _serial_pair_sum(a, b):
    # One thread, the tiles in row order in two reused buffers, ``math.fsum``
    # over the tile sums: the sum the workers must reproduce bit for bit.
    same = a is b
    acc = np.empty((min(a.shape[0], 256), min(b.shape[0], 256)))
    tmp = np.empty_like(acc)
    sums = []
    for i in range(0, a.shape[0], 256):
        rows = a[i : i + 256]
        for j in range(i if same else 0, b.shape[0], 256):
            cols = b[j : j + 256]
            # Each tile contiguous in the buffers' first entries, as the
            # kernel lays it out.
            nr, nc = rows.shape[0], cols.shape[0]
            dist = acc.reshape(-1)[: nr * nc].reshape(nr, nc)
            sq = tmp.reshape(-1)[: nr * nc].reshape(nr, nc)
            np.subtract(rows[:, 0, None], cols[None, :, 0], out=dist)
            np.multiply(dist, dist, out=dist)
            for k in range(1, a.shape[1]):
                np.subtract(rows[:, k, None], cols[None, :, k], out=sq)
                np.multiply(sq, sq, out=sq)
                np.add(dist, sq, out=dist)
            np.sqrt(dist, out=dist)
            total = float(dist.sum())
            sums.append(2.0 * total if same and j > i else total)
    return math.fsum(sums)


class TestParallelPairSums:
    """The tiles spread over workers: the same float for any worker count,
    failures raised in the caller, no thread left behind."""

    SIZES = (1, 255, 256, 257, 600)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bitwise_equal_for_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        for n in self.SIZES:
            rng = rng_for(60, "workers", n)
            a = rng.normal(size=(n, 2))
            assert metrics._pair_distance_sum(a, a) == _serial_pair_sum(a, a)
            for m in self.SIZES:
                b = rng.normal(size=(m, 2)) * 1e3 + 0.3
                assert metrics._pair_distance_sum(a, b) == _serial_pair_sum(a, b)
                expected = (2.0 * _serial_pair_sum(a, b) / (n * m)
                            - _serial_pair_sum(a, a) / (n * n)
                            - _serial_pair_sum(b, b) / (m * m))
                assert energy_distance(a, b) == expected

    def test_many_workers_with_fast_switching(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: a
        # tile claimed twice or a lost partial would change the float.
        monkeypatch.setattr(parallel, "worker_count", lambda: 7)
        rng = rng_for(65, "workers")
        a, b = rng.normal(size=(600, 2)), rng.normal(size=(3000, 2))
        expected = _serial_pair_sum(a, b), _serial_pair_sum(b, b)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = metrics._pair_distance_sum(a, b), metrics._pair_distance_sum(b, b)
                assert got == expected
        finally:
            sys.setswitchinterval(interval)

    def test_exact_partials_match_fsum(self):
        # Values whose naive running sum loses every small term.
        values = [1e16, 1.0, -1e16, 3.0, 1e-300, 2.0**60, 0.1, -(2.0**60)] * 50
        partials = []
        for x in values:
            metrics._add_exact(partials, x)
        assert math.fsum(partials) == math.fsum(values)

    def test_nonfinite_tile_sum_as_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        a = np.zeros((600, 1))
        a[300, 0] = 1e200  # its squared differences overflow to inf
        with np.errstate(over="ignore"):
            assert metrics._pair_distance_sum(a, a) == _serial_pair_sum(a, a) == math.inf

    @pytest.mark.parametrize("over", ["ignore", "raise"])
    def test_workers_use_callers_errstate(self, monkeypatch, over):
        # Every tile overflows, so the helper's tiles do too: under "ignore"
        # a helper on numpy's default settings would warn, and the warning
        # is an error in this suite.
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        a = np.zeros((3000, 1))
        a[::2, 0] = 1e200
        with np.errstate(over=over):
            if over == "ignore":
                assert metrics._pair_distance_sum(a, a) == math.inf
            else:
                with pytest.raises(FloatingPointError, match="overflow"):
                    metrics._pair_distance_sum(a, a)

    def test_worker_count_capped(self, monkeypatch):
        # However many CPUs the mask shows, at most ``parallel.MAX_WORKERS``
        # threads sum tiles and the memory check holds as on a small machine.
        monkeypatch.setattr(parallel, "worker_count", lambda: 64)
        TestTiledPairSums().test_memory_does_not_grow_with_set_size()
        add_exact = metrics._add_exact
        threads = set()

        def add_and_record(partials, x):
            threads.add(threading.get_ident())
            add_exact(partials, x)

        monkeypatch.setattr(metrics, "_add_exact", add_and_record)
        a = rng_for(66, "workers").normal(size=(3000, 2))
        metrics._pair_distance_sum(a, a[::-1])
        assert len(threads) <= parallel.MAX_WORKERS == 4

    def _fail_on_third_tile(self, monkeypatch, workers=2):
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        add_exact = metrics._add_exact
        lock = threading.Lock()
        calls = []

        def add_or_fail(partials, x):
            with lock:
                calls.append(x)
                third = len(calls) == 3
            if third:
                raise MemoryError("Unable to allocate 1.00 MiB")
            add_exact(partials, x)

        monkeypatch.setattr(metrics, "_add_exact", add_or_fail)
        return calls

    def test_worker_failure_raised_in_caller(self, monkeypatch):
        calls = self._fail_on_third_tile(monkeypatch)
        rng = rng_for(61, "workers")
        a, b = rng.normal(size=(600, 2)), rng.normal(size=(3000, 2))
        before = threading.active_count()
        with pytest.raises(MemoryError, match="1.00 MiB"):
            metrics._pair_distance_sum(a, b)
        assert threading.active_count() == before
        # 36 tiles; the others stop claiming once the third one failed.
        assert len(calls) < 10

    def test_worker_out_of_memory_exits_two(self, tmp_path, monkeypatch, capsys):
        reference = tmp_path / "ref.csv"
        save(gen_two_moons_paired(n=600, noise_sd=0.05, seed=62), reference)
        samples = tmp_path / "samples.csv"
        points = gen_two_moons_paired(n=300, noise_sd=0.1, seed=63).x0
        with open(samples, "w", encoding="utf-8") as f:
            f.write("# format=samples-csv\n# version=1\n# seed=0\n")
            f.write("y_index,sample_index,dim_0,dim_1\n")
            for i, row in enumerate(points):
                f.write(f"{i},0,{float(row[0])!r},{float(row[1])!r}\n")
        self._fail_on_third_tile(monkeypatch)
        report = tmp_path / "report.csv"
        code = cli.main(["eval", "--samples", str(samples), "--reference", str(reference),
                         "--k", "1", "--out", str(report)])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 MiB\n"
        assert sorted(tmp_path.iterdir()) == [reference, samples]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_thread_outlives_the_call(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        a = rng_for(64, "workers").normal(size=(700, 2))
        before = threading.active_count()
        energy_distance(a, a[::-1])
        assert threading.active_count() == before


class TestTileKernel:
    """A tile's differences come from ``[a_ik, 1] @ [1; -b_jk]``: the same
    squares as ``np.subtract``'s, from contiguous buffers, only for real
    pairs."""

    @staticmethod
    def _product_difference(a, b):
        # The kernel's operands for one coordinate, as it lays them out.
        lhs = np.ones((a.size, 2))
        lhs[:, 0] = a
        rhs = np.ones((2, b.size))
        np.negative(b, out=rhs[1])
        return np.matmul(lhs, rhs)

    @pytest.mark.parametrize("shape", [(256, 256), (37, 200), (1, 256), (256, 1), (1, 1)])
    def test_product_difference_squares_equal_subtract(self, shape):
        rng = rng_for(67, "kernel", *shape)
        n, m = shape
        # Random finite bit patterns (many differences overflow to inf),
        # subnormals, values shared by both sides and both zeros.
        bits = rng.integers(0, 2**64, size=4 * (n + m), dtype=np.uint64).view(np.float64)
        pool = np.concatenate([
            bits[np.isfinite(bits)],
            rng.integers(-2**20, 2**20, size=n + m) * 5e-324,
            np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
        ])
        a = rng.choice(pool, size=n)
        b = rng.choice(pool, size=m)
        b[: min(n, m) // 2] = a[: min(n, m) // 2]  # equal pairs
        a[0], b[-1] = 1.7976931348623157e308, -1.7976931348623157e308  # an overflow
        with np.errstate(over="ignore"):
            diff = self._product_difference(a, b)
            expected = np.subtract(a[:, None], b[None, :])
            assert np.array_equal(diff, expected)  # up to the sign of a zero
            squares = (diff * diff).view(np.uint64), (expected * expected).view(np.uint64)
            assert np.array_equal(*squares)
        assert np.isinf(expected).any()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_bitwise_equal_to_serial_on_narrow_edges(self, monkeypatch, workers, d):
        # 257 rows leave an edge tile 1 wide, 511 one 255 wide.
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        rng = rng_for(68, "kernel", d)
        sets = {n: rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) for n in (1, 257, 511)}
        for n, a in sets.items():
            assert metrics._pair_distance_sum(a, a) == _serial_pair_sum(a, a)
            for m, b in sets.items():
                assert metrics._pair_distance_sum(a, b) == _serial_pair_sum(a, b)

    def test_transient_memory_is_the_tile_buffers(self, monkeypatch):
        # One worker on full tiles: beyond its two (256, 256) buffers, the
        # passes over a tile allocate next to nothing.
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)
        rng = rng_for(69, "kernel")
        a, b = rng.normal(size=(512, 2)), rng.normal(size=(512, 2))
        metrics._pair_distance_sum(a, b)
        tracemalloc.start()
        try:
            metrics._pair_distance_sum(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 256 * 256 * 8 + 32 * 1024

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_overflow_outside_the_real_pairs(self, d):
        # Differences near 1e150 square to about 1e300, but any entry taken
        # against a padding value such as 0 or 1 would square past the
        # largest float and warn (an error in this suite).
        rng = rng_for(70, "kernel", d)
        sets = [1e160 + rng.normal(size=(n, d)) * 1e150 for n in (1, 200, 300, 600)]
        with np.errstate(all="raise"):
            for a in sets:
                assert metrics._pair_distance_sum(a, a) == _serial_pair_sum(a, a)
                for b in sets:
                    assert metrics._pair_distance_sum(a, b) == _serial_pair_sum(a, b)


class TestMoments:
    def test_single_sample_flagged(self):
        m = moments(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(m.mean, [1.0, 2.0])
        np.testing.assert_array_equal(m.var, [0.0, 0.0])

    def test_constants_zero_variance(self):
        m = moments(np.tile([3.0, -1.0], (10, 1)))
        np.testing.assert_array_equal(m.var, [0.0, 0.0])

    def test_standard_normal_clt_bounds(self):
        n = 10**6
        draws = rng_for(56, "mom").standard_normal((n, 1))
        m = moments(draws)
        assert abs(m.mean[0]) < 0.004          # 4 sigma of sd/sqrt(n)
        assert abs(m.var[0] - 1.0) < 0.006     # ~4 sigma of sqrt(2/n)
