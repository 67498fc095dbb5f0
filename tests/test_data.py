import os
import tracemalloc
import zlib

import numpy as np
import pytest

from bridgediff import data
from bridgediff.data import (
    PairedDataset,
    gen_binary_patterns,
    gen_joint_gaussian,
    gen_two_moons_paired,
    load,
    moons_map,
    read_header,
    save,
)
from bridgediff.metrics import energy_distance
from bridgediff.oracle import JointGaussianSpec


class TestJointGaussian:
    def test_identical_domains_exact(self):
        spec = JointGaussianSpec(mean0=0.4, meany=0.4, var0=2.0, vary=2.0, corr=1.0)
        ds = gen_joint_gaussian(spec, dim=3, n=500, seed=1)
        np.testing.assert_array_equal(ds.x0, ds.y)

    def test_independent_domains_bound(self):
        ds = gen_joint_gaussian(JointGaussianSpec(corr=0.0), dim=1, n=40000, seed=2)
        r = np.corrcoef(ds.x0[:, 0], ds.y[:, 0])[0, 1]
        assert abs(r) < 5.0 / np.sqrt(ds.n)

    def test_target_correlation_bound(self):
        n = 10**5
        ds = gen_joint_gaussian(JointGaussianSpec(corr=0.8), dim=2, n=n, seed=3)
        for d in range(2):
            r = np.corrcoef(ds.x0[:, d], ds.y[:, d])[0, 1]
            assert abs(r - 0.8) < 0.016

    def test_purity(self):
        spec = JointGaussianSpec(corr=0.5)
        a = gen_joint_gaussian(spec, dim=2, n=100, seed=9)
        b = gen_joint_gaussian(spec, dim=2, n=100, seed=9)
        np.testing.assert_array_equal(a.x0, b.x0)
        np.testing.assert_array_equal(a.y, b.y)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_joint_gaussian(JointGaussianSpec(), dim=0, n=10, seed=1)
        with pytest.raises(ValueError):
            gen_joint_gaussian(JointGaussianSpec(), dim=1, n=0, seed=1)


class TestTwoMoons:
    def test_noiseless_pairing_exact(self):
        ds = gen_two_moons_paired(n=300, noise_sd=0.0, seed=4)
        np.testing.assert_array_equal(ds.y, moons_map(ds.x0))

    def test_map_is_involution(self):
        pts = np.array([[1.0, 2.0], [-0.5, 0.25]])
        np.testing.assert_array_equal(moons_map(moons_map(pts)), pts)

    def test_inverse_recovers_data(self):
        ds = gen_two_moons_paired(n=200, noise_sd=0.1, seed=5)
        np.testing.assert_allclose(moons_map(ds.y), ds.x0, atol=1e-12)

    def test_energy_distance_of_mapped_sets(self):
        # y is exactly the mapped x0 set, so the two clouds coincide.
        ds = gen_two_moons_paired(n=400, noise_sd=0.02, seed=6)
        assert energy_distance(ds.y, moons_map(ds.x0)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            gen_two_moons_paired(n=10, noise_sd=-0.1, seed=1)


class TestBinaryPatterns:
    def test_no_flips_exact_inversion(self):
        ds = gen_binary_patterns(n=200, side=4, flip_prob=0.0, seed=7)
        np.testing.assert_array_equal(ds.y, 1.0 - ds.x0)

    def test_dim_is_side_squared(self):
        ds = gen_binary_patterns(n=5, side=5, flip_prob=0.1, seed=7)
        assert ds.dim == 25

    def test_values_binary(self):
        ds = gen_binary_patterns(n=50, side=3, flip_prob=0.3, seed=8)
        assert set(np.unique(ds.x0)) <= {0.0, 1.0}
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_hamming_expectation(self):
        n, side, p = 4000, 4, 0.15
        ds = gen_binary_patterns(n=n, side=side, flip_prob=p, seed=9)
        hamming = np.sum(ds.y != 1.0 - ds.x0, axis=1)
        expected = p * side * side
        sd = np.sqrt(side * side * p * (1 - p) / n)
        assert abs(hamming.mean() - expected) < 4 * sd

    @pytest.mark.parametrize("side", [1, 17, 0])
    def test_side_bounds(self, side):
        with pytest.raises(ValueError):
            gen_binary_patterns(n=10, side=side, flip_prob=0.0, seed=1)


class TestPersistence:
    @pytest.mark.parametrize("make", [
        lambda: gen_joint_gaussian(JointGaussianSpec(corr=0.3), dim=2, n=57, seed=11),
        lambda: gen_two_moons_paired(n=33, noise_sd=0.07, seed=12),
        lambda: gen_binary_patterns(n=21, side=3, flip_prob=0.2, seed=13),
        lambda: gen_two_moons_paired(n=2 * data._PARSE_ROWS + 1, noise_sd=0.05, seed=17),
    ])
    def test_round_trip_bit_exact(self, make, tmp_path):
        ds = make()
        path = tmp_path / "pairs.csv"
        save(ds, path)
        back = load(path)
        np.testing.assert_array_equal(back.x0, ds.x0)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.generator == ds.generator
        assert back.seed == ds.seed
        assert back.params == ds.params

    def test_header_only_inspection(self, tmp_path):
        ds = gen_two_moons_paired(n=44, noise_sd=0.05, seed=14)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        meta = read_header(path)
        assert meta["generator"] == "two_moons"
        assert int(meta["n"]) == 44
        assert int(meta["dim"]) == 2
        assert meta["param.noise_sd"] == repr(0.05)

    def test_truncation_detected(self, tmp_path):
        ds = gen_binary_patterns(n=30, side=2, flip_prob=0.0, seed=15)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(ValueError, match="checksum"):
            load(path)

    def test_corruption_detected(self, tmp_path):
        ds = gen_binary_patterns(n=30, side=2, flip_prob=0.0, seed=15)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load(path)

    def test_version_mismatch_detected(self, tmp_path):
        ds = gen_binary_patterns(n=5, side=2, flip_prob=0.0, seed=15)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        text = path.read_text(encoding="utf-8").replace("# version=1", "# version=99")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load(path)

    @pytest.mark.parametrize("key", ["crc32", "n", "dim", "generator", "seed"])
    def test_missing_metadata_line_rejected(self, tmp_path, key):
        ds = gen_binary_patterns(n=5, side=2, flip_prob=0.0, seed=15)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(f"# {key}=")), encoding="utf-8")
        with pytest.raises(ValueError, match=key):
            load(path)

    @pytest.mark.parametrize("row", [0, 1030])
    def test_ragged_rows_name_the_first(self, tmp_path, row):
        # Rows of 3 and 5 fields side by side keep the block's field total;
        # the first of them is still named, with the checksum made valid.
        ds = gen_two_moons_paired(n=1100, noise_sd=0.05, seed=18)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        lines[first + row] = "1.0,2.0,3.0\n"
        lines[first + row + 1] = "1.0,2.0,3.0,4.0,5.0\n"
        data_bytes = "".join(lines[first - 1 :]).encode("utf-8")
        meta = [f"# crc32={zlib.crc32(data_bytes)}\n" if l.startswith("# crc32=") else l
                for l in lines[: first - 1]]
        path.write_bytes("".join(meta).encode("utf-8") + data_bytes)
        with pytest.raises(ValueError, match=rf"^row {row} of .* has 3 fields, expected 4$"):
            load(path)

    @staticmethod
    def _with_data(path, edit):
        # Replace the data section by ``edit`` of it and make the checksum
        # valid again.
        blob = path.read_bytes()
        start = blob.index(b"\nx_0") + 1
        meta, data_bytes = blob[:start].decode("utf-8"), edit(blob[start:])
        meta = "".join(f"# crc32={zlib.crc32(data_bytes)}\n" if l.startswith("# crc32=") else l
                       for l in meta.splitlines(keepends=True))
        path.write_bytes(meta.encode("utf-8") + data_bytes)
        return data_bytes

    @pytest.mark.parametrize("edit,message", [
        (lambda b: b + b"1.0,2.0,3.0,4.0\n", "expected 300 rows in {path}, found 301"),
        (lambda b: b[: b.rindex(b"\n", 0, -1) + 1], "expected 300 rows in {path}, found 299"),
        (lambda b: b"", "expected 300 rows in {path}, found -1"),
        (lambda b: b.replace(b"\n", b"\n1.0,", 1), "row 0 of {path} has 5 fields, expected 4"),
        (lambda b: b.replace(b"\n", b"\nabc", 1), "could not convert string to float: 'abc"),
    ])
    def test_messages_with_a_valid_checksum(self, tmp_path, edit, message):
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=300, noise_sd=0.05, seed=19), path)
        self._with_data(path, edit)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(message.format(path=path))

    def test_missing_final_newline_loads(self, tmp_path):
        ds = gen_two_moons_paired(n=300, noise_sd=0.05, seed=19)
        path = tmp_path / "pairs.csv"
        save(ds, path)
        self._with_data(path, lambda b: b[:-1])
        np.testing.assert_array_equal(load(path).y, ds.y)

    @pytest.mark.parametrize("bad", [b"\xff", "\u00e9".encode("utf-8")])
    def test_non_ascii_bytes_fail_as_when_decoded_whole(self, tmp_path, bad):
        # Invalid UTF-8 raises the error of decoding the whole data section,
        # offset included; valid non-ASCII text fails as an unparsable value.
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=600, noise_sd=0.05, seed=20), path)
        data_bytes = self._with_data(path, lambda b: b"\n".join(
            bad + line if i == 401 else line for i, line in enumerate(b.split(b"\n"))))
        try:
            expected = float(data_bytes.decode("utf-8").splitlines()[401].split(",")[0])
        except (UnicodeDecodeError, ValueError) as exc:
            expected = exc
        with pytest.raises(type(expected)) as info:
            load(path)
        assert str(info.value) == str(expected)

    def test_load_does_not_hold_the_file(self, tmp_path):
        # Streaming in blocks: the peak is the arrays plus a block, well
        # under the file's size (3.7 times the size when the file, its text
        # and its lines were all held).
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=20000, noise_sd=0.05, seed=21), path)
        tracemalloc.start()
        try:
            ds = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.x0.nbytes * 2 + 512 * 1024 < path.stat().st_size

    def test_save_is_deterministic(self, tmp_path):
        ds = gen_two_moons_paired(n=20, noise_sd=0.05, seed=16)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save(ds, p1)
        save(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=20, noise_sd=0.05, seed=16), path)
        earlier = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save(gen_two_moons_paired(n=30, noise_sd=0.05, seed=17), path)
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]


class TestPairedDatasetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PairedDataset(x0=np.zeros((3, 2)), y=np.zeros((3, 3)), generator="g", seed=0)

    def test_empty(self):
        with pytest.raises(ValueError):
            PairedDataset(x0=np.zeros((0, 2)), y=np.zeros((0, 2)), generator="g", seed=0)

    def test_nonfinite(self):
        x = np.zeros((2, 2))
        y = np.array([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            PairedDataset(x0=x, y=y, generator="g", seed=0)

    def test_arrays_read_only(self):
        ds = gen_binary_patterns(n=4, side=2, flip_prob=0.0, seed=1)
        with pytest.raises(ValueError):
            ds.x0[0, 0] = 5.0
