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
        lambda: gen_two_moons_paired(n=513, noise_sd=0.05, seed=17),
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
        with open(path, "rb") as f:
            meta, _ = data.read_metadata(f, path)
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

    @pytest.mark.parametrize("key,value,problem", [
        ("dim", "-1", "must be at least 1, got -1"),
        ("dim", "0", "must be at least 1, got 0"),
        ("dim", "abc", "must be an integer, got 'abc'"),
        ("dim", "1.0", "must be an integer, got '1.0'"),
        ("n", "abc", "must be an integer, got 'abc'"),
        ("n", "0", "must be at least 1, got 0"),
        ("seed", "x", "must be an integer, got 'x'"),
        ("crc32", "abc", "must be an integer, got 'abc'"),
        ("param.noise_sd", "zz", "must be an int or a float, got 'zz'"),
    ])
    def test_bad_metadata_value_names_file_and_key(self, tmp_path, monkeypatch, key, value, problem):
        # The checksum stays valid (but for crc32 itself), and n=0 comes with
        # no rows; the value is rejected before any array is allocated.
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=30, noise_sd=0.05, seed=19), path)
        if key == "n":
            self._with_data(path, lambda b: b[: b.index(b"\n") + 1])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(f"# {key}={value}\n" if l.startswith(f"# {key}=") else l
                                for l in lines), encoding="utf-8")

        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(data.np, "empty", no_arrays)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"metadata {key} in {path} {problem}"

    @pytest.mark.parametrize("row", [0, 1030])
    def test_ragged_rows_name_the_first(self, tmp_path, row):
        # Rows of 3 and 5 fields side by side keep the field total; the
        # first of them is still named, with the checksum made valid.
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
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path} line {first + row + 1}: 3 fields, expected 4"

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
        # These two keep the ids their messages gave before rows were
        # named by line, so selections of them still work.
        pytest.param(lambda b: b.replace(b"\n", b"\n1.0,", 1), "{path} line 10: 5 fields, expected 4",
                     id="<lambda>-row 0 of {path} has 5 fields, expected 4"),
        pytest.param(lambda b: b.replace(b"\n", b"\nabc", 1),
                     "{path} line 10: could not convert string to float: 'abc",
                     id="<lambda>-could not convert string to float: 'abc"),
        (lambda b: b"\n".join(b"" if i == 5 else l for i, l in enumerate(b.split(b"\n"))),
         "{path} line 14: blank line"),
    ])
    def test_messages_with_a_valid_checksum(self, tmp_path, edit, message):
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=300, noise_sd=0.05, seed=19), path)
        self._with_data(path, edit)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(message.format(path=path))

    def test_undecodable_metadata_byte_names_the_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=30, noise_sd=0.05, seed=19), path)
        path.write_bytes(path.read_bytes().replace(b"# seed=19\n", b"# seed=\xff\n"))
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == (f"{path} line 5: 'utf-8' codec can't decode byte 0xff "
                                   "in position 7: invalid start byte")

    @pytest.mark.parametrize("header,problem", [
        (b"a,b,c,d", "the column header must be x_0..x_1,y_0..y_1 for dim=2"),
        (b"x_0,y_0,x_1,y_1", "the column header must be x_0..x_1,y_0..y_1 for dim=2"),
        (b"x_0,x_1,y_0", "the column header must be x_0..x_1,y_0..y_1 for dim=2"),
        (b"x_0,x_1,y_0,y_1,", "the column header must be x_0..x_1,y_0..y_1 for dim=2"),
        (b"x_0,x_1,y_0,y_\xff", "'utf-8' codec can't decode byte 0xff in position 14: "
                                "invalid start byte"),
    ], ids=["names", "order", "short", "trailing-comma", "not-utf8"])
    def test_column_header_is_checked(self, tmp_path, header, problem):
        # 50 rows under another header, the checksum valid: a mismatch is
        # one line naming the file and the header's line.
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=50, noise_sd=0.05, seed=19), path)
        self._with_data(path, lambda b: header + b[b.index(b"\n") :])
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path} line 9: {problem}"

    @pytest.mark.parametrize("checksum_valid,message", [
        (False, "checksum mismatch in {path}"),
        (True, "expected 50 rows in {path}, found 51"),
    ], ids=["checksum", "row-count"])
    def test_column_header_is_checked_after_the_row_count(self, tmp_path, checksum_valid, message):
        # A header that is not UTF-8 loses to a checksum or row-count fault.
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=50, noise_sd=0.05, seed=19), path)
        extra = b"1.0,2.0,3.0,4.0\n"
        self._with_data(path, lambda b: b"a,b,c,\xff" + b[b.index(b"\n") :]
                        + (extra if checksum_valid else b""))
        if not checksum_valid:
            path.write_bytes(path.read_bytes() + extra)
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
        # Invalid UTF-8 fails as its line's decode error; valid non-ASCII
        # text as an unparsable value on its line (8 metadata lines and the
        # column header come first). The id is kept from when invalid UTF-8
        # raised the error of decoding the whole data section.
        path = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=600, noise_sd=0.05, seed=20), path)
        data_bytes = self._with_data(path, lambda b: b"\n".join(
            bad + line if i == 401 else line for i, line in enumerate(b.split(b"\n"))))
        try:
            field = data_bytes.split(b"\n")[401].decode("utf-8").split(",")[0]
            expected = f"{path} line 410: could not convert string to float: {field!r}"
        except UnicodeDecodeError as exc:
            expected = f"{path} line 410: {exc}"
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == expected

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

    def test_invalid_utf8_row_does_not_hold_the_file(self, tmp_path):
        # One invalid byte in the last row, the checksum valid: finding and
        # naming that row stays within the bound above.
        path = tmp_path / "pairs.csv"
        ds = gen_two_moons_paired(n=20000, noise_sd=0.05, seed=21)
        save(ds, path)
        self._with_data(path, lambda b: b[:-2] + b"\xe9\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.x0.nbytes * 2 + 512 * 1024 < path.stat().st_size
        assert str(info.value).startswith(f"{path} line 20009: 'utf-8' codec can't decode byte 0xe9")

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


class TestSamplesCsv:
    def test_write_then_read_round_trip(self, tmp_path):
        # 5 inputs x k = 3 in blocks of 4, 7 and 4 chains, with trajectories:
        # the set reader gets back every pair, every bit and the metadata,
        # and each chain's t = 0 trajectory row is its samples row.
        k, T = 3, 9
        chains = [divmod(i, k) for i in range(5 * k)]
        x0 = np.random.default_rng(8).normal(size=(len(chains), 2)) * [1e-300, 1e300]
        x0[3, 1] = -0.0
        bounds = [(0, 4), (4, 11), (11, 15)]

        def blocks():
            for lo, hi in bounds:
                states = x0[lo:hi] + 1.0
                yield chains[lo:hi], x0[lo:hi], [(T, states), (4, 2.0 * states), (0, x0[lo:hi])]

        meta = {"seed": 7, "steps": 2, "eta": 0.5, "k": k, "n": 5, "dim": 2}
        out = tmp_path / "run"
        path = data.write_samples(out, meta, blocks(), True)
        assert path == out / "samples.csv"
        assert sorted(p.name for p in out.iterdir()) == ["samples.csv", "trajectories.csv"]

        set_meta, values, groups = data.read_sample_set([path], k)
        assert set_meta == {"format": data.SAMPLES_FORMAT, "version": str(data.SAMPLES_VERSION),
                            "seed": "7", "steps": "2", "eta": "0.5", "k": "3", "n": "5",
                            "dim": "2"}
        np.testing.assert_array_equal(values.view(np.uint64), x0.view(np.uint64))
        np.testing.assert_array_equal(groups.view(np.uint64), x0.reshape(5, k, 2).view(np.uint64))

        with open(path, "rb") as f:
            _, header_line = data.read_metadata(f, path, data.SAMPLES_FORMAT, data.SAMPLES_VERSION)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[header_line - 1] == "y_index,sample_index,dim_0,dim_1"
        rows = lines[header_line:]
        assert [tuple(map(int, row.split(",")[:2])) for row in rows] == chains

        traj = (out / "trajectories.csv").read_text(encoding="utf-8").splitlines()
        assert traj[0] == "y_index,sample_index,t,dim_0,dim_1"
        fields = [line.split(",", 3) for line in traj[1:]]
        assert [(int(r), int(s), int(t)) for r, s, t, _ in fields] == [
            (row, rep, t) for row, rep in chains for t in (T, 4, 0)]
        assert [f"{r},{s},{v}" for r, s, t, v in fields if t == "0"] == rows

    def _shards(self, tmp_path, pairs):
        # Two shards of a k = 2 set, split after the third row.
        values = np.random.default_rng(9).normal(size=(len(pairs), 2))
        rows = [f"{y},{rep},{a!r},{b!r}" for (y, rep), (a, b) in zip(pairs, values.tolist())]
        paths = [tmp_path / "s0.csv", tmp_path / "s1.csv"]
        for path, part in zip(paths, (rows[:3], rows[3:])):
            path.write_text("\n".join(["# format=samples-csv", "# version=1",
                                       "y_index,sample_index,dim_0,dim_1", *part]) + "\n",
                            encoding="utf-8")
        return paths, values

    def test_groups_keep_each_inputs_file_order(self, tmp_path):
        pairs = [(2, 1), (0, 1), (2, 0), (1, 0), (0, 0), (1, 1)]
        paths, values = self._shards(tmp_path, pairs)
        _, rows, groups = data.read_sample_set(paths, 2)
        np.testing.assert_array_equal(rows, values)
        np.testing.assert_array_equal(groups, values[[1, 4, 3, 5, 0, 2]].reshape(3, 2, 2))

    def test_input_short_of_k_is_named(self, tmp_path):
        # Input 0 is complete, 1 has two rows and 3 one; the lowest is named.
        pairs = [(1, 0), (3, 0), (0, 0), (1, 1), (0, 1), (0, 2)]
        paths, _ = self._shards(tmp_path, pairs)
        with pytest.raises(ValueError, match=r"^conditioning input 1 has 2 samples, expected k=3$"):
            data.read_sample_set(paths, 3)
