import json
import struct

import numpy as np
import pytest

from bridgediff.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from bridgediff.nn import NoisePredictor
from bridgediff.optim import AdamState, EmaState, PlateauLrState
from bridgediff.seeding import rng_for


@pytest.fixture
def ckpt():
    rng = rng_for(21, "ckpt")
    model = NoisePredictor.create(2, (8, 6), 4, rng)
    for arr in model.params():
        arr += 0.1 * rng.standard_normal(arr.shape)
    adam = AdamState.for_params(model.flat)
    adam.step = 17
    for m, v in zip(model.split(adam.m), model.split(adam.v)):
        m += rng.standard_normal(m.shape) * 1e-3
        v += np.abs(rng.standard_normal(v.shape)) * 1e-4
    ema = EmaState.from_params(model.flat, decay=0.99, start_step=5, update_interval=2)
    plateau = PlateauLrState.create(max_lr=1e-3, min_lr=1e-6)
    plateau.best_metric = 0.123
    plateau.bad_count = 2
    return Checkpoint(T=50, s=1.5, step=321, model=model, ema=ema, adam=adam, plateau=plateau)


class TestRoundTrip:
    def test_lossless(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.T == 50 and loaded.s == 1.5 and loaded.step == 321
        assert loaded.model.hidden == (8, 6)
        for a, b in zip(ckpt.model.params(), loaded.model.params()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ckpt.ema.shadow, loaded.ema.shadow)
        np.testing.assert_array_equal(ckpt.adam.m, loaded.adam.m)
        np.testing.assert_array_equal(ckpt.adam.v, loaded.adam.v)
        assert loaded.adam.step == 17
        assert loaded.plateau.best_metric == 0.123
        assert loaded.plateau.bad_count == 2
        assert loaded.ema.update_interval == 2

    def test_rewrite_is_byte_identical(self, ckpt, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_ema_model_uses_shadow(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        ema_model = loaded.ema_model()
        for a, b in zip(ema_model.params(), loaded.model.split(loaded.ema.shadow)):
            np.testing.assert_array_equal(a, b)

    def test_state_scale_round_trip(self, ckpt, tmp_path):
        scale = np.linspace(1.0, 2.0, 51)
        ckpt.model.state_scale = scale
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.state_scale, scale)
        np.testing.assert_array_equal(loaded.ema_model().state_scale, scale)


class TestStorage:
    def test_loaded_vectors_are_independent_and_writable(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        vectors = [loaded.model.flat, loaded.ema.shadow, loaded.adam.m, loaded.adam.v]
        for i, a in enumerate(vectors):
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
            assert a.shape == (loaded.model.n_params,)
            for b in vectors[i + 1 :]:
                assert not np.shares_memory(a, b)
            for b in (ckpt.model.flat, ckpt.ema.shadow, ckpt.adam.m, ckpt.adam.v):
                assert not np.shares_memory(a, b)
        for p in loaded.model.params():
            assert np.shares_memory(p, loaded.model.flat)

    def test_ema_model_owns_its_storage(self, ckpt):
        ema_model = ckpt.ema_model()
        np.testing.assert_array_equal(ema_model.flat, ckpt.ema.shadow)
        assert not np.shares_memory(ema_model.flat, ckpt.ema.shadow)
        before = ckpt.ema.shadow.copy()
        ema_model.flat += 1.0
        np.testing.assert_array_equal(ckpt.ema.shadow, before)

    def test_failed_write_keeps_earlier_checkpoint(self, ckpt, tmp_path, monkeypatch):
        import bridgediff.checkpoint as checkpoint_mod

        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        earlier = path.read_bytes()

        class Unwritable:
            shape = (1,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        records = checkpoint_mod._array_records
        # Every array but the last is written before the failure.
        monkeypatch.setattr(
            checkpoint_mod, "_array_records",
            lambda *a: records(*a)[:-1] + [("adam_v.5", Unwritable())],
        )
        ckpt.step += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

    def test_write_leaves_only_the_checkpoint(self, ckpt, tmp_path):
        save_checkpoint(tmp_path / "model.bin", ckpt)
        save_checkpoint(tmp_path / "model.bin", ckpt)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


def _rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header and write the file back."""
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + n])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[start + n :])


class TestCorruption:
    def test_unknown_activation_rejected(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h["model"].update(activation="relu"))
        with pytest.raises(ValueError, match="activation"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["model", "arrays", "adam", "ema", "plateau", "T", "step"])
    def test_missing_header_key_rejected(self, ckpt, tmp_path, key):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(path)

    def test_missing_model_field_rejected(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h["model"].pop("hidden"))
        with pytest.raises(ValueError, match="hidden"):
            load_checkpoint(path)

    def test_bad_magic(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestArchitecture:
    """Arrays must match the declared sizes; model, EMA and state-scale
    values must be finite."""

    @pytest.mark.parametrize("hidden", [[8], [8, 6, 6], [8, 8]], ids=["fewer", "more", "wider"])
    def test_hidden_mismatch_rejected(self, ckpt, tmp_path, hidden):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h["model"].update(hidden=hidden))
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(path)

    def test_data_dim_mismatch_rejected(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h["model"].update(data_dim=3))
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(path)

    def test_empty_arrays_rejected(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h.update(arrays=[]))
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
        path.write_bytes(blob[: len(MAGIC) + 4 + n])
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(path)

    def test_missing_adam_array_rejected(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        # Drop the last record, adam_v.5 (2 values), and its payload.
        _rewrite_header(path, lambda h: h["arrays"].pop())
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="adam_v.5"):
            load_checkpoint(path)

    def test_state_scale_length_must_cover_steps(self, ckpt, tmp_path):
        ckpt.model.state_scale = np.ones(ckpt.T)
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        with pytest.raises(ValueError, match="state_scale"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["param", "ema", "state_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_values_rejected(self, ckpt, tmp_path, where, value):
        ckpt.model.state_scale = np.ones(ckpt.T + 1)
        target = {"param": ckpt.model.weights[1], "ema": ckpt.model.split(ckpt.ema.shadow)[0],
                  "state_scale": ckpt.model.state_scale}[where]
        target.flat[3] = value
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)
