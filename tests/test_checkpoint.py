import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from bridgediff import cli
from bridgediff.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from bridgediff.data import gen_two_moons_paired, save
from bridgediff.nn import NoisePredictor, layer_shapes
from bridgediff.optim import AdamState, EmaState, PlateauLrState
from bridgediff.seeding import rng_for
from bridgediff.training import TrainConfig, run_training


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
            assert a.shape == (loaded.model.flat.size,)
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

    def test_failed_write_keeps_earlier_checkpoint(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        earlier = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        # Every vector but the last, adam.v, converts before the failure.
        ckpt.adam.v = Unwritable()
        ckpt.step += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

    def test_write_leaves_only_the_checkpoint(self, ckpt, tmp_path):
        save_checkpoint(tmp_path / "model.bin", ckpt)
        save_checkpoint(tmp_path / "model.bin", ckpt)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


class TestFormat:
    """The bytes on disk, spelled out: magic, ``<I`` header length, compact
    sorted-key JSON header with per-layer records, then each vector whole
    as ``<f8``: parameters, EMA shadow, Adam m and v, state scale."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["no-scale", "scale"])
    def test_bytes_match_the_documented_layout(self, ckpt, tmp_path, scaled):
        vectors = [ckpt.model.flat, ckpt.ema.shadow, ckpt.adam.m, ckpt.adam.v]
        shapes = [[6, 8], [8], [8, 6], [6], [6, 2], [2]]
        records = [{"name": f"{prefix}.{i}", "shape": shape}
                   for prefix in ("param", "ema", "adam_m", "adam_v") for i, shape in enumerate(shapes)]
        if scaled:
            ckpt.model.state_scale = np.linspace(1.0, 2.0, 51)
            vectors.append(ckpt.model.state_scale)
            records.append({"name": "state_scale.0", "shape": [51]})
        header = {
            "version": 1, "T": 50, "s": 1.5, "step": 321,
            "model": {"data_dim": 2, "embed_dim": 4, "hidden": [8, 6], "activation": "silu"},
            "arrays": records,
            "adam": {"step": 17, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            "ema": {"decay": 0.99, "start_step": 5, "update_interval": 2},
            "plateau": {"current_lr": 1e-3, "max_lr": 1e-3, "min_lr": 1e-6, "factor": 0.5,
                        "patience": 3000, "cooldown": 2000, "threshold": 1e-4,
                        "best_metric": 0.123, "bad_count": 2, "cooldown_count": 0},
        }
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        blob = (b"BDGCKPT1" + struct.pack("<I", len(text)) + text
                + b"".join(vec.astype("<f8").tobytes() for vec in vectors))
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        assert path.read_bytes() == blob

        hand = tmp_path / "hand.bin"
        hand.write_bytes(blob)
        loaded = load_checkpoint(hand)
        got = [loaded.model.flat, loaded.ema.shadow, loaded.adam.m, loaded.adam.v]
        if scaled:
            got.append(loaded.model.state_scale)
        else:
            assert loaded.model.state_scale is None
        for a, b in zip(got, vectors, strict=True):
            np.testing.assert_array_equal(a, b)
        assert (loaded.T, loaded.s, loaded.step, loaded.adam.step) == (50, 1.5, 321, 17)
        assert dataclasses.asdict(loaded.plateau) == dataclasses.asdict(ckpt.plateau)


def _read_header(path):
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    return json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + n])


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

    @pytest.mark.parametrize(
        "key", ["model", "arrays", "adam", "ema", "plateau", "T", "step", "plateau.cooldown"]
    )
    def test_missing_header_key_rejected(self, ckpt, tmp_path, key):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        *sections, name = key.split(".")
        _rewrite_header(path, lambda h: (h[sections[0]] if sections else h).pop(name))
        with pytest.raises(ValueError, match=f"lacks key '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("T", float("inf")), ("step", float("inf")),
                                           ("arrays", 5)])
    def test_mistyped_header_value_names_the_file(self, ckpt, tmp_path, key, value):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: h.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"bad checkpoint header in {path}")):
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


class TestHeaderTypes:
    """An integer header field takes only a JSON integer, a float field any
    JSON number; each error names the file and the key."""

    @pytest.mark.parametrize("key,value,message", [
        ("T", 50.7, "bad checkpoint header in {path}: T must be an integer, got 50.7"),
        ("T", "abc", "bad checkpoint header in {path}: T must be an integer, got 'abc'"),
        ("step", 2.7, "bad checkpoint header in {path}: step must be an integer, got 2.7"),
        ("step", -5, "bad checkpoint header in {path}: step must be >= 0, got -5"),
        ("s", "1.5", "bad checkpoint header in {path}: s must be a number, got '1.5'"),
        ("s", True, "bad checkpoint header in {path}: s must be a number, got True"),
        ("model.data_dim", 2.0,
         "bad checkpoint header in {path}: model.data_dim must be an integer, got 2.0"),
        ("model.hidden", [8.9, 6],
         "bad checkpoint header in {path}: model.hidden[0] must be an integer, got 8.9"),
        ("adam.step", 1.9, "bad adam value in checkpoint {path}: "
                           "adam.step must be an integer, got 1.9"),
        ("ema.update_interval", True, "bad ema value in checkpoint {path}: "
                                      "ema.update_interval must be an integer, got True"),
        ("plateau.patience", "7", "bad plateau value in checkpoint {path}: "
                                  "plateau.patience must be an integer, got '7'"),
        ("plateau.factor", "0.5", "bad plateau value in checkpoint {path}: "
                                  "plateau.factor must be a number, got '0.5'"),
    ], ids=["T=50.7", "T='abc'", "step=2.7", "step=-5", "s='1.5'", "s=true", "model.data_dim=2.0",
            "model.hidden=[8.9,6]", "adam.step=1.9", "ema.update_interval=true",
            "plateau.patience='7'", "plateau.factor='0.5'"])
    def test_mistyped_value_names_file_and_key(self, ckpt, tmp_path, key, value, message):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        *sections, name = key.split(".")
        _rewrite_header(path, lambda h: (h[sections[0]] if sections else h).update({name: value}))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == message.format(path=path)

    def test_float_fields_take_json_integers(self, ckpt, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        _rewrite_header(path, lambda h: (h.update(s=2), h["adam"].update(beta1=0)))
        loaded = load_checkpoint(path)
        assert (loaded.s, loaded.adam.beta1) == (2.0, 0.0)
        assert type(loaded.s) is float and type(loaded.adam.beta1) is float


@pytest.mark.parametrize("sizes,message", [
    ((0, 4, (8,)), "data_dim must be >= 1, got 0"),
    ((2, 0, (8,)), "embed_dim must be >= 1, got 0"),
    ((2, 5, (8,)), "embed_dim must be even, got 5"),
    ((2, 4, ()), "hidden must list one or more widths, each >= 1, got ()"),
    ((2, 4, (8, 0)), "hidden must list one or more widths, each >= 1, got (8, 0)"),
], ids=["data_dim=0", "embed_dim=0", "embed_dim=5", "hidden=()", "hidden=(8,0)"])
def test_one_rule_for_sizes(ckpt, tmp_path, sizes, message):
    """``layer_shapes`` holds the size rules; the constructor, ``create``
    and a checkpoint restore reject bad sizes with its words."""
    data_dim, embed_dim, hidden = sizes
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        layer_shapes(data_dim, embed_dim, hidden)
    with pytest.raises(ValueError, match=exact):
        NoisePredictor(data_dim, embed_dim, hidden, flat=np.zeros(1))
    with pytest.raises(ValueError, match=exact):
        NoisePredictor.create(data_dim, hidden, embed_dim, rng_for(1, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, ckpt)
    _rewrite_header(path, lambda h: h["model"].update(data_dim=data_dim, embed_dim=embed_dim,
                                                      hidden=list(hidden)))
    with pytest.raises(ValueError, match=f"^{re.escape(f'bad sizes in {path}: {message}')}$"):
        load_checkpoint(path)


class TestArchitecture:
    """Arrays must match the declared sizes; model, EMA, state-scale and
    Adam moment values must be finite."""

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

    @pytest.mark.parametrize("where", ["param", "ema", "state_scale", "adam_m", "adam_v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_values_rejected(self, ckpt, tmp_path, where, value):
        ckpt.model.state_scale = np.ones(ckpt.T + 1)
        target = {"param": ckpt.model.weights[1], "ema": ckpt.model.split(ckpt.ema.shadow)[0],
                  "state_scale": ckpt.model.state_scale, "adam_m": ckpt.adam.m,
                  "adam_v": ckpt.adam.v}[where]
        target.flat[3] = value
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        with pytest.raises(ValueError, match="non-finite|finite, positive"):
            load_checkpoint(path)


class TestStateSections:
    """The ``adam``, ``ema`` and ``plateau`` sections hold their state
    dataclasses' scalar fields and pass the same range checks as a fresh
    run; so does the schedule (``T``, ``s``), through ``build_schedule``.
    An integer field takes only a JSON integer, and the step is >= 0."""

    @pytest.mark.parametrize("key,cls", [("adam", AdamState), ("ema", EmaState),
                                         ("plateau", PlateauLrState)])
    def test_section_keys_are_the_scalar_fields(self, ckpt, tmp_path, key, cls):
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        scalars = {f.name for f in dataclasses.fields(cls)} - {"m", "v", "shadow"}
        assert set(_read_header(path)[key]) == scalars

    @pytest.fixture
    def bad(self, request, ckpt, tmp_path):
        """A run directory holding a metrics log and a checkpoint with one
        header value out of range; an empty section is a top-level key, and
        a callable value edits the value it replaces. The section
        ``payload`` instead writes the value into entry 3 of a vector."""
        section, name, value = request.param
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        # A log up to the checkpoint's step, so only the restore can refuse a resume.
        rows = "".join(f"{step},0.5,0.001,\n" for step in range(1, ckpt.step + 1))
        (run_dir / "metrics.csv").write_text("step,loss,lr,val_loss\n" + rows, encoding="utf-8")
        path = run_dir / "ckpt.bin"
        if section == "payload":
            owner, field = name.split(".")
            getattr(getattr(ckpt, owner), field)[3] = value
        save_checkpoint(path, ckpt)

        def edit(header):
            target = header[section] if section else header
            target[name] = value(target[name]) if callable(value) else value

        if section != "payload":
            _rewrite_header(path, edit)
        return path

    cases = pytest.mark.parametrize(
        "bad", [("ema", "update_interval", 0), ("plateau", "factor", 2.0), ("adam", "beta1", 1.0),
                ("plateau", "current_lr", float("nan")), ("", "s", -1.0), ("", "s", 0.0),
                ("", "s", float("nan")), ("", "T", 1), ("", "T", 50.7), ("", "step", 2.7),
                ("adam", "step", 1.9), ("ema", "update_interval", True), ("plateau", "patience", "7"),
                ("model", "hidden", [8.9, 6]), ("", "T", "abc"), ("", "step", -5),
                ("plateau", "patience", -5), ("plateau", "patience", 0), ("plateau", "cooldown", -3),
                ("ema", "start_step", -7), ("", "arrays", lambda a: [a[1], a[0], *a[2:]]),
                ("", "arrays", lambda a: [{**a[0], "shape": [-n for n in a[0]["shape"]]}, *a[1:]]),
                ("", "arrays", lambda a: [{**a[0], "shape": [float(n) for n in a[0]["shape"]]},
                                          *a[1:]]),
                ("payload", "adam.v", np.nan), ("payload", "adam.v", -1.0),
                ("payload", "adam.m", np.inf)],
        ids=["ema.update_interval=0", "plateau.factor=2.0", "adam.beta1=1.0",
             "plateau.current_lr=nan", "s=-1", "s=0", "s=nan", "T=1", "T=50.7", "step=2.7",
             "adam.step=1.9", "ema.update_interval=true", "plateau.patience='7'",
             "model.hidden=[8.9,6]", "T='abc'", "step=-5", "plateau.patience=-5",
             "plateau.patience=0", "plateau.cooldown=-3", "ema.start_step=-7",
             "arrays[0]<->arrays[1]", "arrays[0].shape=[-6,-8]", "arrays[0].shape=[6.0,8.0]",
             "adam_v=nan", "adam_v=-1", "adam_m=inf"],
        indirect=True,
    )

    @cases
    def test_load_names_the_file(self, bad):
        with pytest.raises(ValueError,
                           match="update_interval|factor|beta1|current_lr|^bad schedule in|"
                                 "must be an integer|step must be >= 0|patience|cooldown|"
                                 "architecture|adam_[mv] holds") as info:
            load_checkpoint(bad)
        assert str(bad) in str(info.value)

    @cases
    def test_sample_exits_two(self, bad, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        save(gen_two_moons_paired(n=10, noise_sd=0.05, seed=3), pairs)
        out_dir = tmp_path / "samples"
        code = cli.main(["sample", "--checkpoint", str(bad), "--data", str(pairs),
                         "--steps", "10", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
        assert not out_dir.exists()

    @cases
    def test_resume_writes_nothing(self, bad):
        before = {p: p.read_bytes() for p in bad.parent.iterdir()}
        config = TrainConfig(seed=4, T=50, s=1.5, hidden=(8, 6), embed_dim=4, max_steps=400,
                             batch_size=8, ema_update_interval=2)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            run_training(config, gen_two_moons_paired(n=20, noise_sd=0.05, seed=3), bad.parent,
                         resume_from=bad)
        assert {p: p.read_bytes() for p in bad.parent.iterdir()} == before
