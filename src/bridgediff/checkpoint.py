"""Single-file binary checkpoints with deterministic bytes.

Layout:

    bytes 0..7    magic b"BDGCKPT1"
    bytes 8..11   uint32 little-endian length of the JSON header
    then          UTF-8 JSON header (sorted keys)
    then          raw array payload

The header records the schedule (T, s), architecture sizes, training step,
optimizer / EMA / LR-scheduler scalars, and an ordered list of array
records ``{"name": ..., "shape": [...]}``; the payload is those arrays'
float64 data, C-order, little-endian, concatenated in header order.
Writing the same state twice produces identical bytes, and a load/save
round trip is lossless.

In memory the model parameters, the EMA shadow and the two Adam moments
are one vector each (see ``nn``). On disk each is split into per-layer
records ``param.i``, ``ema.i``, ``adam_m.i`` and ``adam_v.i``, written
from views of those vectors; a load copies each group of records into a
new vector, so a loaded checkpoint shares no memory with the file's
bytes or with any other object. A checkpoint is written to a hidden temp
file beside its path and moved into place once complete, so a failed
write leaves any earlier file at that path as it was.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import temp_beside
from .nn import NoisePredictor, layer_shapes
from .optim import AdamState, EmaState, PlateauLrState

MAGIC = b"BDGCKPT1"
VERSION = 1


@dataclass
class Checkpoint:
    """Everything needed to resume training or to sample."""

    T: int
    s: float
    step: int
    model: NoisePredictor
    ema: EmaState
    adam: AdamState
    plateau: PlateauLrState

    def ema_model(self) -> NoisePredictor:
        """Predictor built from the EMA shadow parameters."""
        return self.model.copy_with(self.ema.shadow)


def _array_records(model, ema, adam):
    records = []
    vectors = {"param": model.flat, "ema": ema.shadow, "adam_m": adam.m, "adam_v": adam.v}
    for prefix, vec in vectors.items():
        records += [(f"{prefix}.{i}", arr) for i, arr in enumerate(model.split(vec))]
    if model.state_scale is not None:
        records.append(("state_scale.0", model.state_scale))
    return records


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    records = _array_records(ckpt.model, ckpt.ema, ckpt.adam)
    header = {
        "version": VERSION,
        "T": int(ckpt.T),
        "s": float(ckpt.s),
        "step": int(ckpt.step),
        "model": {
            "data_dim": ckpt.model.data_dim,
            "embed_dim": ckpt.model.embed_dim,
            "hidden": list(ckpt.model.hidden),
            "activation": "silu",
        },
        "adam": {
            "beta1": ckpt.adam.beta1,
            "beta2": ckpt.adam.beta2,
            "eps": ckpt.adam.eps,
            "step": ckpt.adam.step,
        },
        "ema": {
            "decay": ckpt.ema.decay,
            "start_step": ckpt.ema.start_step,
            "update_interval": ckpt.ema.update_interval,
        },
        "plateau": {
            "current_lr": ckpt.plateau.current_lr,
            "max_lr": ckpt.plateau.max_lr,
            "min_lr": ckpt.plateau.min_lr,
            "factor": ckpt.plateau.factor,
            "patience": ckpt.plateau.patience,
            "cooldown": ckpt.plateau.cooldown,
            "threshold": ckpt.plateau.threshold,
            "best_metric": ckpt.plateau.best_metric,
            "bad_count": ckpt.plateau.bad_count,
            "cooldown_count": ckpt.plateau.cooldown_count,
        },
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in records],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = temp_beside(path)
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header_bytes)))
            f.write(header_bytes)
            for _, arr in records:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    (header_len,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt checkpoint header in {path}: {exc}") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    try:
        return _from_header(header, blob, start + header_len, path)
    except KeyError as exc:
        raise ValueError(f"checkpoint header in {path} lacks key {exc}") from exc


def _check_arrays(arrays: dict[str, np.ndarray], shapes: list[tuple[int, ...]], T: int, path) -> None:
    """The payload must be exactly the arrays of the declared architecture,
    with finite model and EMA weights and a finite, positive state scale."""
    expected = {f"{prefix}.{i}": shape for prefix in ("param", "ema", "adam_m", "adam_v")
                for i, shape in enumerate(shapes)}
    if "state_scale.0" in arrays:
        expected["state_scale.0"] = (T + 1,)
    if arrays.keys() != expected.keys():
        missing = sorted(expected.keys() - arrays.keys())
        extra = sorted(arrays.keys() - expected.keys())
        raise ValueError(
            f"checkpoint arrays in {path} do not match the declared architecture "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"checkpoint array {name} in {path} has shape {arrays[name].shape}, "
                f"the declared architecture needs {shape}"
            )
        if name.split(".")[0] in ("param", "ema", "state_scale") and not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"checkpoint array {name} in {path} holds non-finite values")
    if "state_scale.0" in arrays and np.any(arrays["state_scale.0"] <= 0):
        raise ValueError(f"checkpoint array state_scale.0 in {path} holds non-positive scales")


def _from_header(header: dict, blob: bytes, offset: int, path) -> Checkpoint:
    arrays: dict[str, np.ndarray] = {}
    for record in header["arrays"]:
        shape = tuple(record["shape"])
        size = int(np.prod(shape)) if shape else 1
        end = offset + 8 * size
        if end > len(blob):
            raise ValueError(f"truncated checkpoint payload in {path}")
        if record["name"] in arrays:
            raise ValueError(f"checkpoint array {record['name']} listed twice in {path}")
        arrays[record["name"]] = np.frombuffer(
            blob, dtype="<f8", count=size, offset=offset
        ).reshape(shape)
        offset = end
    if offset != len(blob):
        raise ValueError(f"trailing bytes in checkpoint {path}")

    mh = header["model"]
    if mh["activation"] != "silu":
        raise ValueError(f"unsupported activation {mh['activation']!r} in {path}; only 'silu' exists")
    data_dim, embed_dim = int(mh["data_dim"]), int(mh["embed_dim"])
    hidden = tuple(int(h) for h in mh["hidden"])
    T = int(header["T"])
    if data_dim < 1 or embed_dim < 2 or embed_dim % 2 or not hidden or min(hidden) < 1 or T < 1:
        raise ValueError(
            f"bad sizes in {path}: T={T}, data_dim={data_dim}, embed_dim={embed_dim}, hidden={hidden}"
        )
    shapes = layer_shapes(data_dim, embed_dim, hidden)
    _check_arrays(arrays, shapes, T, path)

    def vector(prefix: str) -> np.ndarray:
        """One new native float64 vector from the records in storage order."""
        return np.concatenate(
            [arrays[f"{prefix}.{i}"].ravel() for i in range(len(shapes))], dtype=np.float64
        )

    scale = arrays.get("state_scale.0")
    model = NoisePredictor(
        data_dim=data_dim,
        embed_dim=embed_dim,
        hidden=hidden,
        flat=vector("param"),
        state_scale=None if scale is None else np.array(scale, dtype=np.float64),
    )
    eh = header["ema"]
    ema = EmaState(
        shadow=vector("ema"),
        decay=float(eh["decay"]),
        start_step=int(eh["start_step"]),
        update_interval=int(eh["update_interval"]),
    )
    ah = header["adam"]
    adam = AdamState(
        m=vector("adam_m"),
        v=vector("adam_v"),
        step=int(ah["step"]),
        beta1=float(ah["beta1"]),
        beta2=float(ah["beta2"]),
        eps=float(ah["eps"]),
    )
    ph = header["plateau"]
    plateau = PlateauLrState(
        current_lr=float(ph["current_lr"]),
        max_lr=float(ph["max_lr"]),
        min_lr=float(ph["min_lr"]),
        factor=float(ph["factor"]),
        patience=int(ph["patience"]),
        cooldown=int(ph["cooldown"]),
        threshold=float(ph["threshold"]),
        best_metric=float(ph["best_metric"]),
        bad_count=int(ph["bad_count"]),
        cooldown_count=int(ph["cooldown_count"]),
    )
    return Checkpoint(
        T=T,
        s=float(header["s"]),
        step=int(header["step"]),
        model=model,
        ema=ema,
        adam=adam,
        plateau=plateau,
    )
