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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .nn import NoisePredictor
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
    for i, arr in enumerate(model.params()):
        records.append((f"param.{i}", arr))
    for i, arr in enumerate(ema.shadow):
        records.append((f"ema.{i}", arr))
    for i, arr in enumerate(adam.m):
        records.append((f"adam_m.{i}", arr))
    for i, arr in enumerate(adam.v):
        records.append((f"adam_v.{i}", arr))
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
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for _, arr in records:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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


def _from_header(header: dict, blob: bytes, offset: int, path) -> Checkpoint:
    arrays: dict[str, np.ndarray] = {}
    for record in header["arrays"]:
        shape = tuple(record["shape"])
        size = int(np.prod(shape)) if shape else 1
        end = offset + 8 * size
        if end > len(blob):
            raise ValueError(f"truncated checkpoint payload in {path}")
        arrays[record["name"]] = np.frombuffer(
            blob, dtype="<f8", count=size, offset=offset
        ).astype(np.float64).reshape(shape)
        offset = end
    if offset != len(blob):
        raise ValueError(f"trailing bytes in checkpoint {path}")

    def collect(prefix: str) -> list[np.ndarray]:
        out = []
        i = 0
        while f"{prefix}.{i}" in arrays:
            out.append(np.array(arrays[f"{prefix}.{i}"]))
            i += 1
        return out

    mh = header["model"]
    if mh["activation"] != "silu":
        raise ValueError(f"unsupported activation {mh['activation']!r} in {path}; only 'silu' exists")
    params = collect("param")
    scales = collect("state_scale")
    model = NoisePredictor(
        data_dim=int(mh["data_dim"]),
        embed_dim=int(mh["embed_dim"]),
        hidden=tuple(int(h) for h in mh["hidden"]),
        weights=params[0::2],
        biases=params[1::2],
        state_scale=scales[0] if scales else None,
    )
    eh = header["ema"]
    ema = EmaState(
        shadow=collect("ema"),
        decay=float(eh["decay"]),
        start_step=int(eh["start_step"]),
        update_interval=int(eh["update_interval"]),
    )
    ah = header["adam"]
    adam = AdamState(
        m=collect("adam_m"),
        v=collect("adam_v"),
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
        T=int(header["T"]),
        s=float(header["s"]),
        step=int(header["step"]),
        model=model,
        ema=ema,
        adam=adam,
        plateau=plateau,
    )
