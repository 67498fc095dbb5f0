"""Single-file binary checkpoints with deterministic bytes.

Layout:

    bytes 0..7    magic b"BDGCKPT1"
    bytes 8..11   uint32 little-endian length of the JSON header
    then          UTF-8 JSON header (compact, sorted keys)
    then          payload: float64 little-endian vectors, each whole

The payload holds the model parameters, the EMA shadow and the Adam
moments ``m`` and ``v`` (each laid out as ``NoisePredictor.flat``), then
the state scale if the model has one. The header records the schedule
(T, s), architecture sizes, training step, the scalar fields of each
optimizer state (sections ``adam``, ``ema``, ``plateau``) and ``arrays``,
which ``_layout`` builds from the layer shapes and the scale's length: one
``{"name", "shape"}`` record per layer of each vector (``param.i``,
``ema.i``, ``adam_m.i``, ``adam_v.i``), then ``state_scale.0``.

A load requires ``arrays`` to be exactly that list for the declared sizes
(with a scale of T + 1 entries), the payload to be exactly those vectors,
JSON integers in integer fields and a step >= 0. Every other rule is its
owner's, as in a fresh run: ``build_schedule`` (T, s), ``nn.layer_shapes``
(sizes), ``NoisePredictor`` (finite parameters, finite positive scale),
``EmaState`` (finite shadow), ``AdamState`` (finite moments, v >= 0) and
the optimizer states' scalar rules. A bad value is a ``ValueError`` naming
the file. The payload is read with one ``np.frombuffer`` and each vector
copied once, so a loaded checkpoint shares no memory with the file or any
other object. Saving the same state twice gives identical bytes, a
load/save round trip is lossless, and a failed write
(``fileio.write_atomic``) leaves any earlier file at that path as it was.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .nn import NoisePredictor, layer_shapes
from .optim import AdamState, EmaState, PlateauLrState
from .schedule import build_schedule

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


# The payload's vectors before the state scale, in order: record prefix ->
# (Checkpoint attribute, vector field).
_VECTORS = {"param": ("model", "flat"), "ema": ("ema", "shadow"),
            "adam_m": ("adam", "m"), "adam_v": ("adam", "v")}


def _scalar_fields(cls) -> dict[str, type]:
    """Name and type of each field of ``cls`` that is not a vector."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] is not np.ndarray}


# Header section (and Checkpoint attribute) -> the optimizer state kept there
# and the name and type of each of its scalar fields.
_STATES = {key: (cls, _scalar_fields(cls))
           for key, cls in (("adam", AdamState), ("ema", EmaState), ("plateau", PlateauLrState))}


def _layout(shapes: list[tuple[int, ...]], scale_len: int | None) -> list[dict]:
    """The header's ``arrays``: one record per layer of each vector, in
    payload order, then the state scale's when there is one."""
    records = [{"name": f"{prefix}.{i}", "shape": list(shape)}
               for prefix in _VECTORS for i, shape in enumerate(shapes)]
    if scale_len is not None:
        records.append({"name": "state_scale.0", "shape": [scale_len]})
    return records


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    model, scale = ckpt.model, ckpt.model.state_scale
    vectors = [getattr(getattr(ckpt, owner), name) for owner, name in _VECTORS.values()]
    vectors += [] if scale is None else [scale]
    header = {
        "version": VERSION,
        "T": int(ckpt.T),
        "s": float(ckpt.s),
        "step": int(ckpt.step),
        "model": {
            "data_dim": model.data_dim,
            "embed_dim": model.embed_dim,
            "hidden": list(model.hidden),
            "activation": "silu",
        },
        "arrays": _layout(layer_shapes(model.data_dim, model.embed_dim, model.hidden),
                          None if scale is None else scale.size),
    }
    for key, (_, scalars) in _STATES.items():
        header[key] = {name: getattr(getattr(ckpt, key), name) for name in scalars}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(Path(path), MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
                 *(np.ascontiguousarray(vec, dtype="<f8").tobytes() for vec in vectors))


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
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad checkpoint header in {path}: {exc}") from exc


def _layout_mismatch(records: list, layout: list[dict]) -> str | None:
    """The first record that differs from ``layout``, as JSON, so that a
    float 6.0 is not the integer 6; None when every record matches."""
    for i in range(max(len(records), len(layout))):
        got, want = (json.dumps(r[i], sort_keys=True, separators=(",", ":")) if i < len(r)
                     else "nothing" for r in (records, layout))
        if got != want:
            return f"record {i} is {got}, expected {want}"
    return None


def _from_header(header: dict, blob: bytes, offset: int, path) -> Checkpoint:
    mh = header["model"]
    if mh["activation"] != "silu":
        raise ValueError(f"unsupported activation {mh['activation']!r} in {path}; only 'silu' exists")
    T = _typed(header["T"], int, "T")
    s = _typed(header["s"], float, "s")
    step = _typed(header["step"], int, "step")
    if step < 0:
        raise ValueError(f"bad checkpoint header in {path}: step must be >= 0, got {step}")
    try:
        build_schedule(T, s)
    except ValueError as exc:
        raise ValueError(f"bad schedule in {path}: {exc}") from exc
    data_dim, embed_dim = (_typed(mh[key], int, f"model.{key}") for key in ("data_dim", "embed_dim"))
    hidden = tuple(_typed(h, int, f"model.hidden[{i}]") for i, h in enumerate(mh["hidden"]))
    try:
        shapes = layer_shapes(data_dim, embed_dim, hidden)
    except ValueError as exc:
        raise ValueError(f"bad sizes in {path}: {exc}") from exc

    records = header["arrays"]
    if type(records) is not list:
        raise TypeError(f"arrays must be a list, got {records!r}")
    # A record past the vectors' is the state scale's, which needs T + 1 entries.
    scale_len = T + 1 if len(records) > len(_VECTORS) * len(shapes) else None
    mismatch = _layout_mismatch(records, _layout(shapes, scale_len))
    if mismatch:
        raise ValueError(f"checkpoint arrays in {path} do not match the declared architecture: "
                         f"{mismatch}")
    n = sum(math.prod(shape) for shape in shapes)
    count = len(_VECTORS) * n + (scale_len or 0)
    if len(blob) - offset < 8 * count:
        raise ValueError(f"truncated checkpoint payload in {path}")
    if len(blob) - offset > 8 * count:
        raise ValueError(f"trailing bytes in checkpoint {path}")
    payload = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)

    # One new native float64 vector each, keyed by owner and field.
    vectors: dict[str, dict[str, np.ndarray]] = {}
    for k, (owner, name) in enumerate(_VECTORS.values()):
        vectors.setdefault(owner, {})[name] = np.array(payload[k * n : (k + 1) * n], dtype=np.float64)
    scale = None if scale_len is None else np.array(payload[-scale_len:], dtype=np.float64)
    model = _restore("model", path, lambda: NoisePredictor(
        data_dim, embed_dim, hidden, **vectors["model"], state_scale=scale))
    states = {key: _restore(key, path, lambda: cls(
                  **vectors.get(key, {}), **{name: _typed(header[key][name], kind, f"{key}.{name}")
                                             for name, kind in scalars.items()}))
              for key, (cls, scalars) in _STATES.items()}
    return Checkpoint(T=T, s=s, step=step, model=model, **states)


def _typed(value, kind: type, key: str):
    """``value`` as ``kind``: a JSON integer, or a JSON float for a float field."""
    if type(value) is not int and (kind is int or type(value) is not float):
        raise TypeError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _restore(key: str, path, build):
    """``build()``, run with its owner's checks: a bad value is a
    ``ValueError`` naming the file, a missing header key a ``KeyError``."""
    try:
        return build()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {key} value in checkpoint {path}: {exc}") from exc
