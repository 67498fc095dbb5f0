"""Single-file binary checkpoints with deterministic bytes.

Layout:

    bytes 0..7    magic b"BDGCKPT1"
    bytes 8..11   uint32 little-endian length of the JSON header
    then          UTF-8 JSON header (sorted keys)
    then          raw array payload

The header records the schedule (T, s), architecture sizes, training step,
one section of scalar fields per optimizer state (``adam``, ``ema``,
``plateau``), and an ordered list of array records ``{"name": ...,
"shape": [...]}``; the payload is those arrays' float64 data, C-order,
little-endian, concatenated in header order. Writing the same state twice
produces identical bytes, and a load/save round trip is lossless. A load
takes only JSON integers for integer fields and a step >= 0, then runs the
checks a fresh run does (``build_schedule``, ``nn.layer_shapes``, the
optimizer states); a bad value is a ``ValueError`` naming the file.

In memory the model parameters, the EMA shadow and the two Adam moments
are one vector each (see ``nn``). On disk each is split into per-layer
records ``param.i``, ``ema.i``, ``adam_m.i`` and ``adam_v.i``, written
from views of those vectors; a load copies each group of records into a
new vector, so a loaded checkpoint shares no memory with the file's
bytes or with any other object. A failed write (``fileio.write_atomic``)
leaves any earlier file at that path as it was.
"""

from __future__ import annotations

import json
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


# The per-layer record groups of the payload, in order: record prefix ->
# (Checkpoint attribute, vector field, whether its values must be finite).
_GROUPS = {"param": ("model", "flat", True), "ema": ("ema", "shadow", True),
           "adam_m": ("adam", "m", False), "adam_v": ("adam", "v", False)}


def _scalar_fields(cls) -> dict[str, type]:
    """Name and type of each field of ``cls`` that is not a vector."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] is not np.ndarray}


# Header section (and Checkpoint attribute) -> the optimizer state kept there
# and the name and type of each of its scalar fields.
_STATES = {key: (cls, _scalar_fields(cls))
           for key, cls in (("adam", AdamState), ("ema", EmaState), ("plateau", PlateauLrState))}


def _array_records(ckpt: Checkpoint):
    records = [(f"{prefix}.{i}", arr) for prefix, (owner, vec, _) in _GROUPS.items()
               for i, arr in enumerate(ckpt.model.split(getattr(getattr(ckpt, owner), vec)))]
    if ckpt.model.state_scale is not None:
        records.append(("state_scale.0", ckpt.model.state_scale))
    return records


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    records = _array_records(ckpt)
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
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in records],
    }
    for key, (_, scalars) in _STATES.items():
        header[key] = {name: getattr(getattr(ckpt, key), name) for name in scalars}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(Path(path), MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
                 *(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in records))


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


def _check_arrays(arrays: dict[str, np.ndarray], shapes: list[tuple[int, ...]], T: int, path) -> None:
    """The payload must be exactly the arrays of the declared architecture,
    with finite model and EMA weights and a finite, positive state scale."""
    expected = {f"{prefix}.{i}": shape for prefix in _GROUPS for i, shape in enumerate(shapes)}
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
        prefix = name.split(".")[0]
        finite = prefix == "state_scale" or _GROUPS[prefix][2]
        if finite and not np.all(np.isfinite(arrays[name])):
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
    _check_arrays(arrays, shapes, T, path)

    # One new native float64 vector per group, keyed by owner and field.
    vectors: dict[str, dict[str, np.ndarray]] = {}
    for prefix, (owner, vec, _) in _GROUPS.items():
        vectors.setdefault(owner, {})[vec] = np.concatenate(
            [arrays[f"{prefix}.{i}"].ravel() for i in range(len(shapes))], dtype=np.float64
        )
    scale = arrays.get("state_scale.0")
    model = NoisePredictor(data_dim, embed_dim, hidden, **vectors["model"],
                           state_scale=None if scale is None else np.array(scale, dtype=np.float64))
    states = {key: _restore(header, key, vectors.get(key, {}), path) for key in _STATES}
    return Checkpoint(T=T, s=s, step=step, model=model, **states)


def _typed(value, kind: type, key: str):
    """``value`` as ``kind``: a JSON integer, or a JSON float for a float field."""
    if type(value) is not int and (kind is int or type(value) is not float):
        raise TypeError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _restore(header: dict, key: str, vectors: dict[str, np.ndarray], path):
    """The state of section ``key`` from its vectors and the section's
    scalars, each held to its field's type. A bad value is a
    ``ValueError`` naming the file; a missing one is a ``KeyError``."""
    (cls, scalars), section = _STATES[key], header[key]
    try:
        return cls(**vectors, **{name: _typed(section[name], kind, f"{key}.{name}")
                                 for name, kind in scalars.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {key} value in the checkpoint header of {path}: {exc}") from exc
