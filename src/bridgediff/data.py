"""Paired desk-scale translation datasets: generation, persistence, loading.

File format: UTF-8 CSV with a '#'-prefixed metadata header (one key=value
per line), then a column header ``x_0..x_{d-1},y_0..y_{d-1}``, then one row
per pair. Floats are written with repr so the round trip is bit-exact, and
the header carries a decimal CRC32 over the data section (column header
plus rows) so truncation or corruption fails loudly instead of silently.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .oracle import JointGaussianSpec
from .seeding import rng_for

FORMAT_NAME = "paired-csv"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class PairedDataset:
    """Positionally aligned (x0, y) pairs plus generation metadata."""

    x0: np.ndarray
    y: np.ndarray
    generator: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x0.ndim != 2 or x0.shape != y.shape:
            raise ValueError(f"paired arrays must share an (n, dim) shape, got {x0.shape} and {y.shape}")
        if x0.shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")
        x0.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def dim(self) -> int:
        return self.x0.shape[1]


def gen_joint_gaussian(spec: JointGaussianSpec, dim: int, n: int, seed: int) -> PairedDataset:
    """Each dimension drawn independently from the scalar joint law."""
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    rng = rng_for(seed, "data", "joint_gaussian")
    z0 = rng.standard_normal((n, dim))
    z1 = rng.standard_normal((n, dim))
    sd0 = math.sqrt(spec.var0)
    sdy = math.sqrt(spec.vary)
    x0 = spec.mean0 + sd0 * z0
    y = spec.meany + sdy * (spec.corr * z0 + math.sqrt(1.0 - spec.corr**2) * z1)
    return PairedDataset(
        x0=x0,
        y=y,
        generator="joint_gaussian",
        seed=int(seed),
        params={
            "dim": dim, "mean0": spec.mean0, "meany": spec.meany,
            "var0": spec.var0, "vary": spec.vary, "corr": spec.corr,
        },
    )


def moons_map(points: np.ndarray) -> np.ndarray:
    """Fixed bijection between the two moon domains: rotate 90 degrees
    counterclockwise then reflect across the horizontal axis, i.e.
    (a, b) -> (-b, -a). Its own inverse."""
    pts = np.asarray(points, dtype=np.float64)
    return np.stack([-pts[..., 1], -pts[..., 0]], axis=-1)


def gen_two_moons_paired(n: int, noise_sd: float, seed: int) -> PairedDataset:
    """2-D interleaved half circles; y is the moons point pushed through
    moons_map, so the true translation is a known deterministic map."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    noise_sd = float(noise_sd)
    if noise_sd < 0.0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    rng = rng_for(seed, "data", "two_moons")
    upper = rng.integers(0, 2, size=n).astype(bool)
    theta = rng.uniform(0.0, math.pi, size=n)
    clean = np.where(
        upper[:, None],
        np.stack([np.cos(theta), np.sin(theta)], axis=1),
        np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)], axis=1),
    )
    x0 = clean + noise_sd * rng.standard_normal((n, 2))
    return PairedDataset(
        x0=x0,
        y=moons_map(x0),
        generator="two_moons",
        seed=int(seed),
        params={"noise_sd": noise_sd},
    )


def gen_binary_patterns(n: int, side: int, flip_prob: float, seed: int) -> PairedDataset:
    """side*side {0,1} grids, flattened; y is the bitwise inversion of x0
    with independent flips at rate flip_prob."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 2 <= side <= 16:
        raise ValueError(f"side must lie in 2..16, got {side}")
    flip_prob = float(flip_prob)
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip_prob must lie in [0, 1], got {flip_prob}")
    rng = rng_for(seed, "data", "binary_patterns")
    dim = side * side
    x0 = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    flips = rng.random((n, dim)) < flip_prob
    y = np.where(flips, x0, 1.0 - x0)
    return PairedDataset(
        x0=x0,
        y=y,
        generator="binary_patterns",
        seed=int(seed),
        params={"side": side, "flip_prob": flip_prob},
    )


# The generators a run config can name: name -> (parameter defaults, function).
# The function takes ``seed`` and every parameter as keywords. A default's
# type is the type a configured value for that parameter is parsed to.
GENERATORS = {
    "joint_gaussian": (
        {"n": 10000, "dim": 1, "mean0": 0.0, "meany": 0.0, "var0": 1.0, "vary": 1.0, "corr": 0.0},
        lambda n, dim, seed, **spec: gen_joint_gaussian(JointGaussianSpec(**spec), dim, n, seed),
    ),
    "two_moons": ({"n": 10000, "noise_sd": 0.05}, gen_two_moons_paired),
    "binary_patterns": ({"n": 10000, "side": 4, "flip_prob": 0.0}, gen_binary_patterns),
}


def _format_value(v) -> str:
    if isinstance(v, (bool, int, np.integer)):
        return str(int(v))
    return repr(float(v))


def save(dataset: PairedDataset, path) -> None:
    """Write the dataset; the round trip through load() is bit-exact."""
    d = dataset.dim
    columns = [f"x_{i}" for i in range(d)] + [f"y_{i}" for i in range(d)]
    lines = [",".join(columns)]
    for i in range(dataset.n):
        row = [repr(float(v)) for v in dataset.x0[i]] + [repr(float(v)) for v in dataset.y[i]]
        lines.append(",".join(row))
    data_bytes = ("\n".join(lines) + "\n").encode("utf-8")

    meta = [
        f"# format={FORMAT_NAME}",
        f"# version={FORMAT_VERSION}",
        f"# generator={dataset.generator}",
    ]
    for key in sorted(dataset.params):
        meta.append(f"# param.{key}={_format_value(dataset.params[key])}")
    meta += [
        f"# seed={dataset.seed}",
        f"# n={dataset.n}",
        f"# dim={dataset.dim}",
        f"# crc32={zlib.crc32(data_bytes)}",
    ]
    with open(path, "wb") as f:
        f.write(("\n".join(meta) + "\n").encode("utf-8"))
        f.write(data_bytes)


def read_header(path) -> dict:
    """Parse only the metadata block; rows are not touched."""
    meta: dict[str, str] = {}
    with open(path, "rb") as f:
        for raw in f:
            line = raw.decode("utf-8").rstrip("\n")
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].strip().partition("=")
            if not sep:
                raise ValueError(f"malformed metadata line in {path}: {line!r}")
            meta[key.strip()] = value
    if meta.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file: {path}")
    if int(meta.get("version", "-1")) != FORMAT_VERSION:
        raise ValueError(f"unsupported {FORMAT_NAME} version {meta.get('version')!r} in {path}")
    return meta


def load(path) -> PairedDataset:
    """Read a dataset, verifying the CRC32 of the data section."""
    meta = read_header(path)
    missing = [k for k in ("generator", "seed", "n", "dim", "crc32") if k not in meta]
    if missing:
        raise ValueError(f"{path} lacks metadata line(s): {', '.join(missing)}")
    with open(path, "rb") as f:
        blob = f.read()
    offset = 0
    while offset < len(blob) and blob[offset : offset + 1] == b"#":
        offset = blob.index(b"\n", offset) + 1
    data_bytes = blob[offset:]
    if zlib.crc32(data_bytes) != int(meta["crc32"]):
        raise ValueError(f"checksum mismatch in {path} (truncated or corrupted file)")

    lines = data_bytes.decode("utf-8").splitlines()
    n = int(meta["n"])
    dim = int(meta["dim"])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows in {path}, found {len(lines) - 1}")
    values = np.empty((n, 2 * dim))
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 2 * dim:
            raise ValueError(f"row {i} of {path} has {len(fields)} fields, expected {2 * dim}")
        values[i] = [float(v) for v in fields]

    params: dict = {}
    for key, value in meta.items():
        if key.startswith("param."):
            try:
                params[key[6:]] = int(value)
            except ValueError:
                params[key[6:]] = float(value)
    return PairedDataset(
        x0=values[:, :dim],
        y=values[:, dim:],
        generator=meta["generator"],
        seed=int(meta["seed"]),
        params=params,
    )
