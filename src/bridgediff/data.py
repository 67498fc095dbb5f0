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
from itertools import islice, repeat, takewhile
from pathlib import Path

import numpy as np

from .fileio import write_atomic
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
    """Write the dataset; the round trip through load() is bit-exact. The
    file is written beside ``path`` and moved into place once complete, so
    a failed write leaves any earlier file at ``path`` as it was."""
    d = dataset.dim
    columns = [f"x_{i}" for i in range(d)] + [f"y_{i}" for i in range(d)]
    lines = [",".join(columns)]
    for i in range(dataset.n):
        row = [repr(float(v)) for v in dataset.x0[i]] + [repr(float(v)) for v in dataset.y[i]]
        lines.append(",".join(row))
    data_text = "\n".join(lines) + "\n"

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
        f"# crc32={zlib.crc32(data_text.encode('utf-8'))}",
    ]
    write_atomic(Path(path), "\n".join(meta) + "\n", data_text)


def parse_metadata(lines, path, name: str = FORMAT_NAME, version: int = FORMAT_VERSION) -> dict:
    """The entries of a file's '#'-prefixed ``key=value`` metadata lines; a
    line without '=', or a format or version other than ``name`` and
    ``version``, is a ``ValueError`` naming ``path``."""
    meta: dict[str, str] = {}
    for line in lines:
        key, sep, value = line[1:].strip().partition("=")
        if not sep:
            raise ValueError(f"malformed metadata line in {path}: {line!r}")
        meta[key.strip()] = value
    if meta.get("format") != name:
        raise ValueError(f"not a {name} file: {path}")
    if meta.get("version") != str(version):
        raise ValueError(f"unsupported {name} version {meta.get('version')!r} in {path}")
    return meta


def read_header(path) -> dict:
    """Parse only the metadata block; rows are not touched."""
    with open(path, "rb") as f:
        lines = takewhile(lambda line: line.startswith("#"),
                          (raw.decode("utf-8").rstrip("\n") for raw in f))
        return parse_metadata(lines, path)


# Rows parsed per block in load(). Each block is joined, split and converted
# at once, which is fast; small blocks keep those temporaries small, where
# one pass over the whole file would raise the peak memory of every load.
_PARSE_ROWS = 256

# Bytes read at a time while load() checks the data section's CRC32.
_READ_BYTES = 1 << 16


def load(path) -> PairedDataset:
    """Read a dataset, verifying the CRC32 of the data section.

    The file is read twice, in pieces, and never held whole: once for the
    checksum, the row count and whether it is all ASCII, then once to parse
    the rows a block at a time.
    """
    meta = read_header(path)
    missing = [k for k in ("generator", "seed", "n", "dim", "crc32") if k not in meta]
    if missing:
        raise ValueError(f"{path} lacks metadata line(s): {', '.join(missing)}")
    with open(path, "rb") as f:
        line = f.readline()
        while line.startswith(b"#"):
            line = f.readline()
        data_start = f.tell() - len(line)
        f.seek(data_start)
        crc, newlines, last, ascii_only = 0, 0, b"\n", True
        while piece := f.read(_READ_BYTES):
            crc = zlib.crc32(piece, crc)
            newlines += piece.count(b"\n")
            last = piece[-1:]
            ascii_only = ascii_only and piece.isascii()
        if crc != int(meta["crc32"]):
            raise ValueError(f"checksum mismatch in {path} (truncated or corrupted file)")
        f.seek(data_start)
        if not ascii_only:
            # Raises the whole section's UnicodeDecodeError, with its offset,
            # for bytes that are not UTF-8; blocks end at newlines, so valid
            # UTF-8 decodes block by block too.
            str(f.read(), "utf-8")
            f.seek(data_start)
        n = int(meta["n"])
        dim = int(meta["dim"])
        rows = newlines - (last == b"\n")  # lines, less the column header
        if rows != n:
            raise ValueError(f"expected {n} rows in {path}, found {rows}")
        width = 2 * dim
        values = np.empty((n, width))
        flat = values.reshape(-1)
        f.readline()  # the column header
        for start in range(0, n, _PARSE_ROWS):
            block = b"".join(islice(f, _PARSE_ROWS)).decode("utf-8").splitlines()
            if set(map(str.count, block, repeat(","))) != {width - 1}:
                for i, text in enumerate(block, start):
                    count = text.count(",") + 1
                    if count != width:
                        raise ValueError(f"row {i} of {path} has {count} fields, expected {width}")
            fields = ",".join(block).split(",")
            flat[start * width : start * width + len(fields)] = list(map(float, fields))

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
