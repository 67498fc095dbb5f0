"""Paired desk-scale translation datasets and the package's CSV formats.

Paired CSV: UTF-8 with a '#'-prefixed metadata header (one key=value per
line), then a column header ``x_0..x_{d-1},y_0..y_{d-1}``, then one row
per pair. Floats are written with repr so the round trip is bit-exact, and
the header carries a decimal CRC32 over the data section (column header
plus rows) so truncation or corruption fails loudly instead of silently.

The samples CSV of ``bridgediff sample`` has the same layout and lives
here too: ``write_samples`` streams it (``write_trajectory_csv`` the
trajectories beside it) and ``read_sample_set`` reads a set's shards. Both
formats share ``format_metadata`` and ``read_metadata`` (the metadata
lines), ``read_line`` (column headers) and ``read_rows`` (``np.loadtxt``).
"""

from __future__ import annotations

import contextlib
import math
import warnings
import zlib
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from .fileio import format_float, replacing, write_atomic
from .oracle import JointGaussianSpec
from .seeding import rng_for

FORMAT_NAME = "paired-csv"
FORMAT_VERSION = 1

# The format and version lines of the samples CSV ``write_samples`` writes.
SAMPLES_FORMAT = "samples-csv"
SAMPLES_VERSION = 1
# Metadata every shard of one sample set shares; ``n`` counts a shard's own
# inputs and may differ.
SHARD_KEYS = ("seed", "steps", "eta", "k", "dim")


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
    return v if isinstance(v, str) else format_float(v)


def format_metadata(meta: dict) -> str:
    """One ``# key=value`` line per entry of ``meta``, in its order: a str
    value as it is, an int as a decimal and a float in its round-trip
    spelling (``fileio.format_float``)."""
    return "".join(f"# {key}={_format_value(value)}\n" for key, value in meta.items())


def save(dataset: PairedDataset, path) -> None:
    """Write the dataset; the round trip through load() is bit-exact. The
    file is written beside ``path`` and moved into place once complete, so
    a failed write leaves any earlier file at ``path`` as it was."""
    rows = (",".join(map(format_float, (*x0, *y))) for x0, y in zip(dataset.x0, dataset.y))
    data_text = "\n".join([",".join(_columns(dataset.dim)), *rows]) + "\n"
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "generator": dataset.generator,
            **{f"param.{key}": dataset.params[key] for key in sorted(dataset.params)},
            "seed": dataset.seed, "n": dataset.n, "dim": dataset.dim,
            "crc32": zlib.crc32(data_text.encode("utf-8"))}
    write_atomic(Path(path), format_metadata(meta), data_text)


def _columns(dim: int) -> list[str]:
    return [f"{c}_{i}" for c in "xy" for i in range(dim)]


def read_line(f, path, lineno: int) -> str:
    """The next line of binary file ``f``, line ``lineno`` of ``path``, less
    its line end; a byte that is not UTF-8 is a ``ValueError`` naming it."""
    try:
        return f.readline().decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} line {lineno}: {exc}") from None


def read_metadata(f, path, name: str = FORMAT_NAME, version: int = FORMAT_VERSION) -> tuple[dict, int]:
    """The entries of the '#'-prefixed ``key=value`` lines that open binary
    file ``f`` (``read_line`` reads each), and the number of the line after
    them, the column header, at which ``f`` is left. A line without '=', or
    a format or version other than ``name`` and ``version``, is a
    ``ValueError`` naming ``path``."""
    meta: dict[str, str] = {}
    lineno = 1
    while f.peek(1)[:1] == b"#":
        line = read_line(f, path, lineno)
        key, sep, value = line[1:].strip().partition("=")
        if not sep:
            raise ValueError(f"malformed metadata line in {path}: {line!r}")
        meta[key.strip()] = value
        lineno += 1
    if meta.get("format") != name:
        raise ValueError(f"not a {name} file: {path}")
    if meta.get("version") != str(version):
        raise ValueError(f"unsupported {name} version {meta.get('version')!r} in {path}")
    return meta, lineno


# Bytes read at a time while load() checks the data section's CRC32.
_READ_BYTES = 1 << 16


def _meta_int(meta: dict, key: str, path, least: int | None = None) -> int:
    value = meta[key]
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"metadata {key} in {path} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ValueError(f"metadata {key} in {path} must be at least {least}, got {number}")
    return number


def _meta_param(meta: dict, key: str, path) -> int | float:
    value = meta[key]
    for convert in (int, float):
        try:
            return convert(value)
        except ValueError:
            pass
    raise ValueError(f"metadata {key} in {path} must be an int or a float, got {value!r}")


def read_rows(f, path, dtype: np.dtype, first_line: int) -> np.ndarray:
    """The rows left in binary file ``f`` as a 1-d array of the structured
    ``dtype``, one column per entry, parsed by ``np.loadtxt`` as strict
    UTF-8 with the values ``int`` and ``float`` give. A row it cannot read
    is a ``ValueError`` naming ``path`` and the line, ``f``'s next being
    line ``first_line``: the first that does not decode, is blank, has
    another field count or a field ``int``/``float`` rejects, else the last
    line loadtxt read (an index beyond int64, say)."""
    start, taken, rows = f.tell(), count(), None
    # loadtxt warns when there are no rows, and its errors count rows from 0
    # or from 1; zip advances ``taken`` once per line read, not at the end.
    with warnings.catch_warnings(), contextlib.suppress(ValueError):
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt((line for line, _ in zip(f, taken)), dtype, delimiter=",",
                          comments=None, encoding="utf-8", ndmin=1)
    read = next(taken)  # the lines loadtxt read
    if rows is not None and len(rows) == read:
        return rows
    kinds = [int if dtype[name].base.kind == "i" else float
             for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    f.seek(start)
    for lineno in range(first_line, first_line + read):
        fields = read_line(f, path, lineno).split(",")
        try:
            if len(fields) != len(kinds):
                raise ValueError("blank line" if fields == [""] else
                                 f"{len(fields)} fields, expected {len(kinds)}")
            [kind(text) for kind, text in zip(kinds, fields)]  # raises on a bad field
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    raise ValueError(f"{path} line {first_line + read - 1}: a field is out of range "
                     "or not a plain number")


def load(path) -> PairedDataset:
    """Read a dataset, verifying the CRC32 of the data section.

    The file is read once, in this order, the first fault being one
    ``ValueError`` naming the file: the metadata lines (``read_metadata``);
    their values (``seed``, ``n``, ``dim``, ``crc32`` integers, ``n`` and
    ``dim`` at least 1, each ``param.*`` an int or a float; the key named);
    the data section in pieces, for the checksum, then the row count; the
    column header, exactly ``x_0..x_{d-1},y_0..y_{d-1}`` for ``dim`` = d;
    the rows (``read_rows``). A line that is not UTF-8 is named.
    """
    with open(path, "rb") as f:
        meta, header_line = read_metadata(f, path)
        missing = [k for k in ("generator", "seed", "n", "dim", "crc32") if k not in meta]
        if missing:
            raise ValueError(f"{path} lacks metadata line(s): {', '.join(missing)}")
        seed = _meta_int(meta, "seed", path)
        n = _meta_int(meta, "n", path, least=1)
        dim = _meta_int(meta, "dim", path, least=1)
        crc32 = _meta_int(meta, "crc32", path)
        params = {key[6:]: _meta_param(meta, key, path) for key in meta if key.startswith("param.")}
        data_start = f.tell()
        crc, newlines, last = 0, 0, b"\n"
        while piece := f.read(_READ_BYTES):
            crc = zlib.crc32(piece, crc)
            newlines += piece.count(b"\n")
            last = piece[-1:]
        if crc != crc32:
            raise ValueError(f"checksum mismatch in {path} (truncated or corrupted file)")
        rows = newlines - (last == b"\n")  # lines, less the column header
        if rows != n:
            raise ValueError(f"expected {n} rows in {path}, found {rows}")
        f.seek(data_start)
        columns = read_line(f, path, header_line).split(",")
        # The length goes first: a large dim builds no list of names.
        if len(columns) != 2 * dim or columns != _columns(dim):
            raise ValueError(f"{path} line {header_line}: the column header must be "
                             f"x_0..x_{dim - 1},y_0..y_{dim - 1} for dim={dim}")
        values = read_rows(f, path, np.dtype([("x0", "f8", dim), ("y", "f8", dim)]), header_line + 1)
    return PairedDataset(x0=values["x0"], y=values["y"], generator=meta["generator"],
                         seed=seed, params=params)


def _row(index, values) -> str:
    """A samples or trajectories row: ``index``'s integers, then ``values``."""
    return ",".join(map(str, index)) + "," + ",".join(map(format_float, values)) + "\n"


def write_trajectory_csv(f, traj, chains) -> None:
    """Append to the open text file ``f`` the rows of a recorded trajectory
    of ``len(chains)`` chains, chain by chain: ``row,rep,t,dim_0,...`` for
    each step visited (t = T down to 0), ``(row, rep) = chains[b]``."""
    steps = [int(t) for t, _ in traj]
    states = np.array([state for _, state in traj]).reshape(len(traj), len(chains), -1)
    for b, (row, rep) in enumerate(chains):
        f.writelines(_row((row, rep, t), x) for t, x in zip(steps, states[:, b].tolist()))


def write_samples(out_dir: Path, meta: dict, blocks, trajectories: bool) -> Path:
    """Write ``out_dir/samples.csv``, ``meta`` after its format and version,
    and return its path. ``blocks`` yields ``(chains, x0, traj)`` per block:
    its (row, rep) pairs, their samples and, with ``trajectories``, their
    recorded trajectory for ``trajectories.csv``. Both files replace their
    paths (with no ``trajectories``, an earlier run's is removed) only once
    ``blocks`` is exhausted, so a failed run, ``blocks`` raising included,
    leaves neither (``fileio.replacing``)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path, traj_path = out_dir / "samples.csv", out_dir / "trajectories.csv"
    dims = ",".join(f"dim_{i}" for i in range(meta["dim"]))
    with replacing(samples_path, *([traj_path] if trajectories else [])) as (f, *traj_f):
        f.write(format_metadata({"format": SAMPLES_FORMAT, "version": SAMPLES_VERSION, **meta})
                + f"y_index,sample_index,{dims}\n")
        if trajectories:
            traj_f[0].write(f"y_index,sample_index,t,{dims}\n")  # no metadata
        for chains, x0, traj in blocks:
            f.writelines(_row(chain, x) for chain, x in zip(chains, x0))
            if trajectories:
                write_trajectory_csv(traj_f[0], traj, chains)
    if not trajectories:
        traj_path.unlink(missing_ok=True)
    return samples_path


def read_sample_set(paths, k: int):
    """The first file's metadata, and the float64 rows of the sample set
    whose shards are ``paths`` in file order and grouped, (inputs, k, dim),
    inputs ascending. Each rule broken is a one-line ``ValueError``; per
    file, in order: ``read_metadata``, a column header (``read_line``) that
    starts ``y_index,sample_index``, ``SHARD_KEYS`` equal to the first
    file's, its own ``dim`` and ``k`` (if present) equal to its value
    columns and ``k``, the first file's value columns, ``read_rows``, sample
    indices in 0..k-1, finite values. Then the set must hold a row, repeat
    no (y_index, sample_index) pair and hold k rows for each input (the
    lowest short one named). Each row rule names the first line breaking it."""
    shards = []  # (path, line number of its first row, rows) per file
    for i, p in enumerate(paths):
        path = Path(p)
        if not path.exists():
            raise ValueError(f"samples file not found: {path}")
        with open(path, "rb") as f:
            meta, header_line = read_metadata(f, path, SAMPLES_FORMAT, SAMPLES_VERSION)
            header = read_line(f, path, header_line).split(",")
            if header[:2] != ["y_index", "sample_index"]:
                raise ValueError(f"not a samples CSV: {path}")
            width = len(header) - 2
            if i == 0:
                set_meta, set_width = meta, width
            for key in SHARD_KEYS:
                if meta.get(key) != set_meta.get(key):
                    raise ValueError(f"samples files disagree on {key}: {paths[0]} has "
                                     f"{set_meta.get(key)!r}, {p} has {meta.get(key)!r}")
            for key, actual, source in (("dim", width, "value columns"), ("k", k, "--k")):
                if key in meta and meta[key] != str(actual):
                    raise ValueError(f"{p}: metadata {key}={meta[key]!r} does not match "
                                     f"{source} ({actual})")
            if width != set_width:
                raise ValueError(f"samples files disagree on value columns: {paths[0]} has "
                                 f"{set_width}, {p} has {width}")
            first = header_line + 1
            rows = read_rows(f, path, np.dtype([("index", "i8", 2), ("value", "f8", width)]), first)
        rep = rows["index"][:, 1]
        if (bad := np.flatnonzero((rep < 0) | (rep >= k))).size:
            raise ValueError(f"{path} line {first + bad[0]}: sample_index {rep[bad[0]]} "
                             f"outside 0..{k - 1}")
        if (bad := np.flatnonzero(~np.isfinite(rows["value"]).all(axis=1))).size:
            raise ValueError(f"{path} line {first + bad[0]}: non-finite sample value")
        shards.append((path, first, rows))
    if not any(len(rows) for *_, rows in shards):
        raise ValueError("samples files contain no rows")
    y_idx, rep = (np.concatenate([rows["index"][:, c] for *_, rows in shards]) for c in (0, 1))
    order = np.lexsort((rep, y_idx))  # stable: equal pairs keep their row order
    repeats = order[1:][(np.diff(y_idx[order]) == 0) & (np.diff(rep[order]) == 0)]
    if repeats.size:
        row = int(repeats.min())
        for path, first, rows in shards:
            if row < len(rows):
                raise ValueError(f"{path} line {first + row}: (y_index, sample_index) = "
                                 f"{tuple(map(int, rows['index'][row]))} appears twice")
            row -= len(rows)
    inputs, counts = np.unique(y_idx, return_counts=True)
    if (bad := np.flatnonzero(counts != k)).size:
        raise ValueError(f"conditioning input {inputs[bad[0]]} has {counts[bad[0]]} samples, "
                         f"expected k={k}")
    values = np.concatenate([rows["value"] for *_, rows in shards])
    # A stable sort by y_index keeps each input's rows in file order.
    groups = values[np.argsort(y_idx, kind="stable")].reshape(len(inputs), k, values.shape[1])
    return set_meta, values, groups
