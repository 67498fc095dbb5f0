"""Sample-quality metrics: per-input diversity, energy distance, moments.

The energy distance sums pair distances in fixed-size tiles on the
workers ``parallel.run`` picks (``_pair_distance_sum``), so its memory does
not depend on the set sizes, a full 40k-row reference works, and the result
is the same float for any worker count.

The reference's own term depends on the reference alone, so a caller that
scores many sample sets against one reference can compute it once with
``self_distance_sum``, keep it under ``self_distance_key`` and pass it to
``energy_distance``; ``reference_self_sum``, which ``bridgediff eval`` calls,
holds every rule for keeping it in a file beside the reference.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .fileio import write_atomic


def diversity(sets, k: int = 5) -> float:
    """Average per-dimension spread across k samples of the same input.

    For each conditioning input: the standard deviation of its k samples,
    per dimension, averaged over dimensions; then averaged over inputs.
    Population form (divisor k). Reported in raw data units. ``sets`` is an
    (inputs, k, d) float64 array, read without a copy, or a list of (k, d)
    arrays.
    """
    if len(sets) == 0:
        raise ValueError("need at least one sample set")
    shapes = [sets.shape[1:]] if isinstance(sets, np.ndarray) else [np.shape(s) for s in sets]
    for i, shape in enumerate(shapes):  # set 0's shape is checked first
        if len(shape) != 2 or shape[0] != k:
            raise ValueError(f"set {i} must hold exactly k={k} samples, got shape {shape}")
        if shape[1] != shapes[0][1]:
            raise ValueError(f"set {i} has dimension {shape[1]}, expected {shapes[0][1]}")
    return float(np.mean(np.mean(np.std(np.asarray(sets, dtype=np.float64), axis=1), axis=1)))


# Side of the square tiles the pair sums run in: each worker's two
# (tile, tile) float64 buffers, 1 MiB together, bound its memory whatever the
# set sizes.
_TILE = 256


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to ``partials`` without rounding (Shewchuk's msum).

    ``partials`` holds non-overlapping floats whose exact sum is the exact
    sum of everything added so far, so ``math.fsum`` of any number of such
    lists rounds the exact total once, as ``math.fsum`` of all the values
    would. Only finite values may be added.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _pair_distance_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of |a_i - b_j| over all pairs (i, j), diagonal included.

    Works tile by tile and coordinate by coordinate in two reused buffers
    per worker, so no (n, m, d) difference array is built. When ``a is b``
    only tiles on or above the diagonal are visited and each one above it
    counts twice: |a_i - a_j| and |a_j - a_i| are the same float.

    An (nr, nc) tile occupies the first nr·nc entries of a buffer, so it is
    contiguous however narrow it is. For each coordinate k, ``np.matmul``
    of ``lhs = [a_ik, 1]`` (nr, 2) and ``rhs = [1; -b_jk]`` (2, nc) writes
    ``a_ik·1 + 1·(-b_jk)``: both products are exact, so the one rounding is
    that of ``a_ik - b_jk`` in any summation order, with or without FMA.
    Only the sign of an exact zero can differ from ``np.subtract``'s, and
    squaring erases it. Only real pairs are computed, so no stale buffer
    entry can overflow. The squares are added, rooted and summed in place,
    contiguous, so numpy needs no buffered reduction for any tile shape.

    The tiles are spread over workers with ``parallel.run``: each worker
    claims the next tile from one shared generator. Each keeps its tile
    sums as exact partials and the total is ``math.fsum`` of them all,
    which is the correctly rounded sum of the tile sums: the result does
    not depend on the worker count or on which worker summed which tile.
    A worker's failure is raised here, as ``parallel.run`` raises it.
    """
    if a.shape[1] == 0:
        return 0.0  # no coordinates: every distance is zero
    same = a is b
    row_starts = range(0, a.shape[0], _TILE)
    tiles = ((i, j) for i in row_starts for j in range(i if same else 0, b.shape[0], _TILE))
    r = len(row_starts)
    n_tiles = r * (r + 1) // 2 if same else r * len(range(0, b.shape[0], _TILE))

    def sum_tiles(claim) -> list[float]:
        mine: list[float] = []  # exact partials of the finite tile sums
        nonfinite: list[float] = []  # inf or nan tile sums, kept as they are
        acc = np.empty((min(a.shape[0], _TILE), min(b.shape[0], _TILE)))
        tmp = np.empty_like(acc)
        lhs = np.ones((acc.shape[0], 2))  # [a_ik, 1]
        rhs = np.ones((2, acc.shape[1]))  # [1; -b_jk]
        while (tile := claim()) is not None:
            i, j = tile
            rows = a[i : i + _TILE]
            cols = b[j : j + _TILE]
            nr, nc = rows.shape[0], cols.shape[0]
            dist = acc.reshape(-1)[: nr * nc].reshape(nr, nc)
            sq = tmp.reshape(-1)[: nr * nc].reshape(nr, nc)
            for k in range(a.shape[1]):
                lhs[:nr, 0] = rows[:, k]
                np.negative(cols[:, k], out=rhs[1, :nc])
                out = sq if k else dist
                np.matmul(lhs[:nr], rhs[:, :nc], out=out)
                np.multiply(out, out, out=out)
                if k:
                    np.add(dist, sq, out=dist)
            np.sqrt(dist, out=dist)
            total = float(dist.sum())
            if same and j > i:
                total *= 2.0
            if math.isfinite(total):
                _add_exact(mine, total)
            else:  # math.fsum treats it as in a serial sum
                nonfinite.append(total)
        return mine + nonfinite

    parts = parallel.run(sum_tiles, tiles, n_tiles)
    return math.fsum(x for part in parts for x in part)


def _point_set(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def self_distance_sum(b) -> float:
    """Sum of |b_i - b_j| over all pairs (i, j), diagonal included: the
    term of ``energy_distance(a, b)`` that depends on ``b`` alone."""
    b = _point_set(b)
    return _pair_distance_sum(b, b)


def self_distance_key(b) -> str:
    """One line naming everything the bits of ``self_distance_sum(b)``
    depend on: the set's size, the sha256 of its C-order float64 bytes, the
    tile side, which fixes the tiles, and numpy's version, which fixes the
    order in which each tile is summed."""
    # Imported here, not with the package: hashlib loads OpenSSL, about
    # 3.7 MB of resident memory that only this key needs.
    import hashlib

    b = np.ascontiguousarray(_point_set(b))
    return (f"n={b.shape[0]} d={b.shape[1]} sha256={hashlib.sha256(b).hexdigest()} "
            f"tile={_TILE} numpy={np.__version__}")


SELF_SUM_FORMAT = "bridgediff-selfdist 3"
SELF_SUM_SUFFIX = ".selfdist"


def _self_sum_text(head: str, value: float) -> str:
    body = f"{head}{value.hex()}\n"
    return f"{body}crc32={zlib.crc32(body.encode('ascii'))}\n"


def reference_self_sum(path, b) -> float:
    """``self_distance_sum(b)`` for the points ``b`` of the reference file
    ``path``, kept in ``path`` + SELF_SUM_SUFFIX: SELF_SUM_FORMAT, ``b``'s
    key, the sum as ``float.hex``, and ``crc32=<decimal>`` of those lines.

    The file is believed only when it is exactly that text for a finite,
    non-negative value in canonical spelling, so the value has the bits a
    fresh computation would give, and belongs to the current user or the
    reference's owner, so a file planted by anyone else who can create
    files there is not. Otherwise the sum is computed and the file
    rewritten atomically; if that write fails, as in a read-only directory,
    the sum is still returned and no file is left. (Format 1 summed narrow
    tiles in another layout; format 2 had no checksum.)
    """
    cache = Path(f"{path}{SELF_SUM_SUFFIX}")
    head = f"{SELF_SUM_FORMAT}\n{self_distance_key(b)}\n"
    try:
        with open(cache, encoding="ascii") as f:
            owner = os.fstat(f.fileno()).st_uid
            text = f.read(4096)  # more than a well-formed file holds
        value = float.fromhex(text[len(head) :].partition("\n")[0])
        if (owner in (os.geteuid(), os.stat(path).st_uid)
                and text == _self_sum_text(head, value) and math.isfinite(value)
                and math.copysign(1.0, value) > 0):
            return value
    except (OSError, ValueError, OverflowError):
        pass  # no usable file: compute the sum and write one
    value = self_distance_sum(b)
    try:
        write_atomic(cache, _self_sum_text(head, value))
    except OSError:
        pass  # the caller's result does not depend on the file
    return value


def energy_distance(a, b, b_self_sum: float | None = None) -> float:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs; zero iff the empirical
    distributions coincide (up to estimator noise).

    Each mean is the all-pairs V-statistic (diagonal included), so
    identical sets give 0. ``b_self_sum``, when given, is
    ``self_distance_sum(b)`` computed earlier; the result is then the same
    float as without it.
    """
    a = _point_set(a)
    b = _point_set(b)
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("both sample lists must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    n, m = a.shape[0], b.shape[0]
    if b_self_sum is None:
        b_self_sum = _pair_distance_sum(b, b)
    return (
        2.0 * _pair_distance_sum(a, b) / (n * m)
        - _pair_distance_sum(a, a) / (n * n)
        - b_self_sum / (m * m)
    )


@dataclass(frozen=True)
class Moments:
    """Per-dimension sample mean and unbiased variance; a single sample
    reports a variance of zero."""

    mean: np.ndarray
    var: np.ndarray


def moments(samples) -> Moments:
    arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if arr.shape[0] < 1:
        raise ValueError("need at least one sample")
    mean = arr.mean(axis=0)
    if arr.shape[0] == 1:
        return Moments(mean=mean, var=np.zeros_like(mean))
    return Moments(mean=mean, var=arr.var(axis=0, ddof=1))
