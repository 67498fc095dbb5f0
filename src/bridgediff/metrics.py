"""Sample-quality metrics: per-input diversity, energy distance, moments.

The energy distance sums pair distances in fixed-size tiles, so its memory
does not depend on the set sizes and a full 40k-row reference works. The
tiles run on the workers ``parallel.run`` picks, each worker holding 1 MiB
of tile buffers. The tile sums are combined exactly, so the result is the
same float for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel


def diversity(sets: list[np.ndarray], k: int = 5) -> float:
    """Average per-dimension spread across k samples of the same input.

    For each conditioning input: the standard deviation of its k samples,
    per dimension, averaged over dimensions; then averaged over inputs.
    Population form (divisor k). Reported in raw data units.
    """
    if not sets:
        raise ValueError("need at least one sample set")
    per_input = []
    dim = None
    for i, arr in enumerate(sets):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != k:
            raise ValueError(f"set {i} must hold exactly k={k} samples, got shape {arr.shape}")
        if dim is None:
            dim = arr.shape[1]
        elif arr.shape[1] != dim:
            raise ValueError(f"set {i} has dimension {arr.shape[1]}, expected {dim}")
        per_input.append(float(np.mean(np.std(arr, axis=0))))
    return float(np.mean(per_input))


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
        while (tile := claim()) is not None:
            i, j = tile
            rows = a[i : i + _TILE]
            cols = b[j : j + _TILE]
            dist = acc[: rows.shape[0], : cols.shape[0]]
            sq = tmp[: rows.shape[0], : cols.shape[0]]
            np.subtract(rows[:, 0, None], cols[None, :, 0], out=dist)
            np.multiply(dist, dist, out=dist)
            for k in range(1, a.shape[1]):
                np.subtract(rows[:, k, None], cols[None, :, k], out=sq)
                np.multiply(sq, sq, out=sq)
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


def energy_distance(a, b) -> float:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs; zero iff the empirical
    distributions coincide (up to estimator noise).

    Each mean is the all-pairs V-statistic (diagonal included), so
    identical sets give 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("both sample lists must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    n, m = a.shape[0], b.shape[0]
    return (
        2.0 * _pair_distance_sum(a, b) / (n * m)
        - _pair_distance_sum(a, a) / (n * n)
        - _pair_distance_sum(b, b) / (m * m)
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
