"""Correctness references computed apart from the program under test.

None of these call the package's metrics or samplers: distances come from
``scipy.spatial.distance.cdist``, moments from numpy, and the zero-predictor
loss from the schedule's closed form (mix = t/T, var = 2 s (m - m^2)).
"""

from __future__ import annotations

import math

import numpy as np

# Rows of the first argument per cdist block: 500 x 40000 distances is
# 160 MB, so even the 40k x 40k self-term stays small.
BLOCK_ROWS = 500


def mean_pair_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs."""
    # Imported here so that the peak-memory probe, which runs operations
    # only, does not carry scipy in its resident set.
    from scipy.spatial.distance import cdist

    total = 0.0
    for i in range(0, a.shape[0], BLOCK_ROWS):
        total += float(cdist(a[i : i + BLOCK_ROWS], b).sum())
    return total / (a.shape[0] * b.shape[0])


def energy_distance(a: np.ndarray, b: np.ndarray, bb: float | None = None) -> float:
    """V-statistic energy distance 2E|a-b| - E|a-a'| - E|b-b'|; ``bb`` may
    carry a precomputed E|b-b'|."""
    if bb is None:
        bb = mean_pair_distance(b, b)
    return 2.0 * mean_pair_distance(a, b) - mean_pair_distance(a, a) - bb


def zero_predictor_loss(x0: np.ndarray, y: np.ndarray, T: int, s: float) -> float:
    """Expected per-coordinate training loss of a net that always predicts 0.

    The target is x_t - x0 = m (y - x0) + sqrt(2 s (m - m^2)) eps with
    m = t/T, so its mean square is m^2 |y - x0|^2 / d + 2 s (m - m^2),
    averaged here over t = 1..T-1 and over the pairs.
    """
    m = np.arange(1, T) / T
    gap = float(np.mean(np.sum((y - x0) ** 2, axis=1))) / x0.shape[1]
    return float(np.mean(m * m * gap + 2.0 * s * (m - m * m)))


def gradient_check(model, x_t, t_idx, target, T: int) -> float:
    """Worst relative error of ``loss_and_grads`` against central
    differences of the benchmark's own loss, at the entry with the largest
    gradient in each parameter array. Also checks the loss value itself."""

    def loss() -> float:
        diff = model.forward(x_t, t_idx, T) - target
        return float(np.mean(diff * diff))

    value, grads = model.loss_and_grads(x_t, t_idx, target, T)
    worst = abs(value - loss()) / abs(loss())
    for p, g in zip(model.params(), grads):
        j = int(np.argmax(np.abs(g)))
        orig = p.flat[j]
        h = 1e-5 * max(1.0, abs(orig))
        p.flat[j] = orig + h
        up = loss()
        p.flat[j] = orig - h
        down = loss()
        p.flat[j] = orig
        fd = (up - down) / (2.0 * h)
        worst = max(worst, abs(fd - g.flat[j]) / max(abs(fd), abs(g.flat[j]), 1e-12))
    return worst


def moment_gaps(out: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Gaps in mean and in variance between two samples, each in standard
    errors of the difference (both samples carry Monte Carlo noise)."""
    n, n_ref = out.size, ref.size
    v, v_ref = out.var(ddof=1), ref.var(ddof=1)
    se_mean = math.sqrt(v / n + v_ref / n_ref)
    se_var = math.sqrt(2 * v * v / (n - 1) + 2 * v_ref * v_ref / (n_ref - 1))
    return abs(out.mean() - ref.mean()) / se_mean, abs(v - v_ref) / se_var


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(y_index, values) of a samples CSV, parsed without the package."""
    idx, rows = [], []
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if not line.startswith("#")]
    for line in lines[1:]:
        fields = line.split(",")
        idx.append(int(fields[0]))
        rows.append([float(v) for v in fields[2:]])
    return np.array(idx), np.array(rows, dtype=np.float64)


def write_samples_csv(path, y_index: np.ndarray, values: np.ndarray, k: int, seed: int) -> None:
    """Samples CSV in the layout ``bridgediff sample`` writes."""
    d = values.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("# format=samples-csv\n# version=1\n")
        f.write(f"# seed={seed}\n# steps=200\n# eta=1.0\n# k={k}\n")
        f.write(f"# n={len(set(y_index.tolist()))}\n# dim={d}\n")
        f.write("y_index,sample_index," + ",".join(f"dim_{i}" for i in range(d)) + "\n")
        for row, (i, v) in enumerate(zip(y_index, values)):
            f.write(f"{int(i)},{row % k}," + ",".join(repr(float(x)) for x in v) + "\n")


def eval_reference(samples: np.ndarray, y_index: np.ndarray, reference: np.ndarray,
                   bb: float | None = None) -> dict[str, float]:
    """Every value ``bridgediff eval`` reports, computed independently."""
    groups = [samples[y_index == u] for u in np.unique(y_index)]
    out = {
        "diversity": float(np.mean([np.mean(np.std(g, axis=0)) for g in groups])),
        "energy_distance": energy_distance(samples, reference, bb),
    }
    for i in range(samples.shape[1]):
        out[f"mean_{i}"] = float(np.mean(samples[:, i]))
        out[f"var_{i}"] = float(np.var(samples[:, i], ddof=1))
    return out
