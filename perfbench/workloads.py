"""The four workloads: their inputs, one timed operation, and its checks.

Each workload drives the package only through public functions and the
CLI, looked up as module attributes at call time so that a traced run sees
the wrappers ``tracer.py`` installs. An operation does a fixed amount of
work from fixed inputs and seeds, so a run repeats whole rounds of the same
operations; see ``Workload`` for how their outputs are checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import checks
from bridgediff import checkpoint, cli, data, oracle, sampling, training


def sub_seed(seed: int, *labels: str) -> int:
    """Seed for one of the benchmark's inputs, derived from ``--seed``."""
    entropy = [seed & 0xFFFFFFFF] + [zlib.crc32(label.encode()) for label in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bridgediff {argv[0]} exited with code {code}")


# The acceptance configuration of the two-moons task (tests/test_acceptance.py).
MOONS = dict(
    T=1000, s=1.0, batch_size=128, hidden=(96, 96), embed_dim=48, lr=1e-3, min_lr=1e-5,
    ema_decay=0.995, ema_update_interval=4, ema_start_step=500, plateau_patience=10,
    plateau_cooldown=5, plateau_threshold=1e-5, val_fraction=0.05,
)
MOONS_ROWS = 40000
MOONS_NOISE = 0.05


class Workload:
    """One workload. ``round`` holds the keys of the operations in one
    round: distinct keys are distinct operations, a repeated key repeats
    one. Every operation after the first of its key must reproduce that
    first output byte for byte; the first outputs are checked against
    independent references, together once every key has run."""

    unit = ""
    round: tuple = (0,)

    def __init__(self, work: Path, cache: Path, seed: int):
        self.work = work
        self.dir = work / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.seed = seed
        self.state: dict = {}
        self.first: dict = {}
        self.quality: dict[str, float] = {}

    def seeded(self, *labels) -> int:
        return sub_seed(self.seed, self.name, *map(str, labels))

    def check(self, key, result) -> str | None:
        """None if the operation's output is correct, else what is wrong."""
        output = self.output(key, result)
        if key in self.first:
            if output == self.first[key]:
                return None
            return f"operation {key} did not reproduce its first output byte for byte"
        self.first[key] = output
        return self.check_first(key, result)

    def known_fault(self, exc: Exception) -> str | None:
        """Name of the known fault a failed operation shows, or None."""
        return None


class Train(Workload):
    """``run_training`` on 40k two-moons pairs at the acceptance model and
    optimizer config, with EMA from step 0 and validation and a checkpoint
    every 250 steps, so that each 500-step operation runs every part of the
    loop."""

    name = "train"
    unit = "training steps"
    STEPS = 500
    VAL_RATIO_MAX = 0.5

    def prepare(self) -> list[str]:
        ds = data.gen_two_moons_paired(MOONS_ROWS, MOONS_NOISE, self.seeded("data"))
        path = self.dir / "pairs.csv"
        data.save(ds, path)
        self.out = self.dir / "run"
        self.config = training.TrainConfig(
            seed=self.seeded("train"), max_steps=self.STEPS, checkpoint_interval=250,
            validation_interval=250, **{**MOONS, "ema_start_step": 0},
        )
        return [str(path)]

    def op(self, key):
        result = training.run_training(self.config, self.state["dataset"], self.out)
        return self.STEPS, result

    def output(self, key, result) -> str:
        return digest(*sorted(self.out.iterdir()))

    def check_first(self, key, result) -> str | None:
        ds = self.state["dataset"]
        T, s = self.config.T, self.config.s
        val = result.final_val_loss
        zero = checks.zero_predictor_loss(ds.x0, ds.y, T, s)
        self.quality["training.val_loss"] = val
        if not (val is not None and math.isfinite(val) and val < self.VAL_RATIO_MAX * zero):
            return f"validation loss {val} is not below {self.VAL_RATIO_MAX} x zero-predictor loss {zero}"
        # Finite differences on the trained net, at a batch the benchmark draws.
        rng = np.random.default_rng(self.seeded("grad"))
        rows = rng.integers(0, ds.n, size=64)
        t_idx = rng.integers(1, T, size=rows.size)
        m = (t_idx / T)[:, None]
        x0 = ds.x0[rows]
        noise = np.sqrt(2 * s * (m - m * m)) * rng.standard_normal(x0.shape)
        x_t = (1 - m) * x0 + m * ds.y[rows] + noise
        model = checkpoint.load_checkpoint(result.checkpoint_path).model
        err = checks.gradient_check(model, x_t, t_idx, x_t - x0, T)
        if not err <= 1e-4:
            return f"loss_and_grads disagrees with finite differences: relative error {err:.2e} > 1e-4"
        return None


class Sample(Workload):
    """``bridgediff sample`` at k=5, 200 steps and eta=1 on a checkpoint the
    program trains before timing. Each operation translates its own block
    of held-out inputs; the quality gate scores all blocks together."""

    name = "sample"
    unit = "chains"
    round = tuple(range(5))
    N_INPUTS = 8
    K = 5
    REF_ROWS = 4000
    # Samples from the zero-output initial net stay near the conditioning
    # inputs, a rotated copy of the moons, and score 0.73-0.83 (README); the
    # trained net scores about 0.01.
    ED_BOUND = 0.1
    CKPT_STEPS = 20000

    def prepare(self) -> list[str]:
        ckpt = self.cache / "sample_ckpt.bin"
        if not ckpt.exists():
            start = time.perf_counter()
            ds = data.gen_two_moons_paired(MOONS_ROWS, MOONS_NOISE, 880)
            config = training.TrainConfig(
                seed=900, max_steps=self.CKPT_STEPS, checkpoint_interval=10**6,
                validation_interval=500, **MOONS,
            )
            result = training.run_training(config, ds, self.cache / "sample_train")
            os.replace(result.checkpoint_path, ckpt)
            print(f"sample: trained the checkpoint in {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
        self.out = self.dir / "out"
        self.argv, inputs = {}, []
        for key in self.round:
            ds = data.gen_two_moons_paired(self.N_INPUTS, MOONS_NOISE, self.seeded("inputs", key))
            path = self.dir / f"inputs_{key}.csv"
            data.save(ds, path)
            inputs.append(str(path))
            self.argv[key] = [
                "sample", "--checkpoint", str(ckpt), "--data", str(path),
                "--n", str(self.N_INPUTS), "--k", str(self.K), "--steps", "200", "--eta", "1",
                "--seed", str(self.seeded("sample", key)), "--out", str(self.out),
            ]
        self.reference = data.gen_two_moons_paired(self.REF_ROWS, MOONS_NOISE, self.seeded("ref")).x0
        self.pool = {}
        return [str(ckpt), inputs[0]]

    def op(self, key):
        run_cli(self.argv[key])
        return self.N_INPUTS * self.K, None

    def output(self, key, result) -> str:
        return digest(self.out / "samples.csv")

    def check_first(self, key, result) -> str | None:
        y_index, values = checks.read_samples_csv(self.out / "samples.csv")
        expected = np.repeat(np.arange(self.N_INPUTS), self.K)
        if values.shape != (expected.size, 2) or not np.array_equal(y_index, expected):
            return f"samples CSV holds {values.shape} values for inputs {sorted(set(y_index))}"
        if not np.all(np.isfinite(values)):
            return "samples CSV holds non-finite values"
        self.pool[key] = values
        if len(self.pool) < len(self.round):
            return None
        ed = checks.energy_distance(np.vstack(list(self.pool.values())), self.reference)
        self.quality["sampling.energy_distance"] = ed
        if not ed < self.ED_BOUND:
            return f"energy distance {ed:.4f} to held-out moons is not below {self.ED_BOUND}"
        return None


class Chain(Workload):
    """Library ``ancestral_sample``, one chain per call on the dense grid at
    T=100, with the analytic predictor of the 1-D joint Gaussian (corr 0.8).
    Each operation runs its own block of chain seeds; the moment gate pools
    all blocks."""

    name = "chain"
    unit = "reverse steps"
    round = tuple(range(20))
    CHAINS = 50
    REF_DRAWS = 100000
    # The seed changes from run to run, so a 3-SE gate as in A6 would fail
    # about one correct run in 185; at 4.5 SE about one in 70000.
    MAX_SE = 4.5

    def prepare(self) -> list[str]:
        self.y = np.array([np.random.default_rng(self.seeded("y")).standard_normal()])
        self.base = self.seeded("chains")
        self.pool = {}
        return []

    def op(self, key):
        schedule, spec = self.state["schedule"], self.state["spec"]

        def eps_fn(x, t):
            return oracle.optimal_eps(spec, schedule, t, x)

        out = np.empty(self.CHAINS)
        for i in range(self.CHAINS):
            seed = self.base + key * self.CHAINS + i
            out[i] = sampling.ancestral_sample(schedule, eps_fn, self.y, seed=seed)[0][0]
        return self.CHAINS * schedule.T, out

    def output(self, key, out) -> bytes:
        return out.tobytes()

    def check_first(self, key, out) -> str | None:
        self.pool[key] = out
        if len(self.pool) < len(self.round):
            return None
        ref = oracle.exact_reverse_chain(
            self.state["spec"], self.state["schedule"], np.full(self.REF_DRAWS, self.y[0]),
            np.random.default_rng(self.seeded("ref")),
        )
        gaps = checks.moment_gaps(np.concatenate(list(self.pool.values())), np.asarray(ref))
        if not max(gaps) <= self.MAX_SE:
            return (f"chain mean/variance differ from exact_reverse_chain by {gaps[0]:.2f}/"
                    f"{gaps[1]:.2f} standard errors (limit {self.MAX_SE})")
        return None


class Eval(Workload):
    """``bridgediff eval`` on samples CSVs the benchmark writes: three
    operations against a held-out reference, then one against the full 40k
    training set, which fails today (README)."""

    name = "eval"
    unit = "distance pairs"
    round = ("ref", "ref", "ref", "full")
    FILES = 2
    INPUTS_PER_FILE = 50
    K = 5
    REF_ROWS = 3000
    FULL_INPUTS = 40
    SAMPLES_NOISE = 0.1
    # Absolute tolerance on the energy distance: a difference of three
    # O(1) means, summed in another order by cdist.
    ED_TOL = 1e-10
    # Relative tolerance on the means, variances and diversity.
    REL_TOL = 1e-12

    def prepare(self) -> list[str]:
        files = []
        rows = self.INPUTS_PER_FILE * self.K
        for f in range(self.FILES):
            pts = data.gen_two_moons_paired(rows, self.SAMPLES_NOISE, self.seeded("samples", f)).x0
            path = self.dir / f"samples_{f}.csv"
            y_index = f * self.INPUTS_PER_FILE + np.arange(rows) // self.K
            checks.write_samples_csv(path, y_index, pts, self.K, self.seed)
            files.append(str(path))
        reference = data.gen_two_moons_paired(self.REF_ROWS, MOONS_NOISE, self.seeded("ref"))
        ref_path = self.dir / "reference.csv"
        data.save(reference, ref_path)

        # The full-set operation's inputs do not depend on the seed: the
        # acceptance training set and a fixed set of samples.
        full_path = self.cache / "full_pairs.csv"
        full_samples = self.cache / "full_samples.csv"
        if not full_samples.exists():
            data.save(data.gen_two_moons_paired(MOONS_ROWS, MOONS_NOISE, 880), full_path)
            rows = self.FULL_INPUTS * self.K
            pts = data.gen_two_moons_paired(rows, self.SAMPLES_NOISE, 991).x0
            checks.write_samples_csv(full_samples, np.arange(rows) // self.K, pts, self.K, 991)

        self.inputs = {
            "ref": (files, str(ref_path)),
            "full": ([str(full_samples)], str(full_path)),
        }
        self.report = {key: self.dir / f"report_{key}.csv" for key in self.inputs}
        n = self.FILES * self.INPUTS_PER_FILE * self.K
        nf = self.FULL_INPUTS * self.K
        self.pairs = {
            "ref": n * self.REF_ROWS + n * n + self.REF_ROWS**2,
            "full": nf * MOONS_ROWS + nf * nf + MOONS_ROWS**2,
        }
        return [str(ref_path)]

    def op(self, key):
        samples, reference = self.inputs[key]
        run_cli(["eval", "--samples", *samples, "--reference", reference, "--k", str(self.K),
                 "--out", str(self.report[key])])
        return self.pairs[key], None

    def output(self, key, result) -> bytes:
        return self.report[key].read_bytes()

    def check_first(self, key, result) -> str | None:
        samples, reference = self.inputs[key]
        parsed = [checks.read_samples_csv(p) for p in samples]
        y_index = np.concatenate([p[0] for p in parsed])
        values = np.vstack([p[1] for p in parsed])
        ref = data.load(reference).x0
        bb = self.full_self_distance(ref) if key == "full" else None
        expected = checks.eval_reference(values, y_index, ref, bb)
        reported = {}
        for line in self.first[key].decode().splitlines()[1:]:
            metric, value = line.split(",")[:2]
            reported[metric] = float(value)
        if set(reported) != set(expected):
            return f"eval reported {sorted(reported)}, expected {sorted(expected)}"
        for metric, want in expected.items():
            got = reported[metric]
            tol = self.ED_TOL if metric == "energy_distance" else self.REL_TOL * abs(want)
            if not abs(got - want) <= tol:
                return f"eval {metric} = {got!r}, independent value {want!r}"
        return None

    def known_fault(self, exc: Exception) -> str | None:
        frames = traceback.extract_tb(exc.__traceback__)
        if isinstance(exc, MemoryError) and any(
            f.name == "energy_distance" and f.filename.endswith("metrics.py") for f in frames
        ):
            return "MemoryError in metrics.energy_distance"
        return None

    def full_self_distance(self, ref: np.ndarray) -> float:
        """E|b-b'| of the 40k set, cached: it takes seconds and the set is fixed."""
        path = self.cache / "full_self_distance.txt"
        if not path.exists():
            path.write_text(repr(checks.mean_pair_distance(ref, ref)))
        return float(path.read_text())


WORKLOADS = {w.name: w for w in (Train, Sample, Chain, Eval)}
