"""Benchmark of bridgediff: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,sample,chain,eval} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` and everything the run writes goes under
``.perfbench_work/`` at the root. The run prepares its inputs from the
seed, times the set-up in fresh interpreters, then repeats whole rounds of
the workload's operations in this process until their measured time
reaches S seconds, checking every operation. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# One BLAS thread: the machine the reference figures come from has 2 cores
# and the benchmark is the only load it drives.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cap on this process's address space, so an allocation far beyond any
# successful operation fails the same way whatever RAM the machine has.
ADDRESS_SPACE = 3 << 30
SETUP_PROBES = 11
# The shared machine's speed drifts by 10-30 % over minutes, and single
# operations by up to 2x (other tenants on the same cores), more than the
# bounds allow. So a fixed loop of small numpy operations, which never
# touches the package, is timed just before each operation, and work_per_s
# scales the operation's rate by that loop's time over its time on the
# reference machine: a faster program moves the metric, a faster machine
# moves both parts. The unscaled rate is printed and recorded too.
CALIBRATION_S = 0.0117
WORKLOADS = ("train", "sample", "chain", "eval")


def source_hash() -> str:
    """Key for cached inputs: the package source and the code that makes them."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bridgediff").rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def calibration_seconds() -> float:
    """Seconds the calibration loop takes now."""
    import numpy as np

    x = np.full(2, 0.3)
    start = time.perf_counter()
    for _ in range(2000):
        x = np.tanh(x * 0.5 + 0.1) - 0.01 * x
    return time.perf_counter() - start


def run_probe(*args: str) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(ROOT), *args],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout)


def setup_seconds(workload: str, paths: list[str]) -> float:
    """Median set-up time of several cold interpreters."""
    return statistics.median(run_probe("setup", workload, *paths) for _ in range(SETUP_PROBES))


def peak_rss_mb(workload: str, seed: int, cache: Path) -> float:
    """Peak resident set, in MB (1e6 bytes), of a fresh interpreter that
    sets up and runs one operation: what ``/usr/bin/time`` shows a user."""
    return run_probe("op", workload, str(seed), str(cache)) * 1024 / 1e6


class Rounds:
    """Whole rounds of a workload's operations, timed and checked."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.causes: Counter = Counter()
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.times: list[tuple[object, float]] = []
        self.spent = 0.0

    def run(self, seconds: float) -> None:
        while self.spent < seconds:
            self.round()

    def round(self) -> None:
        for key in self.w.round:
            if self.tracer:
                self.tracer.op = (self.w.name, self.attempted)
            self.attempted += 1
            calibration = calibration_seconds()
            start = time.perf_counter()
            try:
                units, result = self.w.op(key)
            except Exception as exc:
                self.spent += time.perf_counter() - start
                self.failed += 1
                cause = self.w.known_fault(exc)
                if cause is None:
                    cause = f"operation {key}: {type(exc).__name__}: {exc}"
                    self.correct = False
                self.causes[cause] += 1
                continue
            elapsed = time.perf_counter() - start
            self.spent += elapsed
            if self.tracer:
                self.tracer.op = None
            problem = self.w.check(key, result)
            if problem:
                self.failed += 1
                self.correct = False
                self.causes[problem] += 1
                continue
            self.raw_rates.append(units / elapsed)
            self.rates.append(units / elapsed * calibration / CALIBRATION_S)
            self.times.append((key, elapsed))


def warm_up(w) -> list[str]:
    """One untimed operation, so that lazy set-up in the program, the
    allocator and the caches is done before timing starts. Returns what
    went wrong with it, if anything."""
    key = w.round[0]
    try:
        _, result = w.op(key)
    except Exception as exc:
        return [f"warm-up operation {key}: {type(exc).__name__}: {exc}"]
    problem = w.check(key, result)
    return [f"warm-up operation {key}: {problem}"] if problem else []


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def median_rate(rounds: Rounds) -> float:
    return statistics.median(rounds.rates) if rounds.rates else 0.0


def measure(w, cache: Path, seconds: float, paths: list[str]):
    """End-to-end metrics of an untraced run."""
    import probe

    setup_s = setup_seconds(w.name, paths)
    w.state = probe.setup(w.name, paths)
    problems = warm_up(w)
    rounds = Rounds(w)
    rounds.run(seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (median_rate(rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb(w.name, w.seed, cache), "MB"),
    }
    return metrics, [rounds], problems


def trace(w, cache: Path, seconds: float, paths: list[str], spans: Path):
    """Per-layer metrics of a traced run. Plain and traced rounds
    alternate, so that drift in the machine's speed does not show up as
    tracing overhead."""
    import probe
    import tracer as tr
    import workloads

    tracer = tr.Tracer()
    tracer.install()
    tracer.op = (w.name, tr.SETUP)
    w.state = probe.setup(w.name, paths)
    tracer.uninstall()
    problems = warm_up(w)
    plain, traced = Rounds(w), Rounds(w, tracer)
    while plain.spent + traced.spent < seconds:
        plain.round()
        tracer.install()
        traced.round()
        tracer.uninstall()
    metrics = tracer.layer_metrics(w.name, traced.attempted)
    # Layers this workload never calls are measured on one traced operation
    # of each other workload, so that every figure is a measurement.
    for name, cls in workloads.WORKLOADS.items():
        if name == w.name:
            continue
        other = cls(w.work, cache, w.seed)
        other_paths = other.prepare()
        tracer.install()
        tracer.op = (name, tr.SETUP)
        other.state = probe.setup(name, other_paths)
        tracer.op = (name, 0)
        _, result = other.op(other.round[0])
        tracer.uninstall()
        tracer.op = None
        problem = other.check(other.round[0], result)
        if problem:
            problems.append(f"{name}: {problem}")
        measured = tracer.layer_metrics(name, 1)
        metrics = {k: v if v[0] else measured[k] for k, v in metrics.items()}
    traced_rate = median_rate(traced)
    overhead = median_rate(plain) / traced_rate - 1 if traced_rate else 0.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    tracer.write(spans)
    return metrics, [plain, traced], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "bridgediff" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no package source at {package.parent}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path.insert(0, str(ROOT / "src"))
    # Imported only now: numpy must load after the thread settings, and the
    # package from this checkout's src/.
    import workloads

    cache = WORK / "cache" / source_hash()
    cache.mkdir(parents=True, exist_ok=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](WORK, cache, args.seed)
    paths = w.prepare()
    env = environment()
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, phases, problems = trace(
            w, cache, args.seconds, paths, results / f"{stem}-spans.json")
    else:
        metrics, phases, problems = measure(w, cache, args.seconds, paths)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(p.correct for p in phases) and not problems
    causes = sum((p.causes for p in phases), Counter()) + Counter(problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "work_unit": w.unit,
        "quality": w.quality, "failures": dict(causes),
        "op_seconds": [t for p in phases for t in p.times],
        "unscaled_rate": statistics.median([r for p in phases for r in p.raw_rates] or [0.0]),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: one process, BLAS threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc {env['nproc']}, {env['blas']}, "
          f"numpy {env['numpy']}")
    print(f"work unit: {w.unit}; unscaled rate: {record['unscaled_rate']!r} /s; "
          f"quality: {w.quality}")
    for cause, count in causes.items():
        print(f"failed x{count}: {cause}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
