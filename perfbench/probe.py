"""Set-up steps of each workload, and probes that run in a fresh interpreter.

Set-up is what a user pays before the first operation: importing the
package, loading the dataset or checkpoint the workload runs on, and
building the schedule. ``run.py`` calls :func:`setup` in its own process to
get the objects it needs, and starts this file as a script to measure a
cold interpreter:

    python3 perfbench/probe.py <root> setup <workload> <input paths...>
        prints the seconds from just before ``import bridgediff`` to the
        end of set-up;
    python3 perfbench/probe.py <root> op <workload> <seed> <cache dir>
        prepares the inputs, sets up, runs one operation of the workload's
        first key and prints the process's peak resident set in KiB.

The peak is ``VmHWM`` of ``/proc/self/status``, which starts afresh at
exec; ``ru_maxrss`` would carry the parent's resident set over from the
fork.

Nothing here imports numpy or the package at module level, so the set-up
clock covers those imports.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def setup(workload: str, paths: list[str]) -> dict:
    """Run the set-up of ``workload`` and return what its operations use."""
    from bridgediff import checkpoint, data, oracle, schedule

    if workload == "train":
        ds = data.load(paths[0])
        return {"dataset": ds, "schedule": schedule.build_schedule(1000, 1.0)}
    if workload == "sample":
        ckpt = checkpoint.load_checkpoint(paths[0])
        return {
            "model": ckpt.ema_model(),
            "inputs": data.load(paths[1]),
            "schedule": schedule.build_schedule(ckpt.T, ckpt.s),
        }
    if workload == "chain":
        return {
            "spec": oracle.JointGaussianSpec(corr=0.8),
            "schedule": schedule.build_schedule(100, 1.0),
        }
    if workload == "eval":
        return {"reference": data.load(paths[0])}
    raise ValueError(f"unknown workload {workload!r}")


def one_operation(root: Path, workload: str, seed: int, cache: Path) -> None:
    import workloads

    w = workloads.WORKLOADS[workload](root / ".perfbench_work", cache, seed)
    w.state = setup(workload, w.prepare())
    w.op(w.round[0])


if __name__ == "__main__":
    start = time.perf_counter()
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "src"))
    if sys.argv[2] == "setup":
        setup(sys.argv[3], sys.argv[4:])
        print(repr(time.perf_counter() - start))
    else:
        one_operation(root, sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
        with open("/proc/self/status", encoding="ascii") as f:
            print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
