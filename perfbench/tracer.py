"""Spans around the package's public functions, installed from outside.

Modules import names directly (``bridgediff.training`` holds its own
``adam_step``, ``bridgediff.cli`` its own ``accelerated_sample``), so each
function is replaced wherever a loaded ``bridgediff`` module refers to it.
Spans stay in memory as tuples ``(id, name, parent id, start_ns, end_ns,
op, ok, extra)``, appended when the call returns (tuples of atoms cost the
garbage collector nothing, where lists would), and are written out when
the run ends. ``op`` is the operation tag current at the call, ``extra``
what ``TARGETS`` names: rows, file bytes, or (pairs, peak bytes) for the
energy distance. A span's self time is its duration minus the durations
of its direct children; the run is single-threaded, so children nest
inside their parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

# (module, attribute, what to record besides the times)
TARGETS = [
    ("training", "run_training", None),
    ("training", "train_step", None),
    ("nn", "NoisePredictor.forward", "rows"),
    ("nn", "NoisePredictor.loss_and_grads", None),
    ("optim", "adam_step", None),
    ("optim", "ema_update", None),
    ("checkpoint", "save_checkpoint", "file_bytes"),
    ("checkpoint", "load_checkpoint", None),
    ("sampling", "ancestral_sample", None),
    ("sampling", "accelerated_sample", None),
    ("oracle", "optimal_eps", None),
    ("seeding", "rng_for", None),
    ("data", "load", "file_bytes"),
    ("metrics", "energy_distance", "pairs"),
    ("metrics", "diversity", None),
    ("cli", "cmd_sample", None),
    ("cli", "cmd_eval", None),
    ("schedule", "build_schedule", None),
]

SAMPLERS = ("sampling.ancestral_sample", "sampling.accelerated_sample")
PREDICTORS = ("nn.NoisePredictor.forward", "oracle.optimal_eps")
# Each span carries the tag that was current when it started: (workload,
# operation index), with index SETUP for set-up, or None for the
# benchmark's own checks, which the layer figures leave out.
SETUP = -1


def _rows(args, kwargs, result):
    shape = getattr(args[1], "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _pairs(args, kwargs, result):
    n, m = len(args[0]), len(args[1])
    return n * m + n * n + m * m


EXTRAS = {"rows": _rows, "file_bytes": _file_bytes, "pairs": _pairs}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.count = 0
        self.op: tuple[str, int] | None = None
        self.replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Put a wrapper in every place that holds a target function."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bridgediff" or name.startswith("bridgediff.")]
        for module, attr, extra in TARGETS:
            owner = sys.modules[f"bridgediff.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [(owner, attr)]
            else:
                places = [(m, key) for m in modules for key, value in vars(m).items()
                          if value is getattr(owner, attr)]
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{original.__qualname__}", original, extra)
            for place, key in places:
                self.replaced.append((place, key, original))
                setattr(place, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for place, key, original in reversed(self.replaced):
            setattr(place, key, original)
        self.replaced.clear()

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        record = EXTRAS.get(extra)
        measure_peak = name == "metrics.energy_distance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.count
            self.count = idx + 1
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(idx)
            if measure_peak:
                tracemalloc.start()
            ok, value = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if ok and record is not None:
                    value = record(args, kwargs, result)
                if measure_peak:
                    # Peak bytes the call allocated: tracemalloc ran for
                    # the length of the call only.
                    if ok:
                        value = (value, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                spans.append((idx, name, parent, start, end, op, ok, value))

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "parent", "start_ns", "end_ns", "op", "ok", "extra"],
                       "spans": sorted(self.spans)}, f)

    def layer_metrics(self, workload: str, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the successful calls made by the traced
        set-up and operations of ``workload``; counts are per operation."""
        spans = [s[1:] for s in sorted(self.spans)]
        child_ns = [0] * len(spans)
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child_ns[s[1]] += s[3] - s[2]
                children.setdefault(s[1], []).append(i)

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[5] and s[4] is not None and s[4][0] == workload:
                by_name.setdefault(s[0], []).append(i)

        def sel(name, parent=None):
            return [i for i in by_name.get(name, ())
                    if parent is None or (spans[i][1] >= 0 and spans[spans[i][1]][0] in parent)]

        def mean_ns(idx, self_time=False):
            if not idx:
                return 0.0
            total = sum(spans[i][3] - spans[i][2] - (child_ns[i] if self_time else 0) for i in idx)
            return total / len(idx)

        def mean_extra(idx):
            return sum(spans[i][6] for i in idx) / len(idx) if idx else 0.0

        def per_op(idx):
            return sum(1 for i in idx if spans[i][4][1] >= 0) / n_ops

        chains = [i for name in SAMPLERS for i in sel(name)]
        steps = [sum(1 for c in children.get(i, ()) if spans[c][0] in PREDICTORS) for i in chains]
        chain_self = sum(spans[i][3] - spans[i][2] - child_ns[i] for i in chains)
        fwd_sampler = sel("nn.NoisePredictor.forward", parent=SAMPLERS)
        saves = sel("checkpoint.save_checkpoint")
        loads = sel("data.load")
        eds = sel("metrics.energy_distance")
        rng = sel("seeding.rng_for")
        us, ms = 1e-3, 1e-6
        return {
            "training.step_us": (mean_ns(sel("training.train_step")) * us, "us"),
            "training.loop_self_ms": (mean_ns(sel("training.run_training"), True) * ms, "ms"),
            "nn.loss_and_grads_us": (mean_ns(sel("nn.NoisePredictor.loss_and_grads")) * us, "us"),
            "nn.forward_val_ms": (
                mean_ns(sel("nn.NoisePredictor.forward", parent=("training.run_training",))) * ms, "ms"),
            "nn.forward_us": (mean_ns(fwd_sampler) * us, "us"),
            "nn.forward_calls": (per_op(fwd_sampler), "count"),
            "nn.forward_rows": (
                sum(spans[i][6] for i in fwd_sampler if spans[i][4][1] >= 0) / n_ops, "count"),
            "optim.adam_us": (mean_ns(sel("optim.adam_step")) * us, "us"),
            "optim.ema_us": (mean_ns(sel("optim.ema_update")) * us, "us"),
            "checkpoint.save_ms": (mean_ns(saves) * ms, "ms"),
            "checkpoint.bytes": (mean_extra(saves), "bytes"),
            "checkpoint.load_ms": (mean_ns(sel("checkpoint.load_checkpoint")) * ms, "ms"),
            "sampling.chain_ms": (mean_ns(chains) * ms, "ms"),
            "sampling.steps": (sum(steps) / len(steps) if steps else 0.0, "count"),
            "sampling.self_us_per_step": (chain_self / sum(steps) * us if steps else 0.0, "us"),
            "oracle.optimal_eps_us": (mean_ns(sel("oracle.optimal_eps")) * us, "us"),
            "seeding.rng_for_us": (mean_ns(rng) * us, "us"),
            "seeding.rng_for_calls": (per_op(rng), "count"),
            "data.load_ms": (mean_ns(loads) * ms, "ms"),
            "data.bytes_read": (mean_extra(loads), "bytes"),
            "metrics.energy_distance_ms": (mean_ns(eds) * ms, "ms"),
            "metrics.energy_distance_pairs": (
                sum(spans[i][6][0] for i in eds) / len(eds) if eds else 0.0, "count"),
            "metrics.energy_distance_peak_mb": (
                max((spans[i][6][1] for i in eds), default=0) / 1e6, "MB"),
            "metrics.diversity_ms": (mean_ns(sel("metrics.diversity")) * ms, "ms"),
            "cli.sample_self_ms": (mean_ns(sel("cli.cmd_sample"), True) * ms, "ms"),
            "cli.eval_self_ms": (mean_ns(sel("cli.cmd_eval"), True) * ms, "ms"),
            "schedule.build_ms": (mean_ns(sel("schedule.build_schedule")) * ms, "ms"),
        }
