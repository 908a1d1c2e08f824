"""One measurement in a fresh interpreter, started by run.py.

    python3 perfbench/child.py setup OVERRIDES_JSON
    python3 perfbench/child.py experiment OVERRIDES_JSON [--spans PATH]

`setup` imports the package, builds the grid, system and initial state, draws
the sub-models and prints the monotonic clock, so the parent can time process
start to ready-to-step.  `experiment` runs `experiments.run_experiment` once.
Untraced, it times only the phase calls `generate_gt`, `train` and `simulate`
in the `experiments` namespace.  With `--spans` it instead wraps every layer
in `spec.LAYERS`, keeps the spans in memory and writes them to PATH at the
end.  Either way the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spec import COUNTERS, LAYERS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_experiments():
    import supermodeling
    from supermodeling import experiments

    where = Path(supermodeling.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"supermodeling was imported from {where}, not from {SRC}")
    return experiments


# -- per-call notes recorded alongside a span ----------------------------------


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    data = getattr(obj, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _array_bytes(args, kwargs, result):
    """Compulsory traffic: every array passed in plus every array returned."""
    return _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result)


def _step(args, kwargs, result):
    """The reference step asked for: gt_at(gt, n)."""
    return args[1] if len(args) > 1 else kwargs.get("n")


def _dir_bytes(args, kwargs, result):
    """Bytes in the archive directory after save_gt(gt, directory)."""
    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


NOTES = {"array_bytes": _array_bytes, "step": _step, "dir_bytes": _dir_bytes}


class Tracer:
    """Span recorder installed by replacing package attributes with wrappers.

    A target is wrapped wherever the package holds a reference to it, because
    modules import functions by name from each other.  A target that no
    longer exists is listed in `absent` rather than failing the run, so the
    benchmark keeps working while later changes remove or rename layers.
    """

    def __init__(self):
        self.spans = []  # [layer index, start, end, parent span index or -1, note]
        self.stack = []
        self.counts = {}
        self.absent = []
        self.note_s = 0.0  # time spent computing per-call notes

    def install(self):
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "supermodeling" or name.startswith("supermodeling.")}
        for index, layer in enumerate(LAYERS):
            for module_name, attr in layer.targets:
                original = getattr(package.get(f"supermodeling.{module_name}"), attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(index, original, NOTES.get(layer.note))
                for module in package.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        for name, ((module_name, class_name, method), _moves) in COUNTERS.items():
            cls = getattr(package.get(f"supermodeling.{module_name}"), class_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.absent.append(f"{module_name}.{class_name}.{method}")
                continue
            self.counts[name] = 0
            setattr(cls, method, self._count(name, original))

    def _wrap(self, index, fn, note):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span] = [index, start, end, parent, None]
            if note is not None:
                spans[span][4] = note(args, kwargs, result)
                self.note_s += time.perf_counter() - end
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def overhead_s(self) -> float:
        """Time the wrappers added to the run, timed directly.

        The per-call cost of a span and of a count is the best of several
        timings of a wrapped no-op against the bare no-op; the notes were
        timed as they were taken.
        """
        probe = Tracer()
        probe.counts["noop"] = 0
        span_cost = _wrapper_cost(lambda fn: probe._wrap(0, fn, None))
        count_cost = _wrapper_cost(lambda fn: probe._count("noop", fn))
        return (len(self.spans) * span_cost + sum(self.counts.values()) * count_cost
                + self.note_s)

    def dump(self, path, wall_s: float):
        payload = {
            "layers": [layer.name for layer in LAYERS],
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
            "wall_s": wall_s,
            "overhead_s": self.overhead_s(),
        }
        Path(path).write_text(json.dumps(payload))


def _noop():
    return None


def _wrapper_cost(wrap, calls: int = 20000, trials: int = 5) -> float:
    """Seconds one call through `wrap(fn)` adds to a call of fn."""
    wrapped = wrap(_noop)
    best = {}
    for fn in (_noop, wrapped) * trials:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        best[fn] = min(best.get(fn, elapsed), elapsed)
    return max(0.0, (best[wrapped] - best[_noop]) / calls)


def _timed(fn, durations):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    return timed


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss, the fallback, also counts the
    parent's peak before the fork.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(overrides: dict) -> dict:
    experiments = import_experiments()
    config = experiments.ExperimentConfig(**overrides)
    _spec, reference, _system, _initial = experiments.build_setup(config)
    experiments.instantiate_submodels(reference, config)
    return {"ready": time.monotonic()}


def experiment(overrides: dict, spans_path: str | None) -> dict:
    experiments = import_experiments()
    config = experiments.ExperimentConfig(**overrides)
    phases = {"generate_gt": [], "train": [], "simulate": []}
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    else:
        for name, durations in phases.items():
            setattr(experiments, name, _timed(getattr(experiments, name), durations))
    start = time.perf_counter()
    out = experiments.run_experiment(config)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path, wall_s)
    return {
        "out_dir": str(out),
        "wall_s": wall_s,
        "phases": phases,
        "cells": config.nx * config.ny * config.nz,
        "n_submodels": config.n_submodels,
        "steps": config.steps,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "experiment"))
    parser.add_argument("overrides", help="ExperimentConfig fields as a JSON object")
    parser.add_argument("--spans", default=None, help="trace every layer, spans to this file")
    args = parser.parse_args(argv)
    overrides = json.loads(args.overrides)
    if args.mode == "setup":
        result = setup(overrides)
    else:
        result = experiment(overrides, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
