"""Benchmark of `supermodeling experiment`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid16-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload in turn

Each measurement is a fresh child process (child.py) with one BLAS/OpenMP
thread, and only one child runs at a time.  A run first starts one untimed
setup child, which fills the bytecode cache and stops the benchmark early if
the package cannot be imported.

--trace 0: the experiment runs again and again with the same seed until
--seconds have passed, at least twice.  Nine more setup children, one before
each of the first experiments and the rest at the end, time process start to
ready-to-step (setup_s).  Every run must reach status `completed`, hold only
finite numbers in its CSVs and give the same SHA-256 over its CSVs as the
first.  A run that does not counts as failed.

--trace 1: untraced and traced experiment children alternate.  The traced
ones record a span around every layer in spec.LAYERS, and the per-layer
metrics come from those spans.  trace.overhead_s is the wrappers' cost timed
directly (see child.Tracer.overhead_s).  The best traced minus the best
untraced wall time is printed beside it, and marked unresolved when it is
negative or within the spread of the untraced runs.

Outputs, spans and a results file with a machine block go to
.perfbench_out/<workload>/seed<seed>-trace<0|1>/.  One run's output
directory is kept; `python3 perfbench/outdiff.py SAVED_DIR NEW_DIR` compares
it with another.  Metrics are printed by
name with unit, sample count, best sample, median and quartiles.  The last
stdout line is one JSON object: correct, attempted, failed and, per metric,
the run's best sample, or for setup_s the median of its samples (see
`summarize`).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spec import CONTEXT, COUNTERS, GATED, LAYERS, WORKLOADS, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
BENCH_WORKLOADS = [name for name in WORKLOADS if name != "smoke"]
SETUP_SAMPLES = 9
MIN_EXPERIMENTS = 2
RUN_LIMIT_S = 165.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed several times per run and reported by its median, so that
# work moved into set-up shows even when one set-up happens to be fast
MEDIAN_METRICS = {"setup_s"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run, for example because the package is missing."""


# -- child processes -----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list, timeout: float):
    """Run child.py once; return (parsed last stdout line or None, error text, spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s", spawned
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {proc.returncode}", spawned
    try:
        return json.loads(out.strip().splitlines()[-1]), "", spawned
    except (IndexError, json.JSONDecodeError):
        return None, "no result line on stdout", spawned


# -- output checks ---------------------------------------------------------------


def check_output(out_dir: Path):
    """Problems with one run's output (empty when fine) and the SHA-256 over its CSVs."""
    problems = []
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(out_dir / "manifest.ini")
    status = manifest.get("run", "status", fallback="missing")
    if status != "completed":
        problems.append(f"status is {status!r}")
    digest = hashlib.sha256()
    csvs = sorted(out_dir.glob("*.csv"))
    if not csvs:
        problems.append("no CSV files")
    for path in csvs:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        for row in csv.reader(io.StringIO(data.decode())):
            bad = [cell for cell in row if _is_nonfinite_number(cell)]
            if bad:
                problems.append(f"{path.name}: non-finite value {bad[0]!r}")
                break
    return problems, digest.hexdigest()


def _is_nonfinite_number(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def quality(out_dir: Path) -> dict:
    """Prediction error of the trained supermodel and the gain over the untrained one."""
    rows = _read_csv(out_dir / "before_after.csv")[1:]  # row 0 is the shared initial state
    before = statistics.fmean(float(r["l2_before"]) for r in rows)
    after = statistics.fmean(float(r["l2_after"]) for r in rows)
    return {
        "l2_error_trained": after,
        "volume_error_trained": statistics.fmean(abs(float(r["volume_diff_after"])) for r in rows),
        "train_gain_l2": before / after,
    }


def experiment_metrics(result: dict, out_dir: Path) -> dict:
    epochs = len({row["epoch"] for row in _read_csv(out_dir / "training.csv")})
    n, steps = result["n_submodels"], result["steps"]
    # reference steps, training member-steps, and two predictions (trained, untrained)
    member_steps = steps + n * steps * epochs + 2 * n * steps
    phases = result["phases"]
    return {
        "epoch_s": sum(phases["train"]) / epochs,
        "predict_s": statistics.fmean(phases["simulate"]),
        "cell_steps_per_s": member_steps * result["cells"] / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "experiment_s": result["wall_s"],
        "epochs_run": epochs,
    }


# -- traced runs -------------------------------------------------------------------


def _percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def unique_fraction(steps: list) -> float:
    """Share of gt_at calls asking for a step not yet asked for in the same pass.

    A pass is an epoch, a prediction or one CSV writer; it ends when the
    requested step goes down.
    """
    seen, previous, unique = set(), None, 0
    for n in steps:
        if previous is not None and n < previous:
            seen.clear()
        if n not in seen:
            unique += 1
            seen.add(n)
        previous = n
    return unique / len(steps) if steps else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run from its spans.

    Self time is a span's duration minus the time its direct children cover.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _layer, start, end, parent, _note in spans:
        if parent >= 0:
            covered[parent] += end - start
    durations, notes = defaultdict(list), defaultdict(list)
    self_s = defaultdict(float)
    for i, (layer, start, end, _parent, note) in enumerate(spans):
        durations[layer].append(end - start)
        self_s[layer] += end - start - covered[i]
        if note is not None:
            notes[layer].append(note)
    out = {}
    for index, layer in enumerate(LAYERS):
        d = sorted(durations[index])
        out[f"{layer.name}.calls"] = len(d)
        out[f"{layer.name}.self_s"] = self_s[index]
        out[f"{layer.name}.per_call_ms_p50"] = 1e3 * _percentile(d, 50)
        out[f"{layer.name}.per_call_ms_p99"] = 1e3 * _percentile(d, 99)
        if layer.note == "array_bytes":
            busy = sum(d)
            out[f"{layer.name}.effective_gbps"] = sum(notes[index]) / busy / 1e9 if busy else 0.0
        elif layer.note == "step":
            out[f"{layer.name}.unique_frac"] = unique_fraction(notes[index])
        elif layer.note == "dir_bytes":
            out[f"{layer.name}.bytes"] = sum(notes[index])
    for name in COUNTERS:
        out[f"{name}.count"] = trace["counts"].get(name, 0)
    out["trace.overhead_s"] = trace["overhead_s"]
    out["trace.overhead_frac"] = trace["overhead_s"] / trace["wall_s"]
    return out


# -- machine block -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes():
    """Size of the last-level cache and where the figure came from."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        if out.isdigit() and int(out) > 0:
            return int(out), "getconf LEVEL3_CACHE_SIZE"
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cache size"):
                return int(line.split(":")[1].split()[0]) * 1024, "/proc/cpuinfo cache size"
    except (OSError, ValueError, IndexError):
        pass
    return 32 << 20, "assumed (not reported)"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def copy_bandwidth(llc_bytes: int) -> dict:
    """Median bandwidth of np.copyto over an array four times the last-level cache."""
    src = np.ones(4 * llc_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return {"array_bytes": src.nbytes, "gbps": 2 * src.nbytes / statistics.median(times) / 1e9,
            "counted": "bytes read plus bytes written per copy"}


def machine_block() -> dict:
    llc, llc_source = _llc_bytes()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": f"1 ({', '.join(THREAD_VARS)} set for every child)",
        "git_commit": _git_commit(),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "copy_bandwidth": copy_bandwidth(llc),
    }


# -- one workload -----------------------------------------------------------------------


def summarize(values: list, better: str) -> dict:
    """Sample count, median, quartiles and the best sample of one run.

    The result line carries the best sample (fastest repeat, smallest
    footprint), except for the metrics in MEDIAN_METRICS.  On a shared
    2-vCPU host the repeats of one run fall into a fast and a ~1.7x slower
    state that switches every few seconds to minutes, so a run's median
    jumps between the two while its best repeat stays put: over ten seeds of
    grid16-default the spread of predict_s was 0.27 for the run medians and
    0.11 for the run minima.  When the slow state lasts a whole run, the best
    repeat is slow as well (see baseline.json).
    """
    values = [float(v) for v in values]
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[0::2]
              if len(values) > 1 else (values[0], values[0]))
    best = min(values) if better == "lower" else max(values)
    return {"n": len(values), "best": best, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def wall_difference(traced: list, untraced: list) -> dict:
    """Best traced minus best untraced wall time, and whether it stands out.

    The difference is unresolved when it is negative, when there is only one
    untraced run, or when it is no larger than the spread (largest minus
    smallest) of the untraced runs themselves.
    """
    diff = min(traced) - min(untraced)
    noise = max(untraced) - min(untraced)
    return {"seconds": diff, "untraced_spread_s": noise, "samples": [len(traced), len(untraced)],
            "traced_median_s": statistics.median(traced),
            "resolved": len(untraced) > 1 and diff > max(noise, 0.0)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    load_start = os.getloadavg()
    run_dir = OUT / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    overrides = dict(WORKLOADS[name], seed=seed, out_dir=str(run_dir / "setup"))
    setup_args = ["setup", json.dumps(overrides)]

    samples = defaultdict(list)

    def setup_child(timed: bool):
        result, error, spawned = run_child(setup_args, timeout=60)
        if result is None:
            raise HarnessError(f"setup child failed: {error}")
        if timed:
            samples["setup_s"].append(result["ready"] - spawned)

    setup_child(timed=False)
    records, child_times = [], []
    while True:
        elapsed = time.monotonic() - started
        expected = max(child_times) if child_times else 0.0
        if len(records) >= MIN_EXPERIMENTS and elapsed + expected > seconds:
            break
        if elapsed + expected > RUN_LIMIT_S:
            break
        # spread the setup samples over the run, like the experiment samples
        if not trace and len(samples["setup_s"]) < SETUP_SAMPLES:
            setup_child(timed=True)
        k = len(records)
        traced = trace and k % 2 == 1
        out_dir = run_dir / f"run{k}"
        args = ["experiment", json.dumps(dict(overrides, out_dir=str(out_dir)))]
        if traced:
            args += ["--spans", str(run_dir / f"spans-run{k}.json")]
        result, error, spawned = run_child(args, timeout=max(5.0, RUN_LIMIT_S - elapsed))
        child_times.append(time.monotonic() - spawned)
        record = {"run": k, "traced": traced, "result": result}
        record["problems"], record["digest"] = (
            check_output(out_dir) if result is not None else ([error], None))
        records.append(record)
    while not trace and len(samples["setup_s"]) < SETUP_SAMPLES:
        setup_child(timed=True)

    machine = machine_block()  # after the children: the copy arrays are large

    passed = [r for r in records if not r["problems"]]
    digest = passed[0]["digest"] if passed else None
    for r in passed[1:]:
        if r["digest"] != digest:
            r["problems"].append(f"CSV digest {r['digest']} differs from run {passed[0]['run']}")
    passed = [r for r in records if not r["problems"]]
    failed = len(records) - len(passed)
    kept = run_dir / f"run{passed[0]['run']}" if passed else None

    absent = []
    untraced = [r for r in passed if not r["traced"]]
    for r in untraced:
        for metric, value in experiment_metrics(r["result"], run_dir / f"run{r['run']}").items():
            samples[metric].append(value)
    if kept is not None:
        for metric, value in quality(kept).items():
            samples[metric].append(value)
    samples["failed_frac"].append(failed / len(records))
    for r in records:  # one output is kept for outdiff.py
        if run_dir / f"run{r['run']}" != kept:
            shutil.rmtree(run_dir / f"run{r['run']}", ignore_errors=True)
    wall_check = None
    if trace:
        traced_runs = [r for r in passed if r["traced"]]
        for r in traced_runs:
            spans = json.loads((run_dir / f"spans-run{r['run']}.json").read_text())
            absent = spans["absent"]
            for metric, value in layer_metrics(spans).items():
                samples[metric].append(value)
        if traced_runs and untraced:
            wall_check = wall_difference([r["result"]["wall_s"] for r in traced_runs],
                                         [r["result"]["wall_s"] for r in untraced])

    units = {**GATED, **CONTEXT, **per_layer_metrics()}
    report_names = per_layer_metrics() if trace else {**GATED, **CONTEXT}
    metrics = {m: {"unit": units[m][0], "better": units[m][1], **summarize(samples[m], units[m][1])}
               for m in report_names if samples.get(m)}
    summary = {
        "workload": name,
        "overrides": WORKLOADS[name],
        "seed": seed,
        "trace": int(trace),
        "attempted": len(records),
        "failed": failed,
        "digest": digest,
        "output_dir": str(kept) if kept else None,
        "absent": absent,
        "traced_minus_untraced": wall_check,
        "metrics": metrics,
        "result_metrics": sorted(per_layer_metrics() if trace else GATED),
        "layers": {layer.name: {"targets": [".".join(t) for t in layer.targets],
                                "moves": [list(m) for m in layer.moves],
                                "holds": [list(m) for m in layer.holds]} for layer in LAYERS},
        "counters": {name: {"moves": [list(m) for m in moves]}
                     for name, (_target, moves) in COUNTERS.items()},
        "runs": [{"run": r["run"], "traced": r["traced"], "problems": r["problems"],
                  "digest": r["digest"], "wall_s": (r["result"] or {}).get("wall_s"),
                  "phases_s": (r["result"] or {}).get("phases")}
                 for r in records],
        "machine": dict(machine, loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "results_file": str(run_dir / "results.json"),
    }
    (run_dir / "results.json").write_text(json.dumps(summary, indent=1))
    return summary


def print_summary(s: dict):
    print(f"== {s['workload']}  seed {s['seed']}  trace {s['trace']}:  {s['attempted']} runs,"
          f" {s['failed']} failed,  CSV sha256 {s['digest']}")
    for r in s["runs"]:
        if r["problems"]:
            print(f"   run {r['run']} failed: {'; '.join(r['problems'])}")
    print(f"   {'metric':42s} {'unit':6s} {'n':>3s} {'best':>12s} {'median':>12s} {'q1':>12s}"
          f" {'q3':>12s}")
    for name, m in s["metrics"].items():
        gate = "" if name in s["result_metrics"] else "  (context, not gated)"
        print(f"   {name:42s} {m['unit']:6s} {m['n']:3d} {m['best']:12.6g} {m['median']:12.6g}"
              f" {m['q1']:12.6g} {m['q3']:12.6g}{gate}")
    if s["trace"]:
        print(f"   absent: {', '.join(s['absent']) or 'none'}")
        m, w = s["metrics"], s["traced_minus_untraced"]
        if w is not None:
            layer_self = sum(v["median"] for k, v in m.items() if k.endswith(".self_s"))
            print(f"   summed self time {layer_self:.4g} s of traced wall time"
                  f" {w['traced_median_s']:.4g} s; not covered by any inner layer"
                  f" (run_experiment self time): "
                  f"{m['experiments.run_experiment.self_s']['median']:.4g} s")
            verdict = ("resolved" if w["resolved"] else
                       "unresolved: negative, one untraced run or within the untraced spread")
            print(f"   best traced minus best untraced wall time: {w['seconds']:+.4g} s"
                  f" over {w['samples'][0]}/{w['samples'][1]} runs, untraced spread"
                  f" {w['untraced_spread_s']:.4g} s ({verdict}); trace.overhead_s above is the"
                  " wrappers' cost timed directly")
        bw = s["machine"]["copy_bandwidth"]
        print(f"   copy bandwidth {bw['gbps']:.2f} GB/s over {bw['array_bytes']} B arrays"
              f" (last-level cache {s['machine']['llc_bytes']} B); compare effective_gbps to it")
    print(f"   results: {s['results_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = BENCH_WORKLOADS if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        print_summary(s)
    prefix = len(summaries) > 1
    metrics = {(f"{s['workload']}.{m}" if prefix else m):
               {"value": s["metrics"][m]["median" if m in MEDIAN_METRICS else "best"],
                "unit": s["metrics"][m]["unit"]}
               for s in summaries for m in s["result_metrics"] if m in s["metrics"]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if attempted > failed else 1


if __name__ == "__main__":
    sys.exit(main())
