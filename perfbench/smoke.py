"""Self-check of the benchmark harness on an 8^3 grid (2 steps, 1 epoch).

    python3 perfbench/smoke.py

Runs run.py untraced and traced on the `smoke` workload with seed 7, and
untraced with seed 8, and checks that: every metric named in BENCHMARK.json
is emitted with its unit; the traced run covers every layer in spec.LAYERS
and every counter; outdiff finds the kept outputs of the two seed-7 runs
byte-identical and those of seeds 7 and 8 different; and a directory holding
only BENCHMARK.json and perfbench/ (no package) makes the benchmark exit
non-zero without a result.  It checks no timing.  Exit code 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from outdiff import diff_dirs
from spec import COUNTERS, GATED, LAYERS, WORKLOADS, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(condition: bool, message: str, failures: list):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def kept_output(seed: int, trace: int) -> Path | None:
    results = ROOT / f".perfbench_out/smoke/seed{seed}-trace{trace}/results.json"
    if not results.exists():
        return None
    kept = json.loads(results.read_text())["output_dir"]
    return Path(kept) if kept else None


def main() -> int:
    failures = []
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec_doc["workloads"]}
    check(declared == set(WORKLOADS) - {"smoke"}, "BENCHMARK.json workloads match spec.WORKLOADS",
          failures)

    for trace, section, expected in ((0, "end_to_end", GATED), (1, "per_layer", per_layer_metrics())):
        names = {m["name"]: m["unit"] for m in spec_doc[section]}
        check(names == {m: u for m, (u, _b) in expected.items()},
              f"BENCHMARK.json {section} names and units match the harness", failures)
        code, lines, err = run(ROOT, trace)
        check(code == 0 and bool(lines), f"run.py --trace {trace} exits 0 ({err.strip()[-200:]})",
              failures)
        if code != 0 or not lines:
            continue
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
              and result["correct"] and result["attempted"] >= 2 and result["failed"] == 0,
              f"--trace {trace} result line is well formed and correct", failures)
        metrics = result["metrics"]
        missing = [m for m, unit in names.items()
                   if m not in metrics or metrics[m].get("unit") != unit
                   or not isinstance(metrics[m].get("value"), (int, float))]
        check(not missing, f"--trace {trace} emits every {section} metric with its unit"
              f" (missing: {missing[:5]})", failures)
        if trace:
            uncovered = [layer.name for layer in LAYERS if not metrics[f"{layer.name}.calls"]["value"]]
            uncovered += [name for name in COUNTERS if not metrics[f"{name}.count"]["value"]]
            check(not uncovered, f"traced run covers every layer (uncovered: {uncovered})",
                  failures)
            summary = json.loads((ROOT / ".perfbench_out/smoke/seed7-trace1/results.json").read_text())
            check(summary["absent"] == [], "no traced symbol is absent", failures)

    code, _lines, err = run(ROOT, 0, seed=8)
    check(code == 0, f"run.py --seed 8 exits 0 ({err.strip()[-200:]})", failures)
    untraced, traced, other = kept_output(7, 0), kept_output(7, 1), kept_output(8, 0)
    if None in (untraced, traced, other):
        check(False, "every smoke run kept an output directory", failures)
    else:
        same, different = diff_dirs(untraced, traced), diff_dirs(untraced, other)
        check(bool(same) and all(d["identical"] for d in same.values()),
              "outdiff: untraced and traced runs of seed 7 are byte-identical", failures)
        check(any(not d["identical"] for d in different.values()),
              "outdiff: runs of seeds 7 and 8 differ", failures)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _err = run(bare, 0)
    check(code != 0 and not (lines and lines[-1].startswith("{")),
          "without the package the benchmark exits non-zero and prints no result", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
