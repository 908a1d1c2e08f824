"""What the benchmark runs and what it reports.

Workloads are `ExperimentConfig` overrides; every other field keeps its
default, and the seed comes from the command line.  Layers name the package
functions the traced run wraps, by module and attribute, together with the
end-to-end metric and workload each layer is expected to move.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = {
    # The shipped default (16^3, N=3, V0, 60 steps, keep_every=5, nudged
    # prediction): dispatch and allocation dominate, gt_at interpolates.
    "grid16-default": {},
    # 262k cells per field: the stencils move bytes instead of spending time
    # in Python, and estimate_lipschitz is a visible share of the run.
    "grid64-short": {"nx": 64, "ny": 64, "nz": 64, "steps": 10, "epochs": 2},
    # 56 coupling pairs, a dense reference (gt_at never interpolates) and a
    # free forecast (the k_nudge=0 branch of coupled_step).
    "wide32-free": {
        "nx": 32, "ny": 32, "nz": 32, "n_submodels": 8, "variant": "V2",
        "keep_every": 1, "nudge_in_prediction": False, "steps": 20, "epochs": 2,
    },
    # Harness self-check for smoke.py only; not a benchmark workload.
    "smoke": {"nx": 8, "ny": 8, "nz": 8, "steps": 2, "epochs": 1},
}

# name -> (unit, better).  GATED are the end-to-end metrics in BENCHMARK.json;
# CONTEXT is printed and recorded but carries no bound.  For one seed the
# errors are exact (same-seed runs give byte-identical CSVs, so their spread
# is 0), but a bound is checked against the spread over runs with different
# seeds, and there the ensemble draw moves the errors by more than the
# largest admissible bound of 0.25 (see baseline.json).  experiment_s and
# epochs_run move whenever convergence changes, and failed_frac is 0 when all
# is well, so failures are gated through the result line's `failed` count.
GATED = {
    "setup_s": ("s", "lower"),
    "epoch_s": ("s", "lower"),
    "predict_s": ("s", "lower"),
    "cell_steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "train_gain_l2": ("ratio", "higher"),
}
CONTEXT = {
    "l2_error_trained": ("1", "lower"),
    "volume_error_trained": ("1", "lower"),
    "experiment_s": ("s", "lower"),
    "epochs_run": ("count", "lower"),
    "failed_frac": ("ratio", "lower"),
}


class Layer(NamedTuple):
    name: str
    targets: tuple  # (module, attribute) pairs wrapped under this name
    moves: tuple  # (end-to-end metric, workload) pairs this layer should move
    note: str | None = None  # per-call extra recorded by the tracer
    holds: tuple = ()  # (end-to-end metric, workload) pairs it must leave unchanged


_STENCIL = (("epoch_s", "grid64-short"), ("predict_s", "grid64-short"))
_ENGINE = (("epoch_s", "wide32-free"), ("cell_steps_per_s", "grid16-default"),
           ("peak_rss_mb", "grid64-short"))
_WHOLE_RUN = (("cell_steps_per_s", "grid16-default"), ("cell_steps_per_s", "grid64-short"),
              ("cell_steps_per_s", "wide32-free"))

LAYERS = (
    Layer("tumor.laplacian", (("tumor", "_laplacian"),), _STENCIL, "array_bytes"),
    Layer("tumor.flux", (("tumor", "compute_flux"),), _STENCIL),
    Layer("tumor.divergence", (("tumor", "_divergence"),), _STENCIL, "array_bytes"),
    Layer("tumor.tendency", (("tumor", "tumor_tendency"),), _STENCIL),
    Layer("tumor.volumes", (("tumor", "tumor_volumes"),),
          (("predict_s", "grid16-default"), ("predict_s", "wide32-free"))),
    Layer("dynamics.explicit_step", (("dynamics", "explicit_step"),), _ENGINE),
    Layer("dynamics.estimate_lipschitz", (("dynamics", "estimate_lipschitz"),),
          (("cell_steps_per_s", "grid64-short"),)),
    Layer("engine.coupled_step", (("engine", "coupled_step"),), _ENGINE),
    Layer("engine.update_coupling", (("engine", "update_coupling"),), _ENGINE),
    Layer("engine.supermodel_output", (("engine", "supermodel_output"),), _ENGINE),
    Layer("engine.train", (("engine", "train"),),
          tuple(("epoch_s", w) for w in ("grid16-default", "grid64-short", "wide32-free"))),
    Layer("engine.simulate", (("engine", "simulate"),),
          tuple(("predict_s", w) for w in ("grid16-default", "grid64-short", "wide32-free"))),
    Layer("groundtruth.gt_at", (("groundtruth", "gt_at"),),
          (("epoch_s", "grid16-default"),), "step", (("epoch_s", "wide32-free"),)),
    Layer("groundtruth.generate_gt", (("groundtruth", "generate_gt"),), _WHOLE_RUN),
    Layer("groundtruth.save_gt", (("groundtruth", "save_gt"),), _WHOLE_RUN, "dir_bytes"),
    Layer("experiments.write_csvs", (
        ("engine", "export_training_csv"),
        ("experiments", "_write_coupling_trajectories"),
        ("experiments", "_write_contraction_csv"),
        ("experiments", "_write_curves_csv"),
        ("experiments", "_write_volume_diff_csv"),
        ("experiments", "_write_before_after_csv"),
    ), _WHOLE_RUN),
    # the root span: its self time is whatever no layer above covers
    Layer("experiments.run_experiment", (("experiments", "run_experiment"),), _WHOLE_RUN),
)

# Exact counts without spans: name -> ((module, class, method), moves).
COUNTERS = {
    "fields.scalarfield_allocs": (("fields", "ScalarField", "__post_init__"), _ENGINE),
}


def per_layer_metrics() -> dict:
    """Every metric a traced run reports: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = ("count", "lower")
        out[f"{layer.name}.self_s"] = ("s", "lower")
        out[f"{layer.name}.per_call_ms_p50"] = ("ms", "lower")
        out[f"{layer.name}.per_call_ms_p99"] = ("ms", "lower")
        if layer.note == "array_bytes":
            out[f"{layer.name}.effective_gbps"] = ("GB/s", "higher")
        elif layer.note == "step":
            out[f"{layer.name}.unique_frac"] = ("ratio", "higher")
        elif layer.note == "dir_bytes":
            out[f"{layer.name}.bytes"] = ("B", "lower")
    for name in COUNTERS:
        out[f"{name}.count"] = ("count", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out
