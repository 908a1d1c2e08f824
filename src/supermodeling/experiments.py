"""Config-driven experiment harness producing CSV artifacts.

A run generates a synthetic reference trajectory, instantiates a perturbed
sub-model ensemble, trains the coupling coefficients against the reference,
then simulates with the frozen trained (and, for comparison, untrained)
coefficients.  Everything lands in one output directory as CSV files plus a
manifest, whose [run] section records how the run ended.  Identical config
+ seed reproduces every CSV byte for byte at one BLAS thread count.  The
norms and the engine's coupling products go through BLAS, which may sum in
another order with another number of threads: one and two OpenBLAS threads
gave CSVs up to 1.2e-15 apart (relative) at 32^3 with 8 members.  The package defaults to
one BLAS thread (see ``supermodeling``), as the benchmark runs it, so the
CSVs of a CLI run equal the benchmark's.

Desk-scale defaults: a 16^3 unit-spacing grid with a hypoxic-core oxygen
profile and a vessel-free central region, so the oxygen thresholds that the
ensemble perturbs actually shape the dynamics.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import (
    CouplingMatrix,
    SubModelEnsemble,
    TrainingAborted,
    export_training_csv,
    simulate,
    supermodel_output,
    train,
)
from .fields import GridSpec
from .groundtruth import GroundTruth, generate_gt, gt_volumes_at, load_gt, save_gt, step_error
from .tumor import (
    TumorParams,
    TumorSystem,
    gaussian_bump_state,
    vessel_free_mask,
)

VARIANTS = ("V0", "V1", "V2", "V3")
PLACEMENTS = ("around", "below", "above", "mixed")
SENSITIVE_PARAMS = ("o_prol", "o_death", "T_prol", "T_death")
# every other scalar coefficient; the density levels stay fixed because they
# define the normalization itself (and the minimum is zero anyway)
REMAINING_PARAMS = (
    "d_b", "r_b", "P_b", "tau_b", "beta_M", "gamma_A", "chi_aA",
    "gamma_oA", "chi_c", "gamma_c", "alpha_o", "gamma_o", "delta_o", "o_max",
)


@dataclass
class ExperimentConfig:
    # grid
    nx: int = 16
    ny: int = 16
    nz: int = 16
    h: float = 1.0
    # time
    dt: float = 0.1
    steps: int = 60
    # ensemble
    n_submodels: int = 3
    spread: float = 0.4
    variant: str = "V0"
    placement: str = "around"
    seed: int = 1
    # training
    epochs: int = 20
    k_nudge: float = 0.9
    a_rate: float = 1.0
    c_init: float = 0.5
    c_min: float = 0.1
    c_max: float = 0.9
    tol: float = 1e-3
    # prediction
    nudge_in_prediction: bool = True
    # reference data
    keep_every: int = 5
    # initial condition (core_oxygen = 0 disables the hypoxic core)
    bump_width: float = 0.14
    bump_amplitude: float = 1.0
    core_oxygen: float = 1.0
    oxygen_ramp_radius: float = 0.42
    vessel_core_radius: float = 0.30
    use_source_mask: bool = True
    # output
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        if not 0.0 <= self.spread < 1.0:
            raise ValueError("spread fraction must be in [0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.variant == "V3" and self.n_submodels != 3:
            raise ValueError("variant V3 defines placements for exactly 3 sub-models")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.keep_every < 1:
            raise ValueError("keep_every must be a positive integer")
        if self.epochs < 1:
            raise ValueError("need at least one training epoch")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if not self.k_nudge >= 0:
            raise ValueError("k_nudge must be nonnegative")
        if not self.bump_width > 0:
            raise ValueError("bump_width must be positive")
        if not self.vessel_core_radius >= 0:
            raise ValueError("vessel_core_radius must be nonnegative")
        if self.core_oxygen > 0 and not self.oxygen_ramp_radius > 0:
            raise ValueError("oxygen_ramp_radius must be positive when core_oxygen "
                             "enables the hypoxic core")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.nz, self.h)


_CONFIG_LAYOUT = (
    ("grid", ("nx", "ny", "nz", "h")),
    ("time", ("dt", "steps")),
    ("ensemble", ("n_submodels", "spread", "variant", "placement", "seed")),
    ("training", ("epochs", "k_nudge", "a_rate", "c_init", "c_min", "c_max", "tol")),
    ("prediction", ("nudge_in_prediction",)),
    ("gt", ("keep_every",)),
    ("initial", ("bump_width", "bump_amplitude", "core_oxygen",
                 "oxygen_ramp_radius", "vessel_core_radius", "use_source_mask")),
    ("output", ("out_dir",)),
)

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def emit_config(config: ExperimentConfig) -> str:
    """Flat key = value text with section headers."""
    lines = []
    for section, names in _CONFIG_LAYOUT:
        lines.append(f"[{section}]")
        for name in names:
            value = getattr(config, name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{name} = {text}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    layout = dict(_CONFIG_LAYOUT)
    values = {}
    for section in parser.sections():
        if section == "run":
            continue  # what run_experiment adds to its manifest, old kernel lines too
        if section not in layout:
            raise ValueError(f"unknown config section [{section}]")
        for name in parser.options(section):
            if name not in layout[section]:
                raise ValueError(f"unknown config key {name!r} in section [{section}]")
            values[name] = _convert_option(name, parser.get(section, name))
    return ExperimentConfig(**values)


def _convert_option(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered not in ("true", "false"):
            raise ValueError(f"option {name} must be true or false, got {raw!r}")
        return lowered == "true"
    for number, expected in ((int, "an integer"), (float, "a number")):
        if kind == number.__name__:
            try:
                return number(raw)
            except ValueError:
                raise ValueError(f"option {name} must be {expected}, got {raw!r}") from None
    return raw


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Replace config fields from a {name: string} mapping (CLI key=value)."""
    converted = {name: _convert_option(name, raw) for name, raw in overrides.items()}
    return dataclasses.replace(config, **converted)


# -- sub-model instantiation ---------------------------------------------------


def _interval(placement: str, spread: float, member: int, count: int) -> tuple[float, float]:
    if placement == "around":
        return (1.0 - spread, 1.0 + spread)
    if placement == "below":
        return (1.0 - spread, 1.0)
    if placement == "above":
        return (1.0, 1.0 + spread)
    if placement == "mixed":
        # first half below the reference, second half above
        if member < (count + 1) // 2:
            return (1.0 - spread, 1.0)
        return (1.0, 1.0 + spread)
    raise ValueError(f"unknown placement {placement!r}")


_V3_RANGES = ((0.9, 1.1), (0.8, 0.9), (1.1, 1.2))


def instantiate_submodels(
    reference: TumorParams, config: ExperimentConfig, seed: int | None = None
) -> list[TumorParams]:
    """Draw N perturbed parameter sets around the reference.

    The four sensitive parameters (oxygen thresholds and characteristic
    times) always get the configured spread and placement.  Variants V1-V3
    additionally perturb all remaining coefficients: V1 by +-10% around the
    reference, V2 by +-30%, and V3 with per-member bands (member 1 +-10%
    around, member 2 in [0.8, 0.9] of reference, member 3 in [1.1, 1.2]).
    Draws violating the parameter invariants are rejected and retried, so
    the result always validates.  Deterministic for a fixed seed.
    """
    if config.n_submodels < 1:
        raise ValueError("need at least one sub-model")
    rng = np.random.default_rng(config.seed if seed is None else seed)
    members = []
    for member in range(config.n_submodels):
        lo, hi = _interval(config.placement, config.spread, member, config.n_submodels)
        for _attempt in range(1000):
            draws = {
                name: getattr(reference, name) * float(rng.uniform(lo, hi))
                for name in SENSITIVE_PARAMS
            }
            if config.variant != "V0":
                if config.variant == "V1":
                    rlo, rhi = 0.9, 1.1
                elif config.variant == "V2":
                    rlo, rhi = 0.7, 1.3
                else:
                    rlo, rhi = _V3_RANGES[member]
                for name in REMAINING_PARAMS:
                    draws[name] = getattr(reference, name) * float(rng.uniform(rlo, rhi))
            try:
                members.append(dataclasses.replace(reference, **draws))
                break
            except ValueError:
                continue
        else:
            raise RuntimeError(
                f"could not draw valid parameters for sub-model {member} in 1000 attempts"
            )
    return members


# -- trained-coefficient persistence -------------------------------------------


def save_coupling(cm: CouplingMatrix, path):
    """``cm`` as JSON, one key per field of ``CouplingMatrix``."""
    with open(path, "w") as fh:
        json.dump(dict(dataclasses.asdict(cm), c=cm.c.tolist()), fh, indent=2, sort_keys=True)


def load_coupling(path) -> CouplingMatrix:
    """The coefficients ``save_coupling`` wrote.  The keys must be exactly the
    fields of ``CouplingMatrix``, so that none takes its default: ValueError
    names every missing and unknown key, and the file and what is wrong with
    a value that ``CouplingMatrix`` rejects."""
    with open(path) as fh:
        payload = json.load(fh)
    fields = {f.name for f in dataclasses.fields(CouplingMatrix)}
    keys = payload.keys() if isinstance(payload, dict) else set()  # a list lacks every key
    mismatch = [f"{kind} key {name!r}" for kind, names in (
        ("missing", fields - keys), ("unknown", keys - fields)) for name in sorted(names)]
    if mismatch:
        raise ValueError(f"trained coupling {path} has {', '.join(mismatch)}")
    try:
        return CouplingMatrix(**payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trained coupling {path}: {exc}") from exc


# -- full experiment runs -------------------------------------------------------


def build_setup(config: ExperimentConfig):
    """Grid, reference parameters, system, and shared initial state for a config."""
    spec = config.grid
    reference = TumorParams()
    mask = (
        vessel_free_mask(spec, config.vessel_core_radius)
        if config.use_source_mask else None
    )
    system = TumorSystem(spec, oxygen_source_mask=mask)
    initial = gaussian_bump_state(
        spec,
        reference,
        bump_width=config.bump_width,
        bump_amplitude=config.bump_amplitude,
        core_oxygen=config.core_oxygen if config.core_oxygen > 0 else None,
        oxygen_ramp_radius=config.oxygen_ramp_radius,
    )
    return spec, reference, system, initial


def initial_coupling(config: ExperimentConfig) -> CouplingMatrix:
    """The uniform coupling matrix that training starts from."""
    return CouplingMatrix.uniform(
        config.n_submodels, config.c_init, config.k_nudge,
        a_rate=config.a_rate, c_min=config.c_min, c_max=config.c_max)


def load_reference(directory, config: ExperimentConfig, system, initial) -> GroundTruth:
    """Load a reference archive, rejecting one made for another grid or dt, or
    from another initial state than the config's ``initial`` in ``system``.

    The initial state is compared at step 0, the only state both sides know:
    the archived b field and volume triple must equal the config's exactly.
    A difference that shows only later, such as another oxygen source mask,
    passes.
    """
    gt = load_gt(directory)
    if gt.spec != config.grid or gt.step_dt != config.dt:
        raise ValueError(
            f"reference archive {directory} has grid {gt.spec} and dt {gt.step_dt!r}, "
            f"but the config has grid {config.grid} and dt {config.dt!r}"
        )
    volumes = system.volumes(initial)
    if not (np.array_equal(gt.snapshots[0], initial[0])
            and gt.volumes is not None and gt.volumes[0] == volumes):
        archived = gt.volumes[0] if gt.volumes is not None else None
        raise ValueError(
            f"reference archive {directory} starts from another initial state than "
            f"the config: step-0 volumes {archived} against {volumes}"
        )
    return gt


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute one full configuration and write all CSV artifacts.

    Returns the output directory.  A training blow-up is recorded in the
    manifest and the partial artifacts are kept rather than raised.
    """
    _spec, reference, system, initial = build_setup(config)
    # everything a bad config can fail on comes before any work or output
    params_list = instantiate_submodels(reference, config)
    ensemble = SubModelEnsemble.identical_start(system, params_list, initial)
    cm_init = initial_coupling(config)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt = generate_gt(system, reference, initial, config.dt, config.steps, config.keep_every)
    save_gt(gt, out / "gt")

    status = "completed"
    trained = None
    try:
        trained, report = train(
            ensemble, cm_init, gt, config.dt, config.steps,
            max_epochs=config.epochs, tol=config.tol,
        )
    except TrainingAborted as exc:
        report = exc.report
        status = f"aborted at epoch {exc.epoch} step {exc.step}"

    export_training_csv(report, out / "training.csv", config.n_submodels)

    if trained is not None:
        save_coupling(trained, out / "trained_coupling.json")
        after = predict(ensemble, trained, gt, config, out)
        before = predict(ensemble, cm_init, gt, config)
        _write_before_after_csv(before, after, out / "before_after.csv", config)

    manifest = emit_config(config) + f"\n[run]\nstatus = {status}\n"
    (out / "manifest.ini").write_text(manifest)
    return out


@dataclass
class Prediction:
    """Per step from the initial state on, what the CSVs read of a prediction."""

    volumes: list  # the supermodel's VolumeTriple
    member_volumes: list  # every member's VolumeTriple
    l2_error: np.ndarray  # the supermodel's b against the reference
    volume_diff: np.ndarray  # reference total minus the supermodel's


def predict(ensemble, cm, gt, config, out_dir: Path | None = None) -> Prediction:
    """Run the supermodel from the shared initial condition with frozen coefficients.

    With ``out_dir`` the run's curves.csv and volume_diff.csv are written
    there.
    """
    system = ensemble.system
    averaged = system.volume_variables  # b, then o: the error reads output[0]

    def each_step(_step, ens, ref):
        # each step's error is taken as the step ends: no b is kept
        output = supermodel_output(ens, averaged)
        return (system.volumes(output, averaged), [system.volumes(x) for x in ens.states],
                *step_error(ref, output[0], gt.cell_volume))

    volumes, member_volumes, l2_error, volume_diff = zip(*simulate(
        ensemble.reset(), cm, gt, config.dt, config.steps,
        nudge_in_prediction=config.nudge_in_prediction, each_step=each_step,
    ))
    run = Prediction(volumes=list(volumes), member_volumes=list(member_volumes),
                     l2_error=np.array(l2_error, dtype=np.float64),
                     volume_diff=np.array(volume_diff, dtype=np.float64))
    if out_dir is not None:
        _write_curves_csv(gt, run, out_dir / "curves.csv", config)
        _write_volume_diff_csv(run, out_dir / "volume_diff.csv", config)
    return run


def _write_curves_csv(gt, run: Prediction, path, config):
    n = len(run.member_volumes[0])
    header = ["step", "t", "gt_total", "gt_proliferating", "gt_quiescent",
              "sm_total", "sm_proliferating", "sm_quiescent"]
    for m in range(n):
        header += [f"m{m + 1}_total", f"m{m + 1}_proliferating", f"m{m + 1}_quiescent"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for step, sm_vol in enumerate(run.volumes):
            row = [step, repr(step * config.dt)]
            row += [repr(float(v)) for v in gt_volumes_at(gt, step)]
            row += [repr(float(v)) for v in sm_vol]
            for member in run.member_volumes[step]:
                row += [repr(float(v)) for v in member]
            writer.writerow(row)


def _write_volume_diff_csv(run: Prediction, path, config):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "volume_diff"])
        for step, diff in enumerate(run.volume_diff):
            writer.writerow([step, repr(step * config.dt), repr(float(diff))])


def _write_before_after_csv(before: Prediction, after: Prediction, path, config):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "l2_before", "l2_after",
                         "volume_diff_before", "volume_diff_after"])
        columns = (before.l2_error, after.l2_error, before.volume_diff, after.volume_diff)
        for step, values in enumerate(zip(*columns)):
            writer.writerow([step, repr(step * config.dt)] + [repr(float(v)) for v in values])
