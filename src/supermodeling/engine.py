"""Coupled-ensemble stepping, coupling-coefficient training, and prediction.

The ensemble advances all members in lockstep.  One coupled step applies,
to the coupled variable only,

    B_i <- B_i + dt*S(B_i, P_i)
         + (1/N) * sum_j C_ij * (B_j - B_i)
         + (1/N) * K * sum_j (GT - B_j)

where every B_j on the right-hand side is the pre-step value (synchronous
update).  The nudging sum runs over all j by default, so it acts on the
ensemble mean; set ``exclude_self_in_nudge`` for the variant that skips
j = i.  All other state variables advance by the free model step alone.

Training runs epochs of M coupled steps from a shared initial condition.
Within a step the order is: advance and apply the coupling corrections (one
coupled step, using the reference at the pre-step index), then fetch the
reference at the new index and correct the coefficients.  Coefficients are
clamped into [c_min, c_max] after every correction.  Epochs stop early once
the largest coefficient change between consecutive epochs drops below the
tolerance.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DynamicalSystem, explicit_step
from .fields import BlowUpError, l2_norm, volume_inner
from .groundtruth import GroundTruth, gt_at


@dataclass
class CouplingMatrix:
    """Ensemble meta-parameters: coupling weights, nudging, learning factor.

    ``c`` is n-by-n with an unused zero diagonal.  Off-diagonal entries are
    clamped into [c_min, c_max] by every update (initial values are taken
    as given).  ``a_rate`` is the correction factor applied to both the old
    value and the increment during training and must lie in (0, 1].
    """

    c: np.ndarray
    k_nudge: float
    a_rate: float = 1.0
    c_min: float = 0.1
    c_max: float = 0.9
    exclude_self_in_nudge: bool = False

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.c.ndim != 2 or self.c.shape[0] != self.c.shape[1]:
            raise ValueError("coupling matrix must be square")
        if np.any(np.diagonal(self.c) != 0.0):
            raise ValueError("diagonal coupling entries must be zero")
        if not 0.0 < self.a_rate <= 1.0:
            raise ValueError("correction factor must be in (0, 1]")
        if not self.c_min <= self.c_max:
            raise ValueError("clamp bounds are inverted")

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @classmethod
    def uniform(cls, n: int, value: float, k_nudge: float, **kwargs) -> "CouplingMatrix":
        c = np.full((n, n), float(value))
        np.fill_diagonal(c, 0.0)
        return cls(c=c, k_nudge=k_nudge, **kwargs)

    def copy(self) -> "CouplingMatrix":
        return dataclasses.replace(self, c=self.c.copy())

    def offdiag_values(self) -> np.ndarray:
        mask = ~np.eye(self.n, dtype=bool)
        return self.c[mask]


@dataclass
class SubModelEnsemble:
    """N parameter sets plus the N member states, stepped in lockstep.

    ``states`` is one C-contiguous float64 array of shape (N, ...) whose
    entry i is member i's state array (one value for the toy systems, five
    fields for the tumor model).  Coupled steps advance it in place.
    """

    system: DynamicalSystem
    params: list
    states: np.ndarray
    coupled_variable: str
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        self.states = np.ascontiguousarray(self.states, dtype=np.float64)
        if self.initial_state is not None:
            self.initial_state = np.array(self.initial_state, dtype=np.float64, ndmin=1)
        if len(self.params) != len(self.states):
            raise ValueError("one parameter set per member is required")
        if self.coupled_variable not in self.system.couplable:
            raise ValueError(
                f"{self.coupled_variable!r} is not couplable in {type(self.system).__name__}"
            )

    @property
    def n(self) -> int:
        return len(self.params)

    @classmethod
    def identical_start(cls, system, params_list, initial_state, coupled_variable=None):
        """All members start from one shared initial condition."""
        x0 = np.array(initial_state, dtype=np.float64, ndmin=1)
        states = np.stack([x0] * len(params_list))
        return cls(system=system, params=list(params_list), states=states,
                   coupled_variable=coupled_variable or system.couplable[0], initial_state=x0)

    def reset(self) -> "SubModelEnsemble":
        """Fresh ensemble with every member back at the shared initial condition."""
        if self.initial_state is None:
            raise ValueError("ensemble has no recorded initial condition")
        return dataclasses.replace(self, states=np.stack([self.initial_state] * self.n))

    def coupled_values(self) -> np.ndarray:
        """View of every member's coupled variable, shape (N, ...)."""
        return self.states[:, self.system.variables.index(self.coupled_variable)]


class TrainingAborted(RuntimeError):
    """Training blew up mid-epoch.

    Carries the failing epoch and step plus the report accumulated so far.
    Usually means the sub-models are too far apart to synchronize; pick a
    different ensemble (or smaller dt) and retry.
    """

    def __init__(self, epoch: int, step: int, report: "TrainingReport", cause: str):
        super().__init__(
            f"training aborted at epoch {epoch}, step {step}: {cause}; "
            "consider selecting a different sub-model ensemble"
        )
        self.epoch = epoch
        self.step = step
        self.report = report


@dataclass
class StepRecord:
    epoch: int
    step: int
    c_flat: np.ndarray
    error: float
    volumes: tuple | None = None


@dataclass
class TrainingReport:
    """Everything a training run produced, epoch by epoch and step by step."""

    initial_c: np.ndarray
    c_history: list[np.ndarray] = field(default_factory=list)
    error_history: list[list[float]] = field(default_factory=list)
    step_records: list[StepRecord] = field(default_factory=list)
    converged: bool = False
    iterations_used: int = 0
    trajectory_history: list | None = None


def coupled_step(
    ens: SubModelEnsemble, cm: CouplingMatrix, gt_now, dt: float
) -> SubModelEnsemble:
    """Advance every member one step, in place, with synchronization and nudging.

    ``dt`` may be zero, which freezes the model dynamics but still applies
    the coupling and nudging corrections (the training escape hatch for
    ensembles that drift apart).  Returns ``ens``.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if cm.n != ens.n:
        raise ValueError(f"coupling is {cm.n}x{cm.n} but ensemble has {ens.n} members")
    values = ens.coupled_values()
    # the corrections only read pre-step values, so they are formed first
    corrections = _corrections(values, cm, gt_now)
    if dt > 0:
        for state, params in zip(ens.states, ens.params):
            explicit_step(ens.system, state, params, dt, out=state)
    for i, correction in enumerate(corrections):
        if correction is not None:
            values[i] += correction
    # explicit_step checked the stepped states; only the corrections are new
    if any(c is not None for c in corrections) and not np.isfinite(values).all():
        raise BlowUpError(
            f"non-finite value in variable '{ens.coupled_variable}' during coupled step"
        )
    return ens


def _corrections(values: np.ndarray, cm: CouplingMatrix, gt_now) -> list:
    """Per member, (1/N) sum_j C_ij (B_j - B_i) + (K/N) sum_j (GT - B_j) summed
    in that order, or None when there is nothing to add."""
    n = len(values)
    if cm.k_nudge != 0.0:
        residuals = np.asarray(gt_now) - values
        nudge_all = residuals[0].copy()
        for r in residuals[1:]:
            nudge_all += r
    corrections = []
    for i in range(n):
        correction = None
        for j in range(n):
            if cm.c[i, j] != 0.0:
                term = (values[j] - values[i]) * (cm.c[i, j] / n)
                correction = term if correction is None else correction + term
        if cm.k_nudge != 0.0:
            nudge = nudge_all - residuals[i] if cm.exclude_self_in_nudge else nudge_all
            term = nudge * (cm.k_nudge / n)
            correction = term if correction is None else correction + term
        corrections.append(correction)
    return corrections


def update_coupling(
    cm: CouplingMatrix, ens: SubModelEnsemble, gt_now
) -> CouplingMatrix:
    """Correct every off-diagonal coefficient from the current mismatch.

    C_ij <- clamp(A*C_ij + A * <GT - B_i, B_i - B_j>), the inner product
    being the domain integral of the product of the two mismatch fields.
    """
    values = ens.coupled_values()
    mismatch = np.asarray(gt_now) - values
    n = ens.n
    new_c = cm.c.copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            inner = volume_inner(mismatch[i], values[i] - values[j], ens.system.cell_volume)
            new_c[i, j] = cm.a_rate * cm.c[i, j] + cm.a_rate * inner
    if not np.isfinite(new_c).all():
        raise BlowUpError("non-finite coupling coefficient update")
    np.clip(new_c, cm.c_min, cm.c_max, out=new_c)
    np.fill_diagonal(new_c, 0.0)
    return dataclasses.replace(cm, c=new_c)


def supermodel_output(ens: SubModelEnsemble) -> np.ndarray:
    """Member average, computed so that N identical members return exactly."""
    members = ens.states
    base = members[0]
    if len(members) == 1:
        return base.copy()
    acc = members[1] - base
    for m in members[2:]:
        acc += m - base
    acc *= 1.0 / len(members)
    acc += base
    return acc


def train(
    ens: SubModelEnsemble,
    cm: CouplingMatrix,
    gt: GroundTruth,
    dt: float,
    steps_per_epoch: int,
    max_epochs: int,
    tol: float,
    min_epochs: int = 1,
    record_trajectories: bool = False,
) -> tuple[CouplingMatrix, TrainingReport]:
    """Iterate coupled epochs against the reference until coefficients settle.

    Each epoch resets all members to the shared initial condition and runs
    ``steps_per_epoch`` coupled steps, correcting the coefficients after
    every step.  Converged means the largest per-entry coefficient change
    between consecutive epoch ends fell below ``tol`` (checked only once
    ``min_epochs`` epochs have run).  Requires the reference to cover steps
    0 through ``steps_per_epoch``.

    With ``record_trajectories`` the per-step coupled-variable states of all
    members are kept for every epoch, which contraction diagnostics need.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if gt.final_index < steps_per_epoch:
        raise ValueError(
            f"reference covers steps up to {gt.final_index}, need {steps_per_epoch}"
        )
    cm = cm.copy()
    report = TrainingReport(initial_c=cm.c.copy())
    if record_trajectories:
        report.trajectory_history = []
    has_volumes = hasattr(ens.system, "volumes")
    prev_c = cm.c.copy()

    for epoch in range(max_epochs):
        ens = ens.reset()
        errors: list[float] = []
        trajectory = [ens.coupled_values().copy()] if record_trajectories else None
        gt_now = gt_at(gt, 0)
        for step in range(steps_per_epoch):
            gt_next = gt_at(gt, step + 1)
            try:
                coupled_step(ens, cm, gt_now, dt)
                cm = update_coupling(cm, ens, gt_next)
                output = supermodel_output(ens)
                coupled_out = ens.system.get_variable(output, ens.coupled_variable)
                error = l2_norm(gt_next - coupled_out, ens.system.cell_volume)
                volumes = tuple(ens.system.volumes(output)) if has_volumes else None
            except BlowUpError as exc:
                report.iterations_used = epoch
                raise TrainingAborted(epoch, step, report, str(exc)) from exc
            gt_now = gt_next
            if record_trajectories:
                trajectory.append(ens.coupled_values().copy())
            errors.append(error)
            report.step_records.append(StepRecord(
                epoch=epoch,
                step=step + 1,
                c_flat=cm.c.copy().reshape(-1),
                error=error,
                volumes=volumes,
            ))
        report.error_history.append(errors)
        report.c_history.append(cm.c.copy())
        if record_trajectories:
            report.trajectory_history.append(trajectory)
        report.iterations_used = epoch + 1
        delta = float(np.max(np.abs(cm.c - prev_c)))
        if epoch + 1 >= min_epochs and delta < tol:
            report.converged = True
            break
        prev_c = cm.c.copy()
    return cm, report


def simulate(
    ens: SubModelEnsemble,
    cm: CouplingMatrix,
    gt: GroundTruth | None,
    dt: float,
    steps: int,
    nudge_in_prediction: bool = True,
    observer=None,
    record=None,
) -> list:
    """Run the trained supermodel from the ensemble's current states.

    The coefficient matrix stays frozen and the ensemble advances in place.
    By default the reference keeps nudging the ensemble during prediction
    (as in training); pass ``nudge_in_prediction=False`` for a free
    forecast, in which case no reference data is needed.  Returns steps+1
    entries including the averaged initial state: ``record(output)`` of
    every averaged output, or the output itself.  ``observer(step, ens)`` is
    called after every step for callers that want per-member data.
    """
    if not nudge_in_prediction:
        cm = dataclasses.replace(cm.copy(), k_nudge=0.0)
    if cm.k_nudge != 0.0:
        if gt is None:
            raise ValueError("nudged prediction needs reference data")
        if gt.final_index < steps:
            raise ValueError(
                f"reference covers steps up to {gt.final_index}, need {steps}"
            )
    if record is None:
        def record(output):
            return output
    outputs = [record(supermodel_output(ens))]
    for step in range(steps):
        gt_now = gt_at(gt, step) if cm.k_nudge != 0.0 else None
        coupled_step(ens, cm, gt_now, dt)
        outputs.append(record(supermodel_output(ens)))
        if observer is not None:
            observer(step + 1, ens)
    return outputs


def export_training_csv(report: TrainingReport, path, n: int):
    """Per-step CSV: epoch, step, flattened coefficients, error, volumes."""
    header = ["epoch", "step"]
    header += [f"c_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += ["l2_error", "total", "proliferating", "quiescent"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in report.step_records:
            row = [rec.epoch, rec.step]
            row += [repr(float(v)) for v in rec.c_flat]
            row.append(repr(float(rec.error)))
            if rec.volumes is not None:
                row += [repr(float(v)) for v in rec.volumes]
            else:
                row += ["", "", ""]
            writer.writerow(row)
