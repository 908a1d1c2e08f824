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

The per-member work runs on a pool of threads, one per usable CPU, created
on first use: in a coupled step every member's correction (from pre-step
values), then every member's free step followed by adding its own
correction; in a coefficient update every row of the new matrix.  NumPy
releases the interpreter lock inside its loops, so members overlap on
separate cores.  Each member is computed by the same operations in the same
order either way, so results are bit-identical to a sequential run.  The work
stays on the calling thread when only one CPU is usable or when a member's
field has fewer than ``PARALLEL_MIN_CELLS`` cells, where handing it over costs
more than the second core saves.  Above that size each kind of member work is
timed both ways and runs the faster one, since the gain also depends on how
the host schedules the threads.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import threading
import time
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
    fields for the tumor model).  Coupled steps and ``reset`` rewrite it in
    place.  ``initial_state`` is kept as given, not copied, so the caller
    must leave it unchanged while the ensemble is in use.
    """

    system: DynamicalSystem
    params: list
    states: np.ndarray
    coupled_variable: str
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        self.states = np.ascontiguousarray(self.states, dtype=np.float64)
        if self.initial_state is not None:
            self.initial_state = np.atleast_1d(np.asarray(self.initial_state, dtype=np.float64))
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
        x0 = np.atleast_1d(np.asarray(initial_state, dtype=np.float64))
        states = np.stack([x0] * len(params_list))
        return cls(system=system, params=list(params_list), states=states,
                   coupled_variable=coupled_variable or system.couplable[0], initial_state=x0)

    def reset(self) -> "SubModelEnsemble":
        """Every member back at the shared initial condition, in place; returns ``self``."""
        if self.initial_state is None:
            raise ValueError("ensemble has no recorded initial condition")
        self.states[...] = self.initial_state
        return self

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


# A member's work goes to the pool only when its field has at least this many
# cells.  A coupled step plus a coefficient update on two threads against one,
# N=3 and N=8, on a 2-CPU host: 0.49-0.60x at 16^3, 0.89-0.93x at 24^3,
# 0.97-1.44x at 28^3, 1.32-1.52x at 32^3 and 1.36-1.49x at 64^3.  So the
# default 16^3 grid stays on the calling thread.
PARALLEL_MIN_CELLS = 28 ** 3

# Above the floor the gain still depends on the host: every NumPy call hands
# the interpreter lock to the other thread, and how fast that thread wakes up
# varies.  On the same 2-vCPU host, a 32^3 N=8 step ran 1.5x faster on two
# threads, and an hour later 0.7-0.9x as fast.  So each kind of member work is
# timed both ways, runs the faster way, and times the slower way again once
# in every _RETIME_EVERY calls.
_RETIME_EVERY = 16
# (task code, members, cells) -> [calls, inline s, pooled s]; updated without
# a lock, since a lost update only changes which way a later call runs
_timings = {}

_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # the member pool, created on first use
_pool_lock = threading.Lock()


def _member_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: concurrent.futures would add 7 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="supermodeling-member")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled_next(timing: list) -> bool:
    """Whether the next call of one kind of member work goes to the pool.

    The first four calls alternate, inline first, so each way is timed
    twice; later calls take the faster way but every _RETIME_EVERY-th.
    """
    calls, inline_s, pooled_s = timing
    if calls < 4:
        return calls % 2 == 1
    faster = pooled_s < inline_s
    return not faster if calls % _RETIME_EVERY == 0 else faster


def _for_each_member(task, values: np.ndarray) -> None:
    """Call ``task(i)`` for every member i, on the member pool when it pays.

    ``values`` holds the members' coupled variable, whose field size decides
    whether the pool is considered at all.  Every task finishes before an
    exception is raised, and the one raised is that of the lowest member
    index, as the sequential loop would raise it.
    """
    n = len(values)
    timing = None
    if _WORKERS > 1 and n > 1 and values[0].size >= PARALLEL_MIN_CELLS:
        timing = _timings.setdefault((task.__code__, n, values[0].size), [0, 0.0, 0.0])
    pooled = timing is not None and _pooled_next(timing)
    start = time.perf_counter()
    if pooled:
        pool = _member_pool()
        futures = [pool.submit(task, i) for i in range(n)]
        errors = [future.exception() for future in futures]  # waits for every task
        for error in errors:
            if error is not None:
                raise error
    else:
        for i in range(n):
            task(i)
    if timing is not None:
        elapsed = time.perf_counter() - start
        # a running mean that halves the weight of older calls
        way = 2 if pooled else 1
        timing[way] = elapsed if timing[0] < 2 else 0.5 * (timing[way] + elapsed)
        timing[0] += 1


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
    # the corrections only read pre-step values, so they are all formed first
    nudge_all = _nudge_sum(values, gt_now) if cm.k_nudge != 0.0 else None
    corrections = [None] * ens.n

    def correct(i):
        corrections[i] = _correction(values, cm, gt_now, nudge_all, i)

    def advance(i):
        if dt > 0:
            explicit_step(ens.system, ens.states[i], ens.params[i], dt, out=ens.states[i])
        if corrections[i] is not None:
            values[i] += corrections[i]

    _for_each_member(correct, values)
    _for_each_member(advance, values)
    # explicit_step checked the stepped states; only the corrections are new
    if any(c is not None for c in corrections) and not np.isfinite(values).all():
        raise BlowUpError(
            f"non-finite value in variable '{ens.coupled_variable}' during coupled step"
        )
    return ens


def _nudge_sum(values: np.ndarray, gt_now) -> np.ndarray:
    """sum_j (GT - B_j), summed over j in order."""
    gt_now = np.asarray(gt_now)
    total = gt_now - values[0]
    for value in values[1:]:
        total += gt_now - value
    return total


def _correction(values: np.ndarray, cm: CouplingMatrix, gt_now, nudge_all, i: int):
    """(1/N) sum_j C_ij (B_j - B_i) + (K/N) sum_j (GT - B_j) for member i, summed
    in that order, or None when there is nothing to add."""
    n = len(values)
    correction = None
    for j in range(n):
        if cm.c[i, j] != 0.0:
            term = values[j] - values[i]
            term *= cm.c[i, j] / n
            if correction is None:
                correction = term
            else:
                correction += term
    if nudge_all is not None:
        if cm.exclude_self_in_nudge:
            term = nudge_all - (np.asarray(gt_now) - values[i])
            term *= cm.k_nudge / n
        else:
            term = nudge_all * (cm.k_nudge / n)
        if correction is None:
            correction = term
        else:
            correction += term
    return correction


def update_coupling(
    cm: CouplingMatrix, ens: SubModelEnsemble, gt_now
) -> CouplingMatrix:
    """Correct every off-diagonal coefficient from the current mismatch.

    C_ij <- clamp(A*C_ij + A * <GT - B_i, B_i - B_j>), the inner product
    being the domain integral of the product of the two mismatch fields.
    """
    values = ens.coupled_values()
    gt_now = np.asarray(gt_now)
    n = ens.n
    new_c = cm.c.copy()

    def correct_row(i):
        mismatch = gt_now - values[i]
        for j in range(n):
            if i != j:
                inner = volume_inner(mismatch, values[i] - values[j], ens.system.cell_volume)
                new_c[i, j] = cm.a_rate * cm.c[i, j] + cm.a_rate * inner

    _for_each_member(correct_row, values)
    if not np.isfinite(new_c).all():
        raise BlowUpError("non-finite coupling coefficient update")
    np.clip(new_c, cm.c_min, cm.c_max, out=new_c)
    np.fill_diagonal(new_c, 0.0)
    return dataclasses.replace(cm, c=new_c)


def supermodel_output(ens: SubModelEnsemble, variables=None) -> np.ndarray:
    """Member average of the named variables, stacked in the order given.

    By default every variable is averaged, which gives a state.  Each one is
    computed so that N identical members return it exactly, and a variable
    gets the same bits whichever others are averaged with it.
    """
    names = ens.system.variables if variables is None else variables
    states = ens.states
    out = np.empty((len(names),) + states.shape[2:])
    for slot, name in enumerate(names):
        members = states[:, ens.system.variables.index(name), ...]
        acc = out[slot, ...]
        base = members[0, ...]
        if len(members) == 1:
            acc[...] = base
            continue
        np.subtract(members[1, ...], base, out=acc)
        for m in members[2:]:
            acc += m - base
        acc *= 1.0 / len(members)
        acc += base
    return out


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
    # only what the error (the coupled variable, first) and the volumes read
    # is averaged
    averaged = (ens.coupled_variable,)
    if has_volumes:
        averaged += tuple(v for v in ens.system.volume_variables if v not in averaged)
    prev_c = cm.c.copy()

    for epoch in range(max_epochs):
        ens.reset()
        errors: list[float] = []
        trajectory = [ens.coupled_values().copy()] if record_trajectories else None
        gt_now = gt_at(gt, 0)
        for step in range(steps_per_epoch):
            gt_next = gt_at(gt, step + 1)
            try:
                coupled_step(ens, cm, gt_now, dt)
                cm = update_coupling(cm, ens, gt_next)
                output = supermodel_output(ens, averaged)
                error = l2_norm(gt_next - output[0], ens.system.cell_volume)
                volumes = tuple(ens.system.volumes(output, averaged)) if has_volumes else None
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
    variables=None,
) -> list:
    """Run the trained supermodel from the ensemble's current states.

    The coefficient matrix stays frozen and the ensemble advances in place.
    By default the reference keeps nudging the ensemble during prediction
    (as in training); pass ``nudge_in_prediction=False`` for a free
    forecast, in which case no reference data is needed.  Returns steps+1
    entries including the averaged initial state: ``record(output)`` of
    every averaged output, or the output itself.  The output averages the
    named ``variables``, or every variable (see ``supermodel_output``).
    ``observer(step, ens)`` is called after every step for callers that want
    per-member data.
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
    outputs = [record(supermodel_output(ens, variables))]
    for step in range(steps):
        gt_now = gt_at(gt, step) if cm.k_nudge != 0.0 else None
        coupled_step(ens, cm, gt_now, dt)
        outputs.append(record(supermodel_output(ens, variables)))
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
