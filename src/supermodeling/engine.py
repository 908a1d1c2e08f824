"""Coupled-ensemble stepping, coupling-coefficient training, and prediction.

The ensemble advances all members in lockstep.  One coupled step applies,
to the coupled variable only (the system's first variable),

    B_i <- B_i + dt*S(B_i, P_i)
         + (1/N) * sum_j C_ij * (B_j - B_i)
         + (1/N) * K * sum_j (GT - B_j)

where every B_j on the right-hand side is the pre-step value (synchronous
update).  The nudging sum runs over all j, so it acts on the ensemble mean.
All other state variables advance by the free model step alone.

Both sums are linear in the members' values, so with the values as an
(N, cells) matrix B every member's correction is one product, mix @ B + K*GT:
mix is (C - K)/N off the diagonal and -(rowsum(C) + K)/N on it.  The
correction is skipped when mix is zero, so an ensemble with no coupling and
no nudging steps exactly like free models.  The coefficient update reads
<GT - B_i, B_i - B_j> for every pair from one product of the mismatches with
the members' deviations from their mean (see ``mismatch_inner``).  Compiled
passes (``_kernel``) write those rows and the member average, elementwise
with the bits of the NumPy formulas; the products stay BLAS calls and the
errors' sums NumPy's, whose order a pass of its own would change.  The
products sum in another order than the formulas above, so results agree
with a pair-by-pair evaluation to round-off, not bit for bit.  For the same
reason the fixed points hold only to round-off: the rows of mix sum to -K in
exact arithmetic, not in floating point, so identical members, or members
equal to the reference they are nudged to, drift by round-off instead of
staying put: at most 7e-16 of the field's largest value after 100 steps,
measured on 6^3 fields with 2 to 8 members.

K and C act once per step and are not scaled by dt, so their strength is per
step.  The nudge adds K*(GT - mean) to every member, which moves the
ensemble mean's distance to the reference by the factor (1 - K) each step
(apart from the model's own tendency and what an asymmetric C adds to the
mean): K's stable band is (0, 2) whatever dt is.  A coefficient acts at
C_ij/(N*dt) per unit time, so halving dt doubles the coupling per unit time.

Training runs epochs of M coupled steps from a shared initial condition.
Within a step the order is: advance and apply the coupling corrections (one
coupled step, using the reference at the pre-step index), then fetch the
reference at the new index and correct the coefficients.  Coefficients are
clamped into [c_min, c_max] after every correction.  Epochs stop early once
the largest coefficient change between consecutive epochs drops below the
tolerance.

Each member's free step, followed by adding its row of the correction, is
one ``explicit_step`` call: one compiled pass over the member's state that
also tells whether every value it stored is finite, so a step that blows up
raises BlowUpError from there, naming the first non-finite variable, and a
finite step costs no separate check.  Every step has dt > 0:
``coupled_step``, ``train`` and ``simulate`` reject any other dt before they
write a state.  A member steps in one of P = min(N, usable CPUs) processes:
the caller and workers forked from it on its first coupled step, which live
as long as the ensemble.  Member i runs in process (i + 1) mod P, where
process 0 is the caller, so the caller, which also has the serial work of
every step, steps the smaller share: floor(N/P) members.
The states sit in shared memory and the caller writes the corrections to a
shared buffer, so a coupled step hands off once per worker: a command down a
pipe and a reply back.  A process waiting on its pipe polls it for up to
``_POLL_S`` before it blocks, so within an epoch a worker takes its next
command without waiting to be woken, while an idle one sleeps.

Training and prediction run on one loop of steps, ``_run_steps``, which
promises, on every step but the last, that the next call is a coupled step
of the same ensemble and that nothing writes the states before it.  Given
that promise, a worker computes its members' next tendencies right after its
reply, while the caller runs its serial phase (coefficient update, average,
error), and the promised step applies them instead of computing them.  The
worker's loop keeps one array per member for them (``tendency``'s ``out``),
so it allocates none after the first step; the caller keeps none, nor any
other array between calls.  A tendency reads only its member's state, which
nothing writes in between, so it has the same bits either way.
Looking ahead stops at a tendency that raises, which the promised step then
computes afresh, so it raises at its own step.  Every other step (the first
of a loop, a public ``coupled_step`` call, a step after a failure) computes
its tendencies afresh, so a loop that ends early leaves nothing stale
behind.  Each member is computed by the same operations in the same order
either way, so results are bit-identical to a sequential run.  The caller
steps every member itself, in member order, when only one CPU is usable
and when a member's field has fewer than ``PARALLEL_MIN_CELLS`` cells
(where the handoff costs more than the second core saves).  A process forked
from the caller, other than a worker, gets a private copy of the states at
the fork and does the same.  Workers step with the system and parameter sets
as they were when they were forked.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import mmap
import numbers
import os
import pickle
import select
import struct
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from ._kernel import pointer
from .dynamics import DynamicalSystem, explicit_step
from .fields import BlowUpError
from .groundtruth import GroundTruth, gt_at, step_error


@dataclass
class CouplingMatrix:
    """Ensemble meta-parameters: coupling weights, nudging, learning factor.

    ``c`` is n-by-n with an unused zero diagonal: a read-only copy of the
    array it was built from, so a matrix is a value that nothing writes, and
    an update returns a new matrix.  Off-diagonal entries are clamped into
    [c_min, c_max] by every update (initial values are taken as given).
    ``a_rate`` is the correction factor applied to both the old value and
    the increment during training and must lie in (0, 1].
    """

    c: np.ndarray
    k_nudge: float
    a_rate: float = 1.0
    c_min: float = 0.1
    c_max: float = 0.9

    def __post_init__(self):
        self.c = np.array(self.c, dtype=np.float64)
        self.c.setflags(write=False)
        for name in ("k_nudge", "a_rate", "c_min", "c_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if self.c.ndim != 2 or self.c.shape[0] != self.c.shape[1]:
            raise ValueError("coupling matrix must be square")
        # the clamps may be infinite, which leaves the coefficients unclamped
        if not (np.isfinite(self.c).all() and math.isfinite(self.k_nudge)):
            raise ValueError("coupling coefficients and k_nudge must be finite")
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


@dataclass
class SubModelEnsemble:
    """N parameter sets plus the N member states, stepped in lockstep.

    An ensemble is built from its members' parameters and their shared
    initial state, which is kept as given, not copied, so the caller must
    leave it unchanged while the ensemble is in use.  ``states`` is one
    C-contiguous float64 array of shape (N, ...) whose entry i is member i's
    state array (one value for the toy systems, five fields for the tumor
    model); it starts at the initial state, and coupled steps and ``reset``
    rewrite it in place.  When worker processes may step the members
    (several members and CPUs, and at least ``PARALLEL_MIN_CELLS`` cells per
    field), it lies in an anonymous shared mapping, which only the engine's
    workers share: any other process forked later gets a private copy at the
    fork.  The ensemble holds its members' states, their parameters, the
    initial state and its workers, nothing else: every function allocates
    the arrays it works in.
    """

    system: DynamicalSystem
    params: list
    initial_state: np.ndarray
    states: np.ndarray = field(init=False)
    _workers: _MemberWorkers | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        self.initial_state = np.atleast_1d(np.asarray(self.initial_state, dtype=np.float64))
        shape = (len(self.params),) + self.initial_state.shape
        if _CPUS > 1 and len(self.params) > 1 and self.initial_state[0].size >= PARALLEL_MIN_CELLS:
            self.states = _shared_zeros(shape)
            _shared_ensembles[id(self)] = self
        else:
            self.states = np.empty(shape)
        self.reset()

    @property
    def n(self) -> int:
        return len(self.params)

    def reset(self) -> "SubModelEnsemble":
        """Every member back at the shared initial condition, in place; returns ``self``."""
        self.states[...] = self.initial_state
        return self

    def coupled_values(self) -> np.ndarray:
        """View of every member's coupled variable, the first, shape (N, ...)."""
        return self.states[:, 0]


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

    c_history: list[np.ndarray] = field(default_factory=list)
    step_records: list[StepRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations_used(self) -> int:
        """Epochs completed: one coefficient matrix is recorded per epoch end."""
        return len(self.c_history)


# Worker processes step an ensemble only when a member's field has at least
# this many cells.  One training step (coupled step, coefficient update,
# average of b and o, error), workers against inline, in 16 alternating
# rounds of 40 steps per grid, on a 2-vCPU host with one BLAS thread and the
# compiled tendency (a 16^3 member step takes 0.13-0.22 ms): the median
# speedup over the rounds in each of three sets, and in brackets the lowest
# of their lower quartiles,
#
#     grid    N=3                      N=8
#     8^3     0.80 1.62 0.86 (0.75)    1.53 1.54 1.50 (1.25)
#     12^3    0.83 1.62 0.85 (0.82)    1.53 1.53 1.55 (1.31)
#     16^3    1.66 1.30 1.32 (0.96)    1.54 1.55 1.45 (1.33)
#     20^3    1.73 1.66 1.51 (1.07)    1.59 1.47 1.41 (1.31)
#     24^3    1.79 1.66 1.70 (1.54)    1.54 1.54 1.51 (1.41)
#     28^3    1.69 1.77 1.73 (1.37)    1.53 1.51 1.48 (1.39)
#     32^3    1.58 1.79 1.63 (1.44)    1.57 1.61 1.49 (1.43)
#
# 16^3 is the smallest grid where every median exceeds 1: below it, N=3
# lost in two sets of three.  One 16^3 lower quartile dips to 0.96, but
# with the limit at 20^3 the default 16^3 run would step inline, slower by
# the 1.3-1.7 of the medians.  The host's spread is wide: a 6-round set
# taken between these read 0.85 at 20^3 and 24^3 (N=3), and the same set
# with the NumPy tendency 0.93 and 0.99.
PARALLEL_MIN_CELLS = 16 ** 3

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# dt; whether a correction is added; whether the step applies the tendencies
# its worker computed ahead; whether the worker computes the next ones ahead
_COMMAND = struct.Struct("=d???")
# the length of the pickled failure that follows, 0 if the step succeeded
_REPLY = struct.Struct("=I")

# How long a process waiting on a worker pipe polls it before it blocks (see
# ``_read``).  Within an epoch a worker spends the caller's serial phase
# (corrections, coefficient update, average, error) computing its members'
# next tendencies, and waits for the next command only for what is left of
# it; on a step that promised nothing it waits for all of it, and for the
# caller's own member: 0.24-0.35 + 0.13-0.22 ms at 16^3 (N=3) on a 2-vCPU
# host with the compiled tendency, so 2 ms covers it.  There, a pipe round
# trip with the caller busy 0.2 ms between handoffs took p50 19-20 us, p90
# 26-38 us and p99 50-91 us to a blocking worker, and 8-11 us, 13-18 us and
# 25-34 us to a polling one (2 sets of 3000); on a busier day the same
# host read p50 37-40 us, p90 135-175 us and p99 2.2-3.0 ms against 17 us,
# 22-33 us and 0.3-2.3 ms.
_POLL_S = 0.002

# Ensembles whose states sit in a shared mapping, by id.  A process forked
# from the one that made them gets private copies at once, except for the
# engine's own workers, which are forked while ``_forking_workers`` is set.
_shared_ensembles = weakref.WeakValueDictionary()
_forking_workers = False


def _detach_after_fork() -> None:
    """In a forked child: give every shared ensemble a private copy of its
    states and close its copies of the worker pipes, so that the child steps
    inline and never writes the members of the process it was forked from."""
    if _forking_workers:
        return
    for ens in list(_shared_ensembles.values()):
        ens.states = np.array(ens.states)
        if ens._workers is not None:
            ens._workers.close()
    _shared_ensembles.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_detach_after_fork)


def _shared_zeros(shape) -> np.ndarray:
    """A float64 array of zeros in an anonymous shared mapping, which every
    process forked afterwards reads and writes in place."""
    nbytes = 8 * math.prod(shape)
    return np.ndarray(shape, np.float64, buffer=mmap.mmap(-1, max(nbytes, 1)))


def _advance_members(ens: SubModelEnsemble, members, dt: float, corrections, ahead=None):
    """Step the listed members in place, each followed by adding its row of
    ``corrections`` (None: no correction).  ``ahead`` maps members to their
    tendencies from ``_look_ahead``, which the steps use, and the others'
    are computed.  Returns (member, exception) for the first member that
    fails, or None."""
    for i in members:
        try:
            explicit_step(ens.system, ens.states[i], ens.params[i], dt,
                          tendency=None if ahead is None else ahead.get(i),
                          correction=None if corrections is None else corrections[i, ...])
        except Exception as exc:
            return i, exc
    return None


def _look_ahead(ens: SubModelEnsemble, members, kept: dict) -> dict:
    """The listed members' tendencies at their current states, by member, up
    to the first that raises, which is left out with the ones after it.  Each
    is written into ``kept[member]``, which is made when it is missing."""
    ahead = {}
    for i in members:
        state = ens.states[i]
        try:
            if i not in kept:
                kept[i] = np.empty(state.shape)
            ahead[i] = ens.system.tendency(state, ens.params[i], out=kept[i])
        except Exception:
            break
    return ahead


class _MemberWorkers:
    """Processes forked from the caller that step an ensemble's members with it.

    Member i is stepped by process (i + 1) mod ``size``, where process 0 is
    the caller, so the caller steps no more members than any worker.  The
    workers step their members in the ensemble's shared states array and
    read the corrections from a shared buffer, so a coupled step costs one
    command byte-string and one reply per worker.  Workers exit on
    end-of-file on their command pipe, that is when this object closes or
    the caller dies; closing also kills and reaps them.
    """

    def __init__(self, ens: SubModelEnsemble):
        n = ens.n
        self.size = min(n, _CPUS)
        self.members = range(self.size - 1, n, self.size)  # the caller's
        self.owner = os.getpid()
        self.corrections = _shared_zeros(ens.coupled_values().shape)
        self.pids, self.commands, self.replies = [], [], []
        self._finalizer = weakref.finalize(
            ens, _stop_workers, self.owner, self.pids, self.commands, self.replies)
        global _forking_workers
        try:
            for k in range(1, self.size):
                command_in, command_out = os.pipe()
                reply_in, reply_out = os.pipe()
                _forking_workers = True
                try:
                    pid = os.fork()
                finally:
                    _forking_workers = False
                if pid == 0:
                    code = 1
                    try:
                        code = _serve(ens, range(k - 1, n, self.size), self.corrections,
                                      command_in, reply_out)
                    finally:
                        os._exit(code)
                os.close(command_in)
                os.close(reply_out)
                os.set_blocking(reply_in, False)
                self.pids.append(pid)
                self.commands.append(command_out)
                self.replies.append(reply_in)
        except BaseException:
            self.close()  # a failed fork leaves no earlier worker running
            raise

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        self._finalizer()

    def step(self, ens: SubModelEnsemble, dt: float, corrections, reuse_ahead: bool,
             look_ahead: bool):
        """Advance every member as ``_advance_members`` does; returns the
        failure of the lowest member index, or None.  The flags are those of
        ``coupled_step``."""
        command = _COMMAND.pack(dt, corrections is not None, reuse_ahead, look_ahead)
        try:
            self._send(command)
            failures = [_advance_members(ens, self.members, dt, corrections)]
            failures += [self._reply(k) for k in range(len(self.replies))]
        except BaseException:
            self.close()  # replies may be pending: these workers are out of step
            raise
        # the (member, exception) pair of the lowest member index, or None
        return min(filter(None, failures), key=lambda failure: failure[0], default=None)

    def _send(self, command: bytes) -> None:
        for k, fd in enumerate(self.commands):
            try:
                _write(fd, command)
            except BrokenPipeError:
                raise self._died(k) from None

    def _reply(self, k: int):
        fd = self.replies[k]
        header = _read(fd, _REPLY.size)
        if len(header) == _REPLY.size:
            (length,) = _REPLY.unpack(header)
            body = _read(fd, length)
            if len(body) == length:
                return pickle.loads(body) if length else None
        raise self._died(k)

    def _died(self, k: int) -> RuntimeError:
        return RuntimeError(f"member worker process {self.pids[k]} exited before its reply")


def _read(fd: int, size: int) -> bytes:
    """Up to ``size`` bytes from the non-blocking pipe ``fd``; fewer only at
    end-of-file.  Waits by polling for up to ``_POLL_S``, so a reply or
    command that comes soon is taken without a wake-up, then blocks until
    the pipe is readable."""
    data = b""
    deadline = time.monotonic() + _POLL_S
    while len(data) < size:
        try:
            chunk = os.read(fd, size - len(data))
        except BlockingIOError:
            os.sched_yield()  # a thread waiting for this CPU runs first
            if time.monotonic() >= deadline:
                poller = select.poll()  # select.select fails on descriptors >= 1024
                poller.register(fd, select.POLLIN)
                poller.poll()
            continue
        if not chunk:
            break
        data += chunk
    return data


def _write(fd: int, data: bytes) -> None:
    """All of ``data`` to the blocking pipe ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(ens, members, corrections, commands: int, replies: int) -> int:
    """A worker's loop: one step of ``members`` per command until end-of-file,
    followed, when the command asks for it, by the members' next tendencies,
    which only the next command may apply.  They are written into one array
    per member that the loop keeps, so only the first look-ahead allocates."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    # hold no descriptor but these two: a pipe's write end held here (this
    # worker's command pipe's or a sibling's) would hide its end-of-file, and
    # an inherited stdout would keep a reader of the caller's output waiting
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low = 3
    for fd in sorted((commands, replies)):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))
    os.set_blocking(commands, False)
    ahead, kept = None, {}
    while True:
        command = _read(commands, _COMMAND.size)
        if len(command) < _COMMAND.size:
            return 0
        dt, corrected, reuse_ahead, look_ahead = _COMMAND.unpack(command)
        failure = _advance_members(ens, members, dt, corrections if corrected else None,
                                   ahead if reuse_ahead else None)
        reply = b"" if failure is None else pickle.dumps(failure)
        _write(replies, _REPLY.pack(len(reply)) + reply)
        ahead = _look_ahead(ens, members, kept) if look_ahead and failure is None else None


def _stop_workers(owner: int, pids: list, commands: list, replies: list) -> None:
    for fd in commands + replies:
        os.close(fd)
    if os.getpid() == owner:  # a forked child only drops its copies of the pipes
        import signal

        for pid in pids:
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _member_workers(ens: SubModelEnsemble):
    """The ensemble's worker processes, forked on first use, or None when
    the caller steps every member itself because the states are not in
    shared memory (as in a forked child, see ``_detach_after_fork``)."""
    if not isinstance(ens.states.base, mmap.mmap):
        return None
    workers = ens._workers
    if workers is None or workers.closed:  # not forked yet, or a worker died
        workers = ens._workers = _MemberWorkers(ens)
    return workers


def coupled_step(
    ens: SubModelEnsemble, cm: CouplingMatrix, gt_now, dt: float, *,
    reuse_ahead: bool = False, look_ahead: bool = False,
) -> SubModelEnsemble:
    """Advance every member one step of ``dt`` > 0, in place, with
    synchronization and nudging.  ``gt_now`` is the reference value at the
    pre-step index, which may be None only when K is zero.  Returns ``ens``.

    The flags belong to the step loop, ``_run_steps``.  ``look_ahead``
    promises that the next call is a coupled step of this ensemble with
    ``reuse_ahead`` set, and that nothing writes the states before it: the
    worker processes, if any, then compute their members' next tendencies
    while the caller goes on, and that next step applies them.  A step
    without ``reuse_ahead``, as any other call is, computes them afresh.
    """
    if not dt > 0:  # NaN too
        raise ValueError("dt must be positive")
    if cm.n != ens.n:
        raise ValueError(f"coupling is {cm.n}x{cm.n} but ensemble has {ens.n} members")
    if cm.k_nudge != 0.0 and gt_now is None:
        raise ValueError("nudging needs the reference value at this step")
    workers = _member_workers(ens)
    # the corrections only read pre-step values, so they are formed first
    corrections = _corrections(ens, cm, gt_now,
                               None if workers is None else workers.corrections)
    if workers is None:
        failure = _advance_members(ens, range(ens.n), dt, corrections)
    else:
        failure = workers.step(ens, dt, corrections, reuse_ahead, look_ahead)
    if failure is not None:
        raise failure[1]
    return ens


def _corrections(ens: SubModelEnsemble, cm: CouplingMatrix, gt_now, out=None):
    """Every member's coupling and nudging correction, mix @ B + K*GT, or None
    when the mixing matrix is zero (no coupling and no nudging).  Written to
    ``out``, an array shaped like the coupled values, when one is given, and
    otherwise to a new one."""
    values = ens.coupled_values()
    n = len(values)
    mix = (cm.c - cm.k_nudge) / n
    np.fill_diagonal(mix, -(cm.c.sum(axis=1) + cm.k_nudge) / n)
    if not mix.any():
        return None
    if out is None:
        out = np.empty(values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(mix, values.reshape(n, -1), out=out.reshape(n, -1))
        if cm.k_nudge != 0.0:
            out += np.multiply(cm.k_nudge, gt_now)
    return out


def mismatch_inner(states, gt_now, cell_volume: float) -> np.ndarray:
    """The N-by-N matrix of <GT - B_i, B_i - B_j> * cell_volume over the
    members' coupled values B, the first variable of ``states`` (zero on the
    diagonal).  ``states`` is an ensemble's (N, V, ...) array and ``gt_now``
    holds one value per cell of a variable.

    Every entry comes from one product P = (GT - B) @ (B - mean)^T as
    P_ii - P_ij.  Centering on the member mean keeps the difference accurate
    when members nearly agree; uncentered, each P_ij would be of the size of
    |GT - B_i| |B_j| and the difference would cancel to noise.  One compiled
    pass writes the rows GT - B_i and B_i - mean with the bits of NumPy's
    formulas (the mean as NumPy's: a sum from 0.0 in member order, pairwise
    for one-value members, divided by N); the product is NumPy's BLAS call.
    """
    n, shape = len(states), states.shape[2:]
    gt = np.ascontiguousarray(gt_now, dtype=np.float64).reshape(shape)
    work = np.empty((2 * n, gt.size))
    _kernel.LIB.mismatch(n, math.prod(states.shape[1:]), gt.size,
                         pointer(states, states.shape), pointer(gt, shape),
                         pointer(work, work.shape, states, gt, output=True))
    with np.errstate(over="ignore", invalid="ignore"):
        products = work[:n] @ work[n:].T
        return (np.diagonal(products)[:, None] - products) * cell_volume


def update_coupling(
    cm: CouplingMatrix, ens: SubModelEnsemble, gt_now
) -> CouplingMatrix:
    """Correct every off-diagonal coefficient from the current mismatch.

    C_ij <- clamp(A*C_ij + A * <GT - B_i, B_i - B_j>), the inner product
    being the domain integral of the product of the two mismatch fields
    (see ``mismatch_inner``).
    """
    inner = mismatch_inner(ens.states, gt_now, ens.system.cell_volume)
    with np.errstate(over="ignore", invalid="ignore"):
        new_c = cm.a_rate * cm.c + cm.a_rate * inner
    if not np.isfinite(new_c).all():
        raise BlowUpError("non-finite coupling coefficient update")
    np.clip(new_c, cm.c_min, cm.c_max, out=new_c)
    np.fill_diagonal(new_c, 0.0)
    return dataclasses.replace(cm, c=new_c)


def supermodel_output(ens: SubModelEnsemble, variables=None) -> np.ndarray:
    """Member average of the named variables, stacked in the order given.

    By default every variable is averaged, which gives a state.  Each one is
    one compiled pass, base + (sum of B_k - base) * (1/N) with base the first
    member, so N identical members return it exactly, and a variable gets
    the same bits whichever others are averaged with it.
    """
    names = ens.system.variables if variables is None else variables
    states, shape = ens.states, ens.states.shape[2:]
    out, cells = np.empty((len(names),) + shape), math.prod(shape)
    states_ptr = pointer(states, states.shape)
    for slot, name in enumerate(names):
        _kernel.LIB.average(len(states), math.prod(states.shape[1:]),
                            ens.system.variables.index(name) * cells, cells, states_ptr,
                            pointer(out[slot, ...], shape, states, output=True))
    return out


def _check_run(gt: GroundTruth | None, dt: float, steps: int) -> None:
    """Reject a dt that is not > 0 and a reference that does not cover ``steps``."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if gt is not None and gt.final_index < steps:
        raise ValueError(f"reference covers steps up to {gt.final_index}, need {steps}")


def _run_steps(
    ens: SubModelEnsemble, cm: CouplingMatrix, gt: GroundTruth | None, dt: float,
    steps: int, after_step,
) -> CouplingMatrix:
    """Run ``steps`` coupled steps from the current states; returns the
    coefficients after the last.

    ``after_step(step, cm, ref)`` runs at step 0 and after each step: ``cm``
    is the coefficients in use and ``ref`` the reference at ``step`` (None
    without one), and it returns the next step's coefficients.  It must not
    write the states, for the loop promises each step but the last to the
    workers (see ``coupled_step``).  Each reference step is fetched once and
    nudges the step that starts from it; a reference must cover ``steps``.
    """
    _check_run(gt, dt, steps)
    ref = None if gt is None else gt_at(gt, 0)
    cm = after_step(0, cm, ref)
    for step in range(steps):
        coupled_step(ens, cm, ref, dt, reuse_ahead=step > 0,
                     look_ahead=step + 1 < steps)
        ref = None if gt is None else gt_at(gt, step + 1)
        cm = after_step(step + 1, cm, ref)
    return cm


def train(
    ens: SubModelEnsemble,
    cm: CouplingMatrix,
    gt: GroundTruth,
    dt: float,
    steps_per_epoch: int,
    max_epochs: int,
    tol: float,
    min_epochs: int = 1,
) -> tuple[CouplingMatrix, TrainingReport]:
    """Iterate coupled epochs against the reference until coefficients settle.

    Each epoch resets all members to the shared initial condition and runs
    ``steps_per_epoch`` coupled steps, correcting the coefficients after
    every step.  Converged means the largest per-entry coefficient change
    between consecutive epoch ends fell below ``tol`` (checked only once
    ``min_epochs`` epochs have run).  Requires the reference to cover steps
    0 through ``steps_per_epoch``.
    """
    _check_run(gt, dt, steps_per_epoch)  # before a reset writes the states
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    report = TrainingReport()
    has_volumes = hasattr(ens.system, "volumes")
    # only what the error (the coupled variable, first) and the volumes read
    # is averaged
    averaged = ens.system.variables[:1]
    if has_volumes:
        averaged += tuple(v for v in ens.system.volume_variables if v not in averaged)
    prev_c = cm.c

    def after_step(step, cm, ref):
        if step > 0:
            cm = update_coupling(cm, ens, ref)
            output = supermodel_output(ens, averaged)
            error, _ = step_error(ref, output[0], ens.system.cell_volume)
            volumes = tuple(ens.system.volumes(output, averaged)) if has_volumes else None
            report.step_records.append(
                StepRecord(epoch, step, cm.c.reshape(-1), error, volumes))
        return cm

    for epoch in range(max_epochs):
        ens.reset()
        recorded = len(report.step_records)
        try:
            cm = _run_steps(ens, cm, gt, dt, steps_per_epoch, after_step)
        except BlowUpError as exc:
            # every step before the failing one was recorded
            step = len(report.step_records) - recorded
            raise TrainingAborted(epoch, step, report, str(exc)) from exc
        report.c_history.append(cm.c)
        delta = float(np.max(np.abs(cm.c - prev_c)))
        if epoch + 1 >= min_epochs and delta < tol:
            report.converged = True
            break
        prev_c = cm.c
    return cm, report


def simulate(
    ens: SubModelEnsemble,
    cm: CouplingMatrix,
    gt: GroundTruth | None,
    dt: float,
    steps: int,
    nudge_in_prediction: bool = True,
    each_step=None,
) -> list:
    """Run the trained supermodel from the ensemble's current states.

    The coefficient matrix stays frozen and the ensemble advances in place.
    By default the reference keeps nudging the ensemble during prediction
    (as in training); pass ``nudge_in_prediction=False`` for a free
    forecast, in which case no reference data is needed.  A reference that
    is given must cover ``steps``, which is checked before the first step.
    Returns ``each_step(step, ens, ref)`` for steps 0 (the initial states)
    through ``steps``, where ``ref`` is the reference at that step, or None
    without one; by default that is the averaged state (see
    ``supermodel_output``).  ``each_step`` must not write the states: it
    runs as ``_run_steps``'s ``after_step``.
    """
    if not nudge_in_prediction:
        cm = dataclasses.replace(cm, k_nudge=0.0)
    if gt is None and cm.k_nudge != 0.0:
        raise ValueError("nudged prediction needs reference data")
    if each_step is None:
        def each_step(_step, ens, _ref):
            return supermodel_output(ens)
    outputs = []

    def after_step(step, cm, ref):
        outputs.append(each_step(step, ens, ref))
        return cm

    _run_steps(ens, cm, gt, dt, steps, after_step)
    return outputs


def export_training_csv(report: TrainingReport, path, n: int):
    """Per-step CSV: epoch, step, off-diagonal coefficients, error, volumes."""
    offdiag = ~np.eye(n, dtype=bool).reshape(-1)
    header = ["epoch", "step"]
    header += [f"c_{i + 1}_{j + 1}" for i in range(n) for j in range(n) if i != j]
    header += ["l2_error", "total", "proliferating", "quiescent"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in report.step_records:
            row = [rec.epoch, rec.step]
            row += [repr(float(v)) for v in rec.c_flat[offdiag]]
            row.append(repr(float(rec.error)))
            if rec.volumes is not None:
                row += [repr(float(v)) for v in rec.volumes]
            else:
                row += ["", "", ""]
            writer.writerow(row)
