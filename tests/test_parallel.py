"""Members stepped by the engine's worker processes against the same steps
inline.

Workers only step grids of at least ``engine.PARALLEL_MIN_CELLS`` cells per
field; most of these tests lower that floor, and claim two usable CPUs,
before they build an ensemble, so that 8^3 ensembles go to a worker.  "Threaded" in a
test name means stepped off the calling thread, which is now done in a
forked worker process.
"""

import contextlib
import dataclasses
import gc
import mmap
import os
import signal
import time

import numpy as np
import pytest

from supermodeling import engine
from supermodeling.dynamics import DynamicalSystem
from supermodeling.engine import (
    CouplingMatrix,
    SubModelEnsemble,
    TrainingAborted,
    coupled_step,
    simulate,
    train,
    update_coupling,
)
from supermodeling.experiments import (
    ExperimentConfig,
    build_setup,
    initial_coupling,
    instantiate_submodels,
    run_experiment,
)
from supermodeling.fields import BlowUpError
from supermodeling.groundtruth import generate_gt, gt_at
from supermodeling.tumor import FIELD_NAMES

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")


def force_workers(patch):
    """Let worker processes step every ensemble built afterwards."""
    patch.setattr(engine, "PARALLEL_MIN_CELLS", 0)
    patch.setattr(engine, "_CPUS", max(engine._CPUS, 2))


def make_ensemble(n_submodels, k_nudge=0.9):
    config = ExperimentConfig(nx=8, ny=8, nz=8, n_submodels=n_submodels, variant="V2",
                              k_nudge=k_nudge)
    _spec, reference, system, initial = build_setup(config)
    params = instantiate_submodels(reference, config)
    ens = SubModelEnsemble(system, params, initial)
    return ens, initial_coupling(config), initial[0] * 1.01


STEPS = 4  # steps per training epoch and per prediction


def make_training(n_submodels):
    """An 8^3 ensemble, its initial coupling and a reference of ``STEPS`` steps."""
    config = ExperimentConfig(nx=8, ny=8, nz=8, n_submodels=n_submodels, variant="V2")
    _spec, reference, system, initial = build_setup(config)
    params = instantiate_submodels(reference, config)
    gt = generate_gt(system, reference, initial, config.dt, STEPS)
    return SubModelEnsemble(system, params, initial), initial_coupling(config), gt


def run_loops(ens, cm, gt):
    """Two epochs of training, then a nudged and a free prediction with the
    trained coefficients: every array they give, to compare bit for bit."""
    cm, report = train(ens, cm, gt, 0.1, STEPS, max_epochs=2, tol=1e-300, min_epochs=2)
    arrays = [cm.c, ens.states.copy(), *report.c_history,
              np.array([record.c_flat for record in report.step_records]),
              np.array([record.error for record in report.step_records]),
              np.array([record.volumes for record in report.step_records])]
    for nudged in (True, False):
        arrays += simulate(ens.reset(), cm, gt, 0.1, STEPS, nudge_in_prediction=nudged)
        arrays.append(ens.states.copy())
    return arrays


def assert_same_arrays(arrays, expected):
    assert len(arrays) == len(expected)
    for got, want in zip(arrays, expected):
        assert np.array_equal(got, want)


def count_member_tendencies(ens):
    """A shared array that counts the tendencies every process runs for each
    member; call it before the workers are forked."""
    counts = engine._shared_zeros((ens.n,))
    tendency, base, size = ens.system.tendency, ens.states.ctypes.data, ens.states[0].nbytes

    def spy(state, params, out=None):
        counts[(state.ctypes.data - base) // size] += 1
        return tendency(state, params, out=out)

    ens.system.tendency = spy
    return counts


def count_tendencies(system):
    """A list that gets one entry per tendency this process runs on the system."""
    calls = []
    tendency = system.tendency

    def spy(state, params, out=None):
        calls.append(None)
        return tendency(state, params, out=out)

    system.tendency = spy
    return calls


def run_steps(ens, cm, gt_now, steps=4):
    """States and coefficients after each of a few coupled steps with updates."""
    ens.reset()
    trace = []
    for _ in range(steps):
        coupled_step(ens, cm, gt_now, 0.1)
        cm = update_coupling(cm, ens, gt_now)
        trace.append((ens.states.copy(), cm.c))
    return trace


def assert_same_trace(trace, expected):
    assert len(trace) == len(expected)
    for (states, c), (states_expected, c_expected) in zip(trace, expected):
        assert np.array_equal(states, states_expected)
        assert np.array_equal(c, c_expected)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def alive(pid):
    """Whether the child ``pid`` has not been reaped yet and has not exited."""
    try:
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        return False


def exited(pid):
    """Whether a process that is not this one's child has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("n_submodels", [3, 4])
@pytest.mark.parametrize("k_nudge", [0.9, 0.0], ids=["nudged", "free"])
def test_threaded_steps_equal_inline(monkeypatch, n_submodels, k_nudge):
    ens, cm, gt_now = make_ensemble(n_submodels, k_nudge)
    inline = run_steps(ens, cm, gt_now)
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(n_submodels, k_nudge)
    here = count_tendencies(ens.system)
    stepped = run_steps(ens, cm, gt_now)
    workers = ens._workers
    assert workers.pids and all(alive(pid) for pid in workers.pids)
    # the calling process ran only its own share of the members, the smaller one
    assert len(here) == len(stepped) * (n_submodels // workers.size)
    assert_same_trace(stepped, inline)


def test_one_dispatch_per_coupled_step_and_none_per_update(monkeypatch):
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    dispatched = []
    step = engine._MemberWorkers.step

    def spy(workers, *args):
        dispatched.append(args)
        return step(workers, *args)

    monkeypatch.setattr(engine._MemberWorkers, "step", spy)
    coupled_step(ens, cm, gt_now, 0.1)
    assert len(dispatched) == 1
    update_coupling(cm, ens, gt_now)
    assert len(dispatched) == 1


def blowup_message(ens, cm, gt_now, broken):
    """The error of a coupled step with a NaN in one cell of the named field
    of each listed member."""
    ens.reset()
    for member, name in broken.items():
        ens.states[member, FIELD_NAMES.index(name), 4, 4, 4] = np.nan
    with pytest.raises(BlowUpError) as err:
        coupled_step(ens, cm, gt_now, 0.1)
    return str(err.value)


# with two processes member 1 is the caller's and members 0 and 2 the worker's,
# so the first case fails in two processes and the second in one
@pytest.mark.parametrize("broken", [{1: "M", 2: "A"}, {0: "A", 2: "M"}])
def test_threaded_blowup_raises_inline_message(monkeypatch, broken):
    ens, cm, gt_now = make_ensemble(3)
    (first, first_field), (last, last_field) = broken.items()
    inline = blowup_message(ens, cm, gt_now, broken)
    # the two members fail on different variables, so the message names the member
    assert inline == blowup_message(ens, cm, gt_now, {first: first_field})
    assert inline != blowup_message(ens, cm, gt_now, {last: last_field})
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    assert blowup_message(ens, cm, gt_now, broken) == inline
    # every member has finished: nothing writes to the ensemble afterwards
    after = ens.states.copy()
    time.sleep(0.05)
    assert np.array_equal(ens.states, after, equal_nan=True)
    # and the worker is still in step with the caller
    expected = run_steps(make_ensemble(3)[0], cm, gt_now)
    assert_same_trace(run_steps(ens, cm, gt_now), expected)


def test_killed_worker_makes_the_next_step_raise(monkeypatch):
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    coupled_step(ens, cm, gt_now, 0.1)
    pid = ens._workers.pids[0]
    os.kill(pid, signal.SIGKILL)
    with deadline(10), pytest.raises(RuntimeError, match=f"worker process {pid} exited"):
        coupled_step(ens, cm, gt_now, 0.1)
    assert not alive(pid)
    # the next step forks a new worker
    expected = run_steps(make_ensemble(3)[0], cm, gt_now)
    with deadline(30):
        assert_same_trace(run_steps(ens, cm, gt_now), expected)
    assert pid not in ens._workers.pids


def cpu_seconds(pid):
    """User plus system CPU seconds of a process, as /proc counts them (in
    clock ticks)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def idle_cpu_seconds(pid):
    """CPU seconds ``pid`` uses over the next ``max(20 * _POLL_S, 0.5)``
    seconds, and the most an idle worker may use over them: one budget of
    polling after its reply, plus the clock tick that /proc counts in.  A
    worker that kept polling would use about the whole wait."""
    wait = max(20 * engine._POLL_S, 0.5)
    used = cpu_seconds(pid)
    time.sleep(wait)
    return cpu_seconds(pid) - used, 5 * engine._POLL_S + 2 / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_idle_worker_stops_polling(monkeypatch):
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    coupled_step(ens, cm, gt_now, 0.1)
    pid = ens._workers.pids[0]
    used, budget = idle_cpu_seconds(pid)
    assert used < budget
    assert alive(pid)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_worker_goes_idle_after_training_and_prediction(monkeypatch):
    force_workers(monkeypatch)
    ens, cm, gt = make_training(3)
    # the last step of a loop promises no next step, so nothing is computed ahead
    cm, _report = train(ens, cm, gt, 0.1, STEPS, max_epochs=2, tol=1e-300)
    pid = ens._workers.pids[0]
    used, budget = idle_cpu_seconds(pid)
    assert used < budget
    simulate(ens.reset(), cm, gt, 0.1, STEPS)
    used, budget = idle_cpu_seconds(pid)
    assert used < budget
    assert alive(pid)


@pytest.mark.parametrize("n_submodels", [2, 3, 5])
def test_look_ahead_keeps_the_bits(monkeypatch, n_submodels):
    expected = run_loops(*make_training(n_submodels))
    force_workers(monkeypatch)
    ens, cm, gt = make_training(n_submodels)
    here = count_tendencies(ens.system)
    counts = count_member_tendencies(ens)
    assert_same_arrays(run_loops(ens, cm, gt), expected)
    steps = 4 * STEPS
    # the caller stepped the smaller share of the members, and no tendency
    # was computed twice or left unused
    assert len(here) == steps * (n_submodels // ens._workers.size)
    assert np.array_equal(counts, np.full(n_submodels, steps))


def test_look_ahead_writes_into_arrays_it_keeps():
    ens, _cm, _gt = make_training(3)
    arrays = {}
    first = engine._look_ahead(ens, range(ens.n), arrays)
    assert all(first[i] is arrays[i] for i in range(ens.n))
    kept = {i: tendency.copy() for i, tendency in first.items()}
    for i in range(ens.n):
        first[i] *= 0.1  # as the step that applies it does
    second = engine._look_ahead(ens, range(ens.n), arrays)
    assert sorted(second) == list(range(ens.n))
    for i in range(ens.n):
        # the same array as last time, holding the tendency afresh
        assert second[i] is first[i]
        assert not np.shares_memory(second[i], ens.states)
        assert np.array_equal(second[i], kept[i])
        assert np.array_equal(second[i], ens.system.tendency(ens.states[i], ens.params[i]))


def test_aborted_training_leaves_no_stale_tendency(monkeypatch):
    expected = run_loops(*make_training(3))
    inline, cm, gt = make_training(3)
    first_step = coupled_step(inline, cm, gt.snapshots[0], 0.1).states.copy()
    force_workers(monkeypatch)
    ens, cm, gt = make_training(3)
    counts = count_member_tendencies(ens)
    update = engine.update_coupling
    updates = []

    def update_or_fail(cm, ens, gt_now):
        updates.append(None)
        if len(updates) == 3:
            raise BlowUpError("coefficient update failed on purpose")
        return update(cm, ens, gt_now)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "update_coupling", update_or_fail)
        with pytest.raises(TrainingAborted, match="epoch 0, step 2"):
            train(ens, cm, gt, 0.1, STEPS, max_epochs=2, tol=1e-300)
    # the third step promised a fourth, so the worker computed its members'
    # tendencies for it, which no later step may apply
    size = ens._workers.size
    callers = set(range(size - 1, ens.n, size))
    with deadline(10):
        while any(counts[i] != 4 for i in set(range(ens.n)) - callers):
            time.sleep(0.001)
    assert all(counts[i] == 3 for i in callers)
    # a public step from other states computes every tendency afresh
    with deadline(30):
        coupled_step(ens.reset(), cm, gt.snapshots[0], 0.1)
    assert np.array_equal(ens.states, first_step)
    assert all(counts[i] == (4 if i in callers else 5) for i in range(ens.n))
    with deadline(30):
        assert_same_arrays(run_loops(ens, cm, gt), expected)


class Ramp(DynamicalSystem):
    """b grows at rate 1.  A member's parameters are (index, limit): its
    tendency raises once b reaches the limit."""

    def tendency(self, state, params, out=None):
        member, limit = params
        if state[0] >= limit:
            raise BlowUpError(f"member {member} reached {state[0]}")
        if out is None:
            return np.ones(state.shape)
        out[...] = 1.0
        return out


@pytest.mark.parametrize("dt, steps, flags", [
    (0.1, 4, [(False, True), (True, True), (True, True), (True, False)]),
    (0.1, 1, [(False, False)]),
])
def test_the_loop_promises_every_step_but_the_last_when_dt_is_positive(
        monkeypatch, dt, steps, flags):
    ens, cm, gt = make_training(3)
    seen = []
    step = engine.coupled_step

    def spy(*args, reuse_ahead, look_ahead):
        seen.append((reuse_ahead, look_ahead))
        return step(*args, reuse_ahead=reuse_ahead, look_ahead=look_ahead)

    # replaced in its module, as the benchmark's tracer does
    monkeypatch.setattr(engine, "coupled_step", spy)
    engine._run_steps(ens, cm, gt, dt, steps, lambda _step, cm, _ref: cm)
    assert seen == flags


@pytest.mark.parametrize("workers", [False, True], ids=["inline", "workers"])
@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan])
def test_non_positive_dt_rejected_before_any_step(monkeypatch, workers, dt):
    if workers:
        force_workers(monkeypatch)
    ens, cm, gt = make_training(3)
    ens.states[:, 0] *= 1.01  # off the initial state, which train would reset to
    before = ens.states.copy()
    seen = []
    calls = {
        "coupled_step": lambda: coupled_step(ens, cm, gt_at(gt, 0), dt),
        "train": lambda: train(ens, cm, gt, dt, STEPS, max_epochs=1, tol=1e-6),
        "simulate": lambda: simulate(ens, cm, gt, dt, STEPS,
                                     each_step=lambda step, _ens, _ref: seen.append(step)),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="dt must be positive"):
            call()
        assert np.array_equal(ens.states, before), name
    assert seen == []
    assert isinstance(ens.states.base, mmap.mmap) == workers
    assert ens._workers is None  # no worker was forked


# with two processes members 0 and 2 are the worker's, whose tendencies at
# b = 2 are computed ahead, during the second step
@pytest.mark.parametrize("limits", [{0: 2}, {1: 2, 2: 2}, {0: 3, 2: 2}])
def test_failing_look_ahead_raises_at_its_own_step(monkeypatch, limits):
    cm = CouplingMatrix.uniform(3, 0.0, k_nudge=0.0)

    def ramps():
        params = [(i, limits.get(i, np.inf)) for i in range(3)]
        return SubModelEnsemble(Ramp(), params, 0.0)

    def failure(ens):
        """The steps a free run saw before it failed, and its error."""
        seen = []
        with deadline(30), pytest.raises(BlowUpError) as err:
            simulate(ens, cm, None, 1.0, 6, nudge_in_prediction=False,
                     each_step=lambda step, _ens, _ref: seen.append(step))
        return seen, str(err.value)

    inline = failure(ramps())
    assert inline[0] == [0, 1, 2]
    force_workers(monkeypatch)
    ens = ramps()
    assert failure(ens) == inline
    # the worker is still in step with the caller
    with deadline(30):
        simulate(ens.reset(), cm, None, 1.0, 2, nudge_in_prediction=False)
    assert np.array_equal(ens.states, np.full((3, 1), 2.0))
    assert all(alive(pid) for pid in ens._workers.pids)


@pytest.mark.skipif(engine._CPUS < 2, reason="needs two usable CPUs")
def test_default_grid_steps_on_a_worker_and_8_cubed_inline(monkeypatch):
    config = ExperimentConfig()
    assert (config.nx, config.ny, config.nz, config.n_submodels) == (16, 16, 16, 3)
    _spec, reference, system, initial = build_setup(config)
    params = instantiate_submodels(reference, config)
    cm, gt_now = initial_coupling(config), initial[0] * 1.01
    ens = SubModelEnsemble(system, params, initial)
    assert ens._workers is None
    coupled_step(ens, cm, gt_now, config.dt)
    assert len(ens._workers.pids) == min(config.n_submodels, engine._CPUS) - 1
    stepped = run_steps(ens, cm, gt_now)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_CPUS", 1)
        inline = SubModelEnsemble(system, params, initial)
    expected = run_steps(inline, cm, gt_now)
    assert inline._workers is None
    assert_same_trace(stepped, expected)
    small, cm, gt_now = make_ensemble(3)
    coupled_step(small, cm, gt_now, 0.1)
    assert small.states[0, 0].size == 8 ** 3 and small._workers is None


def test_forked_child_steps_inline_and_leaves_the_parents_worker_working(monkeypatch):
    inline = run_steps(*make_ensemble(3))
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    coupled_step(ens, cm, gt_now, 0.1)  # the worker now exists
    before = ens.states.copy()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            calls = count_tendencies(ens.system)
            ens.reset()
            coupled_step(ens, cm, gt_now, 0.1)  # in the child's own copy of the states
            code = 0 if len(calls) == ens.n else 2
        finally:
            os._exit(code)
    with deadline(30):
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.array_equal(ens.states, before)
    assert all(alive(worker) for worker in ens._workers.pids)
    with deadline(30):
        assert_same_trace(run_steps(ens, cm, gt_now), inline)


def test_collecting_one_ensemble_reaps_only_its_worker(monkeypatch):
    inline = run_steps(*make_ensemble(3))
    force_workers(monkeypatch)
    first, cm, gt_now = make_ensemble(3)
    second = make_ensemble(3)[0]
    coupled_step(first, cm, gt_now, 0.1)
    coupled_step(second, cm, gt_now, 0.1)
    first_pids, second_pids = list(first._workers.pids), list(second._workers.pids)
    del first
    gc.collect()
    assert not any(alive(pid) for pid in first_pids)
    assert all(alive(pid) for pid in second_pids)
    with deadline(30):
        assert_same_trace(run_steps(second, cm, gt_now), inline)
    assert second._workers.pids == second_pids


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_worker_exits_when_its_caller_dies(monkeypatch):
    force_workers(monkeypatch)
    read_end, write_end = os.pipe()
    caller = os.fork()
    if caller == 0:
        try:
            ens, cm, gt_now = make_ensemble(3)
            coupled_step(ens, cm, gt_now, 0.1)
            os.write(write_end, str(ens._workers.pids[0]).encode())
            time.sleep(60)
        finally:
            os._exit(1)
    os.close(write_end)
    try:
        with deadline(30):
            worker = int(os.read(read_end, 32))
    finally:
        os.close(read_end)
        os.kill(caller, signal.SIGKILL)
        os.waitpid(caller, 0)
    with deadline(10):
        while not exited(worker):
            time.sleep(0.01)


def test_failure_while_replies_are_pending_closes_the_workers(monkeypatch):
    expected = run_loops(*make_training(3))
    force_workers(monkeypatch)
    ens, cm, gt = make_training(3)
    coupled_step(ens, cm, gt.snapshots[0], 0.1)  # forks the worker
    pids = list(ens._workers.pids)

    def interrupted(state, params, out=None):
        raise KeyboardInterrupt

    # only the caller's copy of the system raises: the worker steps its
    # members and replies, and the caller never reads that reply
    with monkeypatch.context() as patch:
        patch.setattr(ens.system, "tendency", interrupted)
        with deadline(30), pytest.raises(KeyboardInterrupt):
            coupled_step(ens, cm, gt.snapshots[0], 0.1)
    assert ens._workers.closed and not any(alive(pid) for pid in pids)
    # the next use forks new workers
    with deadline(30):
        assert_same_arrays(run_loops(ens, cm, gt), expected)
    assert ens._workers.pids and not set(ens._workers.pids) & set(pids)


def test_experiment_csvs_equal_inline(monkeypatch, tmp_path):
    config = ExperimentConfig(nx=8, ny=8, nz=8, steps=6, epochs=2, keep_every=3,
                              variant="V2")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_CPUS", 1)
        inline = run_experiment(dataclasses.replace(config, out_dir=str(tmp_path / "inline")))
    force_workers(monkeypatch)
    steps = []
    worker_step = engine._MemberWorkers.step

    def spy(workers, *args):
        steps.append(None)
        return worker_step(workers, *args)

    monkeypatch.setattr(engine._MemberWorkers, "step", spy)
    forked = run_experiment(dataclasses.replace(config, out_dir=str(tmp_path / "workers")))
    # two epochs and two predictions of six steps each
    assert len(steps) == 4 * 6
    names = {"before_after.csv", "curves.csv", "training.csv", "volume_diff.csv"}
    for out in (inline, forked):
        assert {path.name for path in out.glob("*.csv")} == names
    for name in names:
        assert (forked / name).read_bytes() == (inline / name).read_bytes(), name
