"""Members stepped by the engine's worker processes against the same steps inline.

Workers only step grids of at least ``engine.PARALLEL_MIN_CELLS`` cells per
field; these tests lower that floor, and claim two usable CPUs, before they
build an ensemble, so that 8^3 ensembles go to a worker.  "Threaded" in a
test name means stepped off the calling thread, which is now done in a
forked worker process.
"""

import contextlib
import gc
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from supermodeling import engine
from supermodeling.engine import SubModelEnsemble, coupled_step, update_coupling
from supermodeling.experiments import (
    ExperimentConfig,
    build_setup,
    initial_coupling,
    instantiate_submodels,
)
from supermodeling.fields import BlowUpError, GridSpec
from supermodeling.tumor import FIELD_NAMES, TumorParams, TumorSystem

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")


def force_workers(patch):
    """Let worker processes step every ensemble built afterwards."""
    patch.setattr(engine, "PARALLEL_MIN_CELLS", 0)
    patch.setattr(engine, "_CPUS", max(engine._CPUS, 2))


def make_ensemble(n_submodels, k_nudge=0.9, exclude_self=False):
    config = ExperimentConfig(nx=8, ny=8, nz=8, n_submodels=n_submodels, variant="V2",
                              k_nudge=k_nudge, exclude_self_in_nudge=exclude_self)
    _spec, reference, system, initial = build_setup(config)
    params = instantiate_submodels(reference, config)
    ens = SubModelEnsemble.identical_start(system, params, initial)
    return ens, initial_coupling(config), initial[0] * 1.01


def count_tendencies(system):
    """A list that gets one entry per tendency this process runs on the system."""
    calls = []
    tendency = system.tendency

    def spy(state, params):
        calls.append(None)
        return tendency(state, params)

    system.tendency = spy
    return calls


def run_steps(ens, cm, gt_now, steps=4):
    """States and coefficients after each of a few coupled steps with updates."""
    ens.reset()
    trace = []
    for _ in range(steps):
        coupled_step(ens, cm, gt_now, 0.1)
        cm = update_coupling(cm, ens, gt_now)
        trace.append((ens.states.copy(), cm.c.copy()))
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
@pytest.mark.parametrize("k_nudge, exclude_self", [(0.9, False), (0.9, True), (0.0, False)],
                         ids=["nudged", "nudged-exclude-self", "free"])
def test_threaded_steps_equal_inline(monkeypatch, n_submodels, k_nudge, exclude_self):
    ens, cm, gt_now = make_ensemble(n_submodels, k_nudge, exclude_self)
    inline = run_steps(ens, cm, gt_now)
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(n_submodels, k_nudge, exclude_self)
    here = count_tendencies(ens.system)
    stepped = run_steps(ens, cm, gt_now)
    workers = ens._workers
    assert workers.pids and all(alive(pid) for pid in workers.pids)
    # the calling process ran only its own share of the members
    assert len(here) == len(stepped) * len(range(0, n_submodels, workers.size))
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


def test_concurrent_tendencies_equal_sequential():
    spec = GridSpec(7, 6, 5, 0.7)
    params = TumorParams()
    system = TumorSystem(spec)
    rng = np.random.default_rng(3)
    states = [system.random_state(params, rng) for _ in range(6)]
    expected = [system.tendency(s, params) for s in states]
    results = {}
    start = threading.Barrier(len(states))

    def worker(k):
        start.wait()
        results[k] = [system.tendency(states[k], params) for _ in range(20)]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,)) for k in range(len(states))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(results) == list(range(len(states)))
    for k, tendencies in results.items():
        for tendency in tendencies:
            assert np.array_equal(tendency, expected[k])
    # one work set per tendency that ran at the same time, all back on the free-list
    assert 1 <= len(system._idle_work) <= len(states)


def blowup_message(ens, cm, gt_now, broken):
    """The error of a coupled step with a NaN in one cell of the named field
    of each listed member."""
    ens.reset()
    for member, name in broken.items():
        ens.states[member, FIELD_NAMES.index(name), 4, 4, 4] = np.nan
    with pytest.raises(BlowUpError) as err:
        coupled_step(ens, cm, gt_now, 0.1)
    return str(err.value)


# member 1 is a worker's, so the first case fails in two processes
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


def test_forked_child_steps_inline_and_leaves_the_parents_worker_working(monkeypatch):
    inline = run_steps(*make_ensemble(3))
    force_workers(monkeypatch)
    ens, cm, gt_now = make_ensemble(3)
    coupled_step(ens, cm, gt_now, 0.1)  # the worker now exists
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            calls = count_tendencies(ens.system)
            coupled_step(ens, cm, gt_now, 0.1)  # in the memory the parent shares
            code = 0 if len(calls) == ens.n else 2
        finally:
            os._exit(code)
    with deadline(30):
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
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
