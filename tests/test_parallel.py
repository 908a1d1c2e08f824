"""Members stepped on the engine's thread pool against the same steps inline.

The pool only takes grids of at least ``engine.PARALLEL_MIN_CELLS`` cells per
field; these tests lower that floor so that 8^3 ensembles go through it.
"""

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

POOL_THREAD = "supermodeling-member"


def force_pool(patch):
    """Send every member's work to the pool, even with one usable CPU."""
    patch.setattr(engine, "PARALLEL_MIN_CELLS", 0)
    patch.setattr(engine, "_WORKERS", max(engine._WORKERS, 2))
    patch.setattr(engine, "_pooled_next", lambda timing: True)


def make_ensemble(n_submodels, k_nudge=0.9, exclude_self=False):
    config = ExperimentConfig(nx=8, ny=8, nz=8, n_submodels=n_submodels, variant="V2",
                              k_nudge=k_nudge, exclude_self_in_nudge=exclude_self)
    _spec, reference, system, initial = build_setup(config)
    params = instantiate_submodels(reference, config)
    ens = SubModelEnsemble.identical_start(system, params, initial)
    return ens, initial_coupling(config), initial[0] * 1.01


def record_threads(system):
    """Names of the threads that run the system's tendencies, as they run."""
    names = []
    tendency = system.tendency

    def spy(state, params):
        names.append(threading.current_thread().name)
        return tendency(state, params)

    system.tendency = spy
    return names


def run_steps(ens, cm, gt_now, steps=4):
    """States and coefficients after each of a few coupled steps with updates."""
    ens.reset()
    trace = []
    for _ in range(steps):
        coupled_step(ens, cm, gt_now, 0.1)
        cm = update_coupling(cm, ens, gt_now)
        trace.append((ens.states.copy(), cm.c.copy()))
    return trace


@pytest.mark.parametrize("n_submodels", [3, 4])
@pytest.mark.parametrize("k_nudge, exclude_self", [(0.9, False), (0.9, True), (0.0, False)],
                         ids=["nudged", "nudged-exclude-self", "free"])
def test_threaded_steps_equal_inline(monkeypatch, n_submodels, k_nudge, exclude_self):
    ens, cm, gt_now = make_ensemble(n_submodels, k_nudge, exclude_self)
    inline = run_steps(ens, cm, gt_now)
    threads = record_threads(ens.system)
    with monkeypatch.context() as patch:
        force_pool(patch)
        threaded = run_steps(ens, cm, gt_now)
    assert threads and all(name.startswith(POOL_THREAD) for name in threads)
    for (states, c), (states_inline, c_inline) in zip(threaded, inline):
        assert np.array_equal(states, states_inline)
        assert np.array_equal(c, c_inline)


def test_one_dispatch_per_coupled_step_and_none_per_update(monkeypatch):
    ens, cm, gt_now = make_ensemble(3)
    dispatched = []
    for_each_member = engine._for_each_member

    def spy(task, values):
        dispatched.append(task)
        for_each_member(task, values)

    monkeypatch.setattr(engine, "_for_each_member", spy)
    coupled_step(ens, cm, gt_now, 0.1)
    assert len(dispatched) == 1
    update_coupling(cm, ens, gt_now)
    assert len(dispatched) == 1


def test_timed_choice_explores_then_keeps_the_faster_way():
    assert [engine._pooled_next([k, 0.0, 0.0]) for k in range(4)] == [False, True] * 2
    later = range(4, 4 + 3 * engine._RETIME_EVERY)
    retimed = [k % engine._RETIME_EVERY == 0 for k in later]
    assert [engine._pooled_next([k, 1.0, 2.0]) for k in later] == retimed
    assert [engine._pooled_next([k, 2.0, 1.0]) for k in later] == [not r for r in retimed]


def test_switching_ways_mid_run_keeps_the_bits(monkeypatch):
    # both ways run within one trajectory once the floor admits the pool
    ens, cm, gt_now = make_ensemble(3)
    inline = run_steps(ens, cm, gt_now, steps=2 * engine._RETIME_EVERY)
    threads = record_threads(ens.system)
    monkeypatch.setattr(engine, "PARALLEL_MIN_CELLS", 0)
    monkeypatch.setattr(engine, "_WORKERS", max(engine._WORKERS, 2))
    monkeypatch.setattr(engine, "_timings", {})
    mixed = run_steps(ens, cm, gt_now, steps=2 * engine._RETIME_EVERY)
    assert {name.startswith(POOL_THREAD) for name in threads} == {True, False}
    for (states, c), (states_inline, c_inline) in zip(mixed, inline):
        assert np.array_equal(states, states_inline)
        assert np.array_equal(c, c_inline)


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


@pytest.mark.parametrize("broken", [{1: "M", 2: "A"}, {0: "A", 2: "M"}])
def test_threaded_blowup_raises_inline_message(monkeypatch, broken):
    ens, cm, gt_now = make_ensemble(3)
    (first, first_field), (last, last_field) = broken.items()
    inline = blowup_message(ens, cm, gt_now, broken)
    # the two members fail on different variables, so the message names the member
    assert inline == blowup_message(ens, cm, gt_now, {first: first_field})
    assert inline != blowup_message(ens, cm, gt_now, {last: last_field})
    with monkeypatch.context() as patch:
        force_pool(patch)
        threaded = blowup_message(ens, cm, gt_now, broken)
        # every task has finished: nothing writes to the ensemble afterwards
        after = ens.states.copy()
        time.sleep(0.05)
        assert np.array_equal(ens.states, after, equal_nan=True)
    assert threaded == inline


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_steps_without_the_parents_threads(monkeypatch):
    ens, cm, gt_now = make_ensemble(3)
    force_pool(monkeypatch)
    coupled_step(ens, cm, gt_now, 0.1)  # the pool and its threads now exist
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            coupled_step(ens, cm, gt_now, 0.1)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child never finished its coupled step")
    assert os.waitstatus_to_exitcode(done[1]) == 0
