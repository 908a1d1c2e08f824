"""Checks that every test gets."""

import gc
import glob
import os

import numpy as np
import pytest

from supermodeling import _kernel


def random_state(spec, rng, b_M=2.0):
    """A random tumor state on ``spec``: b straddles the pressure gate
    [b_norm, b_M] and o both oxygen thresholds."""
    highs = (1.2 * b_M, 1.0, 60.0, 1.0, 1.0)
    return np.stack([rng.uniform(0.0, hi, spec.shape) for hi in highs])


@pytest.fixture
def foreign_calls(monkeypatch):
    """The names of the compiled library's calls made from now on, each
    forwarded to the library."""
    lib, calls = _kernel.LIB, []

    class Recorder:
        def __getattr__(self, name):
            def call(*args):
                calls.append(name)
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(_kernel, "LIB", Recorder())
    return calls


def _children():
    """Process ids of this process's children, zombies included."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process behind once its objects are
    collected: a worker that outlives its ensemble, or a child never reaped."""
    before = _children()
    yield
    if _children() - before:
        gc.collect()  # collect what the test left, which reaps its ensembles' workers
    leaked = _children() - before
    if leaked:
        pytest.fail(f"child processes left behind: {sorted(leaked)}")
