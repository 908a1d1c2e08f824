"""Measured contraction of the coefficient-correction iteration.

Treating one training epoch as a map on the coefficient matrix C, two
trainings of the same ensemble from different initial coefficients are two
sequences of iterates.  C alone is enough: each epoch resets every member to
the shared initial condition, so an epoch's states are a function of the C
it starts from.  The distance of the iterates, epoch by epoch, shows whether
the map contracts in practice: a ratio of successive distances below 1 means
the paired runs kept approaching each other.
"""

from __future__ import annotations

import numpy as np

from .engine import TrainingReport


def iterate_distances(run1: TrainingReport, run2: TrainingReport) -> list[float]:
    """Max-norm coefficient difference max|C1_k - C2_k| at each epoch end,
    over the epochs both runs have."""
    return [float(np.max(np.abs(c1 - c2)))
            for c1, c2 in zip(run1.c_history, run2.c_history)]


def empirical_contraction_ratio(run1: TrainingReport, run2: TrainingReport) -> float:
    """Largest successive-distance ratio after the first epoch pair, among
    the ratios whose earlier distance is above round-off.

    The first pair carries the initialization transient and is skipped.
    Round-off is 1e3 * eps times the largest |C_ij| of either run: runs that
    agree to round-off differ in the last bits, so ratios of their distances
    say nothing about contraction.  A value below 1 means the paired runs
    kept approaching each other (empirically contracting); 0 means they
    agreed to round-off from the second epoch on.
    """
    d = iterate_distances(run1, run2)
    if len(d) < 3:
        raise ValueError("need at least three recorded epochs to measure contraction")
    scale = max(float(np.max(np.abs(c))) for run in (run1, run2) for c in run.c_history)
    floor = 1e3 * np.finfo(np.float64).eps * scale
    return max((b / a for a, b in zip(d[1:], d[2:]) if a > floor), default=0.0)
