"""Measured contraction of the coefficient-correction iteration.

Treating one training epoch as a map on (member trajectories, coefficient
matrix), two trainings of the same ensemble from different initial
coefficients are two sequences of iterates.  Their distance, epoch by epoch,
shows whether the map contracts in practice: a ratio of successive distances
below 1 means the paired runs kept approaching each other.
"""

from __future__ import annotations

import numpy as np

from .engine import TrainingReport
from .fields import l2_norm, max_over_time, taxi_ensemble_distance


def iterate_distances(run1: TrainingReport, run2: TrainingReport) -> list[float]:
    """Composite distance between the two runs' iterates, epoch by epoch.

    The distance of one epoch pair is the proof norm: max over time steps
    of the member-summed state distance, plus the max-norm coefficient
    difference at the epoch end.
    """
    if run1.trajectory_history is None or run2.trajectory_history is None:
        raise ValueError("training runs must record trajectories for this diagnostic")
    epochs = min(len(run1.trajectory_history), len(run2.trajectory_history))
    distances = []
    for k in range(epochs):
        t1, t2 = run1.trajectory_history[k], run2.trajectory_history[k]
        if len(t1) != len(t2):
            raise ValueError("epoch trajectories have different lengths")
        state_part = max_over_time([
            taxi_ensemble_distance(m1, m2) for m1, m2 in zip(t1, t2)
        ])
        c_part = float(np.max(np.abs(run1.c_history[k] - run2.c_history[k])))
        distances.append(state_part + c_part)
    return distances


def empirical_contraction_ratio(run1: TrainingReport, run2: TrainingReport) -> float:
    """Largest successive-distance ratio after the first epoch pair, among
    the ratios whose earlier distance is above round-off.

    The first pair carries the initialization transient and is skipped.
    Round-off is 1e3 * eps times the largest member-summed state norm along
    either run: runs that agree to round-off differ in the last bits, so
    ratios of their distances say nothing about contraction.  A value below
    1 means the paired runs kept approaching each other (empirically
    contracting); 0 means they agreed to round-off from the second epoch on.
    """
    d = iterate_distances(run1, run2)
    if len(d) < 3:
        raise ValueError("need at least three recorded epochs to measure contraction")
    scale = max(sum(l2_norm(member) for member in members)
                for run in (run1, run2) for trajectory in run.trajectory_history
                for members in trajectory)
    floor = 1e3 * np.finfo(np.float64).eps * scale
    return max((b / a for a, b in zip(d[1:], d[2:]) if a > floor), default=0.0)

