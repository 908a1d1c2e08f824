"""Contraction diagnostics for the coefficient-correction iteration.

Treating one training epoch as a map on (member trajectories, coefficient
matrix), the map is a contraction, and hence converges to a fixed-point
trajectory, when

    alpha < 1,  a_rate <= 1,  and beta, gamma both near zero,

with

    alpha = (1 - K) + dt * L_max + 2 * coupling_spread
    beta  = 4 * max(dist_b^2, dist_d^2)
    gamma = 2 * A * dist_b^2 + 2 * A * dist_d^2

where L_max bounds the model operators, coupling_spread bounds the
coefficient disagreement between two compared runs, and dist_* are the
trajectory-wide maxima of the distance from the reference.  The conditions
are diagnostic, not a guarantee: alpha keeps its raw (1 - K) term even for
K > 1, where it goes negative and understates the real behavior, so the
|1 - K| variant is computed alongside it.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import CouplingMatrix, TrainingReport, update_coupling
from .fields import max_over_time, taxi_ensemble_distance, volume_inner

VACUOUS = "vacuous"


def alpha_const(
    k_nudge: float, dt: float, lipschitz_max: float, coupling_spread: float,
    absolute: bool = False,
) -> float:
    """State-contraction coefficient of one coupled step.

    ``coupling_spread`` is the largest coefficient disagreement between the
    two runs being compared; with clamped coefficients it is bounded by the
    largest coefficient magnitude.  ``absolute`` switches the leading term
    to |1 - K| (see module docstring).
    """
    lead = abs(1.0 - k_nudge) if absolute else (1.0 - k_nudge)
    return lead + dt * lipschitz_max + 2.0 * coupling_spread


def beta_const(gt_dist_b: float, gt_dist_d: float) -> float:
    """Trajectory-distance contribution from the coefficient updates."""
    return 4.0 * max(gt_dist_b ** 2, gt_dist_d ** 2)


def gamma_const(a_rate: float, gt_dist_b: float, gt_dist_d: float) -> float:
    """Additive offset in the coefficient-space contraction."""
    return 2.0 * a_rate * gt_dist_b ** 2 + 2.0 * a_rate * gt_dist_d ** 2


def rate_bound(a_rate: float, alpha: float):
    """Asymptotic convergence factor A / (1 - alpha), or 'vacuous' if alpha >= 1."""
    if alpha >= 1.0:
        return VACUOUS
    return a_rate / (1.0 - alpha)


@dataclass
class ContractionReport:
    """All contraction quantities for one configuration or epoch."""

    alpha: float
    alpha_abs: float
    beta: float
    gamma: float
    lipschitz_max: float
    a_rate: float
    rate_bound: object
    contracting: bool


def make_contraction_report(
    k_nudge: float,
    dt: float,
    lipschitz_max: float,
    coupling_spread: float,
    a_rate: float,
    gt_dist_b: float,
    gt_dist_d: float,
    beta_tol: float = 1e-2,
    gamma_tol: float = 1e-2,
) -> ContractionReport:
    alpha = alpha_const(k_nudge, dt, lipschitz_max, coupling_spread)
    beta = beta_const(gt_dist_b, gt_dist_d)
    gamma = gamma_const(a_rate, gt_dist_b, gt_dist_d)
    return ContractionReport(
        alpha=alpha,
        alpha_abs=alpha_const(k_nudge, dt, lipschitz_max, coupling_spread, absolute=True),
        beta=beta,
        gamma=gamma,
        lipschitz_max=lipschitz_max,
        a_rate=a_rate,
        rate_bound=rate_bound(a_rate, alpha),
        contracting=(alpha < 1.0 and a_rate <= 1.0 and beta <= beta_tol and gamma <= gamma_tol),
    )


def cij_update_max_form(
    cm: CouplingMatrix, member_trajectories, gt_trajectory
) -> CouplingMatrix:
    """Coefficient correction using the max over time steps.

    C_ij <- clamp(A*C_ij + A * max_n <GT^n - B_i^n, B_i^n - B_j^n>).

    ``member_trajectories`` is a sequence over time steps, each entry the
    list of member states of the coupled variable; ``gt_trajectory`` is the
    aligned reference sequence.  The per-time-step integral form used
    inside training is the single-step special case; this variant exists
    for experiments that follow the fixed-point analysis literally.
    """
    if len(member_trajectories) != len(gt_trajectory):
        raise ValueError("trajectory lengths differ")
    if not member_trajectories:
        raise ValueError("need at least one time step")
    n = cm.n
    new_c = cm.c.copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = -np.inf
            for members, ref in zip(member_trajectories, gt_trajectory):
                inner = volume_inner(ref - members[i], members[i] - members[j])
                best = max(best, inner)
            new_c[i, j] = cm.a_rate * cm.c[i, j] + cm.a_rate * best
    np.clip(new_c, cm.c_min, cm.c_max, out=new_c)
    np.fill_diagonal(new_c, 0.0)
    return dataclasses.replace(cm, c=new_c)


# -- empirical contraction measurement ---------------------------------------


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


def contraction_ratios(run1: TrainingReport, run2: TrainingReport) -> list[float]:
    """Successive iterate-distance ratios d[k+1] / d[k] (0 when both vanish)."""
    d = iterate_distances(run1, run2)
    ratios = []
    for a, b in zip(d, d[1:]):
        if a == 0.0:
            ratios.append(0.0 if b == 0.0 else float("inf"))
        else:
            ratios.append(b / a)
    return ratios


def empirical_contraction_ratio(run1: TrainingReport, run2: TrainingReport) -> float:
    """Largest successive-distance ratio after the first epoch pair.

    The first pair carries the initialization transient and is skipped.
    A value below 1 means the paired runs kept approaching each other
    (empirically contracting); 0 means the runs were identical throughout.
    """
    ratios = contraction_ratios(run1, run2)
    if len(ratios) < 2:
        raise ValueError("need at least three recorded epochs to measure contraction")
    tail = ratios[1:]
    if all(r == 0.0 for r in tail):
        return 0.0
    return max(tail)


def export_contraction_csv(reports: list[ContractionReport], path):
    """One CSV row per epoch of contraction diagnostics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "epoch", "alpha", "alpha_abs", "beta", "gamma",
            "lipschitz_max", "a_rate", "rate_bound", "contracting",
        ])
        for k, rep in enumerate(reports):
            bound = rep.rate_bound if isinstance(rep.rate_bound, str) else repr(float(rep.rate_bound))
            writer.writerow([
                k, repr(rep.alpha), repr(rep.alpha_abs), repr(rep.beta), repr(rep.gamma),
                repr(rep.lipschitz_max), repr(rep.a_rate), bound, rep.contracting,
            ])
