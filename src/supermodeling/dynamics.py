"""Dynamical-system contract and explicit stepping.

A system supplies the tendency (time derivative) of a state for a given
parameter set.  A member state is a float64 array whose leading axis runs
over the system's ``variables`` (one value for the toy systems, five fields
for the tumor model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .fields import BlowUpError, GridSpec


class DynamicalSystem:
    """Behavior contract for a steppable model.

    Subclasses implement ``tendency``.  The first of their ``variables`` is
    the coupled one: the ensemble couples and nudges it, and the reference
    records it.  ``tendency(state, params, out=None)`` must be deterministic.
    It writes the tendency into ``out``, a C-contiguous float64 array of the
    state's shape, and returns ``out``; without one it returns a new array
    that shares no memory with the state or an earlier result.  Either way
    the bits are the same.
    Field-valued systems name their grid as ``spec``; ``cell_volume`` weights
    one array entry in domain norms and integrals.
    """

    variables: tuple[str, ...] = ("b",)
    spec: GridSpec | None = None
    cell_volume: float = 1.0

    def tendency(self, state, params, out=None):
        raise NotImplementedError


def explicit_step(system: DynamicalSystem, state: np.ndarray, params, dt: float,
                  tendency=None, correction=None) -> None:
    """Forward Euler in place: ``state``, a float64 array, advances to
    state + dt * tendency, for a ``dt`` > 0.  ``tendency``, when given, is
    the system's tendency at ``state`` computed beforehand; it is used in
    place of computing it again, and left as it is.  ``correction``, an
    array shaped like the first variable, is added to it after the step (the
    ensemble's coupling and nudging).

    The step, the correction and a check that every value is finite are one
    compiled pass (``_kernel.euler``), with NumPy's roundings.  Only when a
    value is not finite is the result read again, to raise BlowUpError
    naming the first non-finite variable."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    tend = system.tendency(state, params) if tendency is None else tendency
    if _kernel.euler(state, tend, dt, correction):
        return
    for name, values in zip(system.variables, state.reshape(len(system.variables), -1)):
        if not np.isfinite(values).all():
            raise BlowUpError(f"non-finite value in variable '{name}' during explicit step")


# -- toy systems -------------------------------------------------------------


@dataclass(frozen=True)
class LogisticParams:
    """Growth rate and carrying capacity of the scalar logistic model."""

    r: float
    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError("carrying capacity must be positive")


def logistic_tendency(b: float, p: LogisticParams) -> float:
    return p.r * b * (1.0 - b / p.cap)


class LogisticSystem(DynamicalSystem):
    """Scalar logistic growth; the standard oracle for the ensemble engine."""

    def tendency(self, state, params: LogisticParams, out=None):
        return np.positive(logistic_tendency(state, params), out=out)


class LinearSystem(DynamicalSystem):
    """S(u) = lam * u."""

    def __init__(self, lam: float):
        self.lam = float(lam)

    def tendency(self, state, params=None, out=None):
        return np.multiply(self.lam, state, out=out)
