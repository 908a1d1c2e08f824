"""Dynamical-system contract and explicit stepping.

A system supplies the tendency (time derivative) of a state for a given
parameter set.  A member state is a float64 array whose leading axis runs
over the system's ``variables`` (one value for the toy systems, five fields
for the tumor model); stepping also takes numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BlowUpError, GridSpec


class DynamicalSystem:
    """Behavior contract for a steppable model.

    Subclasses implement ``tendency`` and declare which of their
    ``variables`` can be coupled to other ensemble members.
    ``tendency(state, params, out=None)`` must be deterministic.  It writes
    the tendency into ``out``, a C-contiguous float64 array of the state's
    shape, and returns ``out``; without one it returns a new array that
    shares no memory with the state or an earlier result, or a number for a
    number.  Either way the bits are the same.
    Field-valued systems name their grid as ``spec``; ``cell_volume`` weights
    one array entry in domain norms and integrals.
    """

    variables: tuple[str, ...] = ("b",)
    couplable: tuple[str, ...] = ()
    spec: GridSpec | None = None
    cell_volume: float = 1.0

    def tendency(self, state, params, out=None):
        raise NotImplementedError

    def get_variable(self, state, name):
        """An independent copy of one couplable variable of a member array."""
        if name not in self.couplable:
            raise KeyError(f"{name!r} is not a couplable variable of {type(self).__name__}")
        return state[self.variables.index(name)].copy()

    def validate_state(self, state, context: str = ""):
        """Raise BlowUpError naming the first non-finite variable."""
        arr = np.asarray(state, dtype=np.float64)
        if np.isfinite(arr).all():
            return
        per_variable = arr.reshape(len(self.variables), -1)
        name = next(n for n, v in zip(self.variables, per_variable) if not np.isfinite(v).all())
        where = f" during {context}" if context else ""
        raise BlowUpError(f"non-finite value in variable '{name}'{where}")


def explicit_step(system: DynamicalSystem, state, params, dt: float, out=None, tendency=None):
    """Forward Euler: state + dt * tendency, into a new array or number, or
    into ``out`` (which may be ``state`` itself: it then advances in place).
    ``tendency``, when given, is the system's tendency at ``state`` computed
    beforehand; it is used in place of computing it again, and overwritten."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    tend = system.tendency(state, params) if tendency is None else tendency
    with np.errstate(over="ignore", invalid="ignore"):
        tend *= dt
        new = np.add(state, tend, out=out)
    system.validate_state(new, context="explicit step")
    return new


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


def _into(out, value):
    """``value`` written into the array ``out``, or ``value`` itself without one."""
    if out is None:
        return value
    out[...] = value
    return out


class LogisticSystem(DynamicalSystem):
    """Scalar logistic growth; the standard oracle for the ensemble engine."""

    couplable = ("b",)

    def tendency(self, state, params: LogisticParams, out=None):
        return _into(out, logistic_tendency(state, params))


class LinearSystem(DynamicalSystem):
    """S(u) = lam * u."""

    couplable = ("b",)

    def __init__(self, lam: float):
        self.lam = float(lam)

    def tendency(self, state, params=None, out=None):
        return _into(out, self.lam * state)
