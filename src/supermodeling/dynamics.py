"""Dynamical-system contract, explicit stepping, and Lipschitz estimation.

A system supplies the tendency (time derivative) of a state for a given
parameter set.  A member state is a float64 array whose leading axis runs
over the system's ``variables`` (one value for the toy systems, five fields
for the tumor model); stepping and the Lipschitz estimate also take numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BlowUpError, GridSpec, l2_norm


class DynamicalSystem:
    """Behavior contract for a steppable model.

    Subclasses implement ``tendency`` and declare which of their
    ``variables`` can be coupled to other ensemble members.  ``tendency``
    must be deterministic and return a new array of the state's shape.
    Field-valued systems name their grid as ``spec``; ``cell_volume`` weights
    one array entry in domain norms and integrals.
    """

    variables: tuple[str, ...] = ("b",)
    couplable: tuple[str, ...] = ()
    spec: GridSpec | None = None
    cell_volume: float = 1.0

    def tendency(self, state, params):
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

    # -- sampling support for the Lipschitz estimator ---------------------

    def random_state(self, params, rng: np.random.Generator):
        """Draw a state from physically plausible per-variable ranges."""
        raise NotImplementedError

    def noise_like(self, state, rng: np.random.Generator):
        """A random perturbation direction with the shape of ``state``."""
        raise NotImplementedError

    def lipschitz_scale(self, params) -> float:
        """Default pair separation: 1e-2 of the variable range."""
        raise NotImplementedError

    def state_norm(self, state) -> float:
        return l2_norm(state, self.cell_volume)


def explicit_step(system: DynamicalSystem, state, params, dt: float, out=None):
    """Forward Euler: state + dt * tendency, into a new array or number, or
    into ``out`` (which may be ``state`` itself: it then advances in place)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    tend = system.tendency(state, params)
    with np.errstate(over="ignore", invalid="ignore"):
        tend *= dt
        new = np.add(state, tend, out=out)
    system.validate_state(new, context="explicit step")
    return new


def estimate_lipschitz(
    system: DynamicalSystem,
    params,
    samples: int,
    scale: float | None = None,
    seed: int = 0,
) -> float:
    """Empirical Lipschitz constant of the tendency operator.

    Samples random state pairs (B, D) with ||B - D|| <= scale and returns
    the largest observed ratio ||S(B) - S(D)|| / ||B - D||.  As a finite
    sample this is a lower bound on the true constant.  Deterministic for a
    fixed seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if scale is None:
        scale = system.lipschitz_scale(params)
    if not scale > 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        for _attempt in range(100):
            base = system.random_state(params, rng)
            direction = system.noise_like(base, rng)
            dnorm = system.state_norm(direction)
            if dnorm > 0:
                break
        else:
            raise RuntimeError("could not draw a non-degenerate state pair")
        separation = float(rng.uniform(0.1, 1.0)) * scale
        other = base + direction * (separation / dnorm)
        diff = system.state_norm(
            system.tendency(base, params) - system.tendency(other, params)
        )
        best = max(best, diff / separation)
    return best


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

    couplable = ("b",)

    def tendency(self, state, params: LogisticParams):
        return logistic_tendency(state, params)

    def random_state(self, params: LogisticParams, rng):
        return float(rng.uniform(0.0, params.cap))

    def noise_like(self, state, rng):
        return float(rng.standard_normal())

    def lipschitz_scale(self, params: LogisticParams) -> float:
        return 0.01 * params.cap


class LinearSystem(DynamicalSystem):
    """S(u) = lam * u; its exact Lipschitz constant is |lam|."""

    couplable = ("b",)

    def __init__(self, lam: float):
        self.lam = float(lam)

    def tendency(self, state, params=None):
        return self.lam * state

    def random_state(self, params, rng):
        return float(rng.uniform(-1.0, 1.0))

    def noise_like(self, state, rng):
        return float(rng.standard_normal())

    def lipschitz_scale(self, params) -> float:
        return 0.02
