"""Five-field tumor progression model on a regular 3-D grid.

The state couples tumor cell density b, a diffusible angiogenic signal c,
oxygen o, extracellular matrix M, and a matrix-derived attractant A.  Cell
motion enters through an auxiliary flux J combining pressure-driven spread
(active only between normal and maximal density) and chemotaxis up the
attractant gradient; the remaining terms are reactions plus slow diffusion.

Everything is advanced explicitly: the flux is evaluated from the current
state first, then all five fields take one forward-Euler step.  Spatial
derivatives are second-order centered differences (one-sided at the domain
faces for first derivatives); Laplacians use mirrored ghost cells, which
gives zero-flux walls.  Stability is the caller's job: pick dt small enough
for the grid.

A state is one C-contiguous (5, nz, ny, nx) float64 array holding b, c, o,
M and A in that order (see FIELD_NAMES).  Arrays carry no grid: the kernel
takes the spacing h, and volumes take the cell volume h^3, as arguments; a
TumorSystem supplies both from its GridSpec.

The tendency runs in four stages: the flux, its divergence, the Laplacians
of c, o and A, and the reaction terms, which turn the divergence and the
Laplacians, written into the output array, into the tendency.  One call
into the package's compiled library (``_kernel``, built from
``_tendency.c``) runs all four in turn; it is the only code of the
tendency.  The forward-Euler step that follows it is one more call into
the same library, made by ``dynamics.explicit_step``.  The loops do each
stage's arithmetic cell by cell, two cells at a time, in the order of the
NumPy formula that the tests hold them to (``reference_tendency``), and the
build allows no reordering or fused operations, so both give the same
bits.  The loops multiply by the exact reciprocal of a power-of-two divisor
(``_scaling``), since x / 2^k and x * 2^-k are the same correctly rounded
number for every x; every other divisor, such as h = 0.7 or T_prol,
divides.  The call takes the coefficients and the spacing's scalings as one
array, built once per parameter set and spacing (``_coefficients``).
Before it, ``tumor_tendency`` checks the state, the output and the oxygen
mask once (C-contiguous float64 of the grid's shape, at least 3 cells per
axis, the output writeable and apart from the others) and raises
ValueError otherwise.  ``compute_flux``, ``_divergence`` and ``_laplacian``
call one stage each, with the same checks, for the tests and the
benchmark's layers; the tendency does not go through them.

The tendency writes nothing but its output array: the flux goes into
slots 1 to 3 of it until the Laplacians replace it.  So a TumorSystem holds
no work set, only its grid and oxygen mask, and may run tendencies
concurrently.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from ._kernel import pointer
from .dynamics import DynamicalSystem
from .fields import GridSpec, volume_integral

FIELD_NAMES = ("b", "c", "o", "M", "A")


@dataclass(frozen=True)
class TumorParams:
    """Model coefficients; defaults are the reference parametrization.

    All quantities are in dimensionless model units.  ``d_b`` has no single
    reference value (it sets how mobile the tumor tissue is); the default
    here is chosen so that dt=0.1 is comfortably stable on unit-spacing
    grids while still producing visible spread.
    """

    b_m: float = 0.0          # minimal cell density
    b_M: float = 2.0          # maximal cell density
    b_norm: float = 1.0       # normal (baseline) cell density
    d_b: float = 0.2          # tumor cell diffusion rate
    r_b: float = 0.3          # chemoattractant sensitivity
    o_prol: float = 10.0      # oxygen level above which cells proliferate
    o_death: float = 2.0      # oxygen level below which cells die (hypoxia)
    T_prol: float = 10.0      # proliferation time
    T_death: float = 100.0    # survival time under hypoxia
    P_b: float = 0.001        # peak rate of chemically stimulated mitosis
    tau_b: float = 0.5        # instantaneous reaction rate
    beta_M: float = 0.0625    # matrix decay rate
    gamma_A: float = 0.032    # attractant production rate
    chi_aA: float = 0.000641  # attractant diffusion rate
    gamma_oA: float = 0.000641  # attractant decay rate
    chi_c: float = 0.0000555  # signal diffusion rate
    gamma_c: float = 0.01     # signal decay rate
    alpha_o: float = 0.0000555  # oxygen diffusion rate
    gamma_o: float = 0.01     # oxygen consumption rate
    delta_o: float = 0.4      # oxygen delivery rate
    o_max: float = 60.0       # maximal oxygen concentration

    def __post_init__(self):
        if not (self.b_m < self.b_norm < self.b_M):
            raise ValueError("density levels must satisfy b_m < b_norm < b_M")
        if not (self.o_death < self.o_prol <= self.o_max):
            raise ValueError("oxygen thresholds must satisfy o_death < o_prol <= o_max")
        if self.T_prol <= 0 or self.T_death <= 0:
            raise ValueError("characteristic times must be positive")
        for name in ("d_b", "r_b", "P_b", "tau_b", "beta_M", "gamma_A", "chi_aA",
                     "gamma_oA", "chi_c", "gamma_c", "alpha_o", "gamma_o", "delta_o"):
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be nonnegative")


class VolumeTriple(NamedTuple):
    total: float
    proliferating: float
    quiescent: float


# -- kernel -------------------------------------------------------------------


def _scaling(divisor: float) -> tuple[float, bool]:
    """How the compiled stages divide by ``divisor``, bit for bit as np.divide:
    ``(1 / divisor, True)``, multiply by it, or ``(divisor, False)``, divide.

    A power of two whose reciprocal is finite multiplies: both are exact, so
    x / 2^k and x * 2^-k round the same real number and agree on every input,
    subnormals, infinities and NaN included.  Every other divisor divides.
    """
    if abs(math.frexp(divisor)[0]) == 0.5 and math.isfinite(1.0 / divisor):
        return 1.0 / divisor, True
    return divisor, False


@functools.lru_cache(maxsize=64)
def _coefficients(p: TumorParams, h: float) -> tuple[np.ndarray, int]:
    """The coefficients of a tendency of ``p`` on spacing ``h``, as the
    compiled code takes them: one read-only float64 array, laid out as the
    enum in ``_tendency.c``, and its address.  It holds the flux's and the
    reaction's coefficients and the scalings of 2h, h and h^2, so the
    tendency's one foreign call takes no other number.  A caller holds the
    array until its foreign call returns, since the cache may drop it."""
    k = np.array([p.b_norm, p.b_M, -p.d_b, p.r_b, *_scaling(p.b_M - p.b_norm),
                  *_scaling(2.0 * h), *_scaling(h), *_scaling(h * h),
                  *_scaling(p.b_M), p.o_death, p.o_prol, p.tau_b, p.P_b, p.T_death, p.T_prol,
                  p.chi_c, p.gamma_c, p.alpha_o, p.gamma_o, p.delta_o, p.o_max, -p.beta_M,
                  p.gamma_A, p.chi_aA, p.gamma_oA], dtype=np.float64)
    k.setflags(write=False)
    return k, k.ctypes.data


def _grid(shape) -> tuple[int, int, int]:
    """``shape`` as a grid the compiled loops can run on: at least 3 cells
    per axis, since they read the neighbours on both sides of a cell."""
    shape = tuple(shape)
    if len(shape) != 3 or min(shape) < 3:
        raise ValueError(f"the kernel needs a 3-D grid of at least 3 cells per axis, got {shape}")
    return shape


def _laplacian(data: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """7-point Laplacian with mirrored (zero-flux) boundary cells of one
    field or a stack of fields, into ``out`` or a new array."""
    out = np.empty(data.shape) if out is None else out
    shape = _grid(data.shape[-3:])
    _kernel.LIB.laplacian(math.prod(data.shape[:-3]), *shape, pointer(data, data.shape),
                          pointer(out, data.shape, data, output=True), *_scaling(h * h))
    return out


def compute_flux(state: np.ndarray, p: TumorParams, h: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Auxiliary flux J = -d_b * b * (grad(normalized b) * gate + r_b * grad A).

    The pressure part acts only where the density sits between its normal
    and maximal levels; the gate multiplies the computed gradient pointwise.
    Returns (Jx, Jy, Jz) as one (3, nz, ny, nx) array, ``out`` if given.
    """
    b, A = state[0], state[4]
    out = np.empty((3,) + b.shape) if out is None else out
    shape = _grid(b.shape)
    _k, k_ptr = _coefficients(p, h)  # held until the call returns
    _kernel.LIB.flux(*shape, pointer(b, shape), pointer(A, shape),
                     pointer(out, (3,) + shape, state, output=True), k_ptr)
    return out


def _divergence(flux: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """dJx/dx + dJy/dy + dJz/dz of a (3, nz, ny, nx) flux array, one-sided
    at the walls, into ``out`` or a new array."""
    out = np.empty(flux.shape[1:]) if out is None else out
    shape = _grid(flux.shape[1:])
    _kernel.LIB.divergence(*shape, pointer(flux, (3,) + shape),
                           pointer(out, shape, flux, output=True),
                           *_scaling(2.0 * h), *_scaling(h))
    return out


def tumor_tendency(
    state: np.ndarray, p: TumorParams, h: float,
    oxygen_source_mask: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """Time derivative of all five fields of a state on spacing h, into
    ``out`` (C-contiguous, shaped like the state) or a new array.

    ``oxygen_source_mask`` optionally restricts oxygen delivery to a static
    0/1 region (a crude stand-in for a vessel network); by default delivery
    acts everywhere.
    """
    out = np.empty(state.shape) if out is None else out
    shape = _grid(state.shape[1:])
    state_ptr = pointer(state, (5,) + shape, out)
    out_ptr = pointer(out, (5,) + shape, output=True)
    mask_ptr = None if oxygen_source_mask is None else pointer(oxygen_source_mask, shape, out)
    _k, k_ptr = _coefficients(p, h)  # held until the call returns
    _kernel.LIB.tendency(*shape, state_ptr, mask_ptr, out_ptr, k_ptr)
    return out


def tumor_volumes(b: np.ndarray, o: np.ndarray, p: TumorParams,
                  cell_volume: float) -> VolumeTriple:
    """Total, proliferating, and quiescent tumor volume from density b and oxygen o.

    Proliferating cells sit where oxygen exceeds the proliferation
    threshold; quiescent volume is everything else (total minus
    proliferating), covering both hypoxic and merely oxygen-poor regions.
    """
    total = volume_integral(b, cell_volume)
    proliferating = volume_integral(b * (o > p.o_prol), cell_volume)
    return VolumeTriple(total, proliferating, total - proliferating)


# -- initial conditions ------------------------------------------------------


def vessel_free_mask(spec: GridSpec, radius_fraction: float) -> np.ndarray:
    """0/1 oxygen delivery mask: no delivery inside a central ball.

    ``radius_fraction`` is relative to the smallest domain extent.  Models
    a tumor core that the vasculature does not reach.
    """
    zz, yy, xx = spec.cell_centers()
    ex, ey, ez = spec.extents
    r2 = (xx - ex / 2) ** 2 + (yy - ey / 2) ** 2 + (zz - ez / 2) ** 2
    radius = radius_fraction * min(ex, ey, ez)
    return (r2 >= radius * radius).astype(np.float64)


def gaussian_bump_state(
    spec: GridSpec,
    p: TumorParams,
    bump_width: float = 0.14,
    bump_amplitude: float | None = None,
    core_oxygen: float | None = None,
    oxygen_ramp_radius: float = 0.42,
) -> np.ndarray:
    """Centered Gaussian tumor seed in an intact matrix, as a state array.

    b is a Gaussian bump (amplitude defaults to the normal density), c and
    A start at zero, M at one.  Oxygen is uniform at o_max unless
    ``core_oxygen`` is given, in which case it ramps geometrically from
    that value at the center up to o_max at ``oxygen_ramp_radius`` (both
    radii are fractions of the smallest domain extent).  The ramp creates
    a poorly oxygenated core so the hypoxia and proliferation thresholds
    actually select different regions.
    """
    if bump_amplitude is None:
        bump_amplitude = p.b_norm
    zz, yy, xx = spec.cell_centers()
    ex, ey, ez = spec.extents
    extent = min(ex, ey, ez)
    r2 = (xx - ex / 2) ** 2 + (yy - ey / 2) ** 2 + (zz - ez / 2) ** 2
    sigma = bump_width * extent
    b = bump_amplitude * np.exp(-r2 / (2.0 * sigma * sigma))

    if core_oxygen is None:
        o = np.full(spec.shape, p.o_max)
    else:
        if not 0 < core_oxygen <= p.o_max:
            raise ValueError("core oxygen must be in (0, o_max]")
        ramp = np.clip(np.sqrt(r2) / (oxygen_ramp_radius * extent), 0.0, 1.0)
        o = np.exp(np.log(core_oxygen) + (np.log(p.o_max) - np.log(core_oxygen)) * ramp)

    zeros = np.zeros(spec.shape)
    return np.stack([b, zeros, o, np.ones(spec.shape), zeros])


class TumorSystem(DynamicalSystem):
    """Dynamical-system wrapper so the ensemble engine can step the model.

    A state is one (5, nz, ny, nx) array on ``spec``; b, its first field,
    is the one an ensemble couples.  Volumes are reported with the
    thresholds of the reference parametrization, so sub-models with
    perturbed parameters are all measured with the same yardstick.
    """

    variables = FIELD_NAMES
    volume_variables = ("b", "o")  # the fields ``volumes`` reads, b first
    _yardstick = TumorParams()

    def __init__(self, spec: GridSpec, oxygen_source_mask: np.ndarray | None = None):
        self.spec = spec
        self.cell_volume = spec.cell_volume
        self.oxygen_source_mask = oxygen_source_mask

    def tendency(self, state: np.ndarray, params: TumorParams,
                 out: np.ndarray | None = None) -> np.ndarray:
        return tumor_tendency(state, params, self.spec.h, self.oxygen_source_mask, out)

    def volumes(self, state: np.ndarray, variables=FIELD_NAMES) -> VolumeTriple:
        """Volume triple of a state, or of a stack of the fields named by
        ``variables`` (b and o among them)."""
        b, o = (state[variables.index(name)] for name in self.volume_variables)
        return tumor_volumes(b, o, self._yardstick, self.cell_volume)


# -- series output ------------------------------------------------------------


def write_volume_series(path, rows):
    """CSV time series of (step, t, total, proliferating, quiescent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "total", "proliferating", "quiescent"])
        for step, t, vol in rows:
            writer.writerow([step, repr(float(t)), repr(vol.total),
                             repr(vol.proliferating), repr(vol.quiescent)])
