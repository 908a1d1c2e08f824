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
for the grid (see ``stability_monitor`` and the sweep in experiments).

A state is one C-contiguous (5, nz, ny, nx) float64 array holding b, c, o,
M and A in that order (see FIELD_NAMES).  Arrays carry no grid: the kernel
takes the spacing h, and volumes take the cell volume h^3, as arguments; a
TumorSystem supplies both from its GridSpec.

The tendency kernel writes its intermediates into a set of work arrays and
never returns one.  A TumorSystem keeps a free-list of such sets: a tendency
takes one (allocating it when the list is empty) and puts it back when it
returns.  So a system serves concurrent tendencies from several threads, and
it holds as many sets as tendencies have ever run at once on it: one when
stepped from one thread, two when the engine steps members on two cores.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import DynamicalSystem
from .fields import GridSpec, volume_integral

STABLE = "stable"
DIVERGING = "diverging"

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


# -- stencils ---------------------------------------------------------------
# _laplacian rebuilds np.pad(mode="edge") as ghost-cell fills and _gradient
# rebuilds np.gradient(edge_order=1); every operation and every sum keeps the
# order of those formulas, so the results are bit-identical to them.


class _Work:
    """Work arrays of the tendency kernel for one grid shape; each has one user.

    Buffers that are free at some point serve there too: ``potentials`` holds
    6 * field in _laplacian and a gradient in _divergence, both after the
    flux, and ``coeff`` holds the upper density gate before it is written.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self.shape = shape
        # _laplacian: up to two fields with their ghost cells
        self.padded = np.empty((2,) + tuple(n + 2 for n in shape))
        # compute_flux: normalized b and A, and their gradients along one axis
        self.potentials = np.empty((2,) + shape)
        self.grads = np.empty((2,) + shape)
        self.coeff, self.gate = np.empty((2,) + shape)
        # tumor_tendency (hypoxic and proliferative are 0/1 masks)
        self.flux = np.empty((3,) + shape)
        self.t1, self.t2, self.hypoxic, self.proliferative = np.empty((4,) + shape)
        # _gradient, per axis: the flat stride, and where the two faces sit
        # in the result and which entries of the input their differences take
        self.strides = [int(np.prod(shape[axis + 1:])) for axis in range(3)]
        self.faces = [
            tuple((Ellipsis, index) + (slice(None),) * (2 - axis) for index in (
                slice(None, None, n - 1), slice(1, None, n - 2), slice(None, n - 1, n - 2)))
            for axis, n in enumerate(shape)
        ]


def _gradient(f: np.ndarray, h: float, axis: int, out: np.ndarray, w: _Work) -> np.ndarray:
    """d/d(grid axis) of a field or a stack of fields into C-contiguous ``out``."""
    s = w.strides[axis]
    # centered differences over the flattened array; the entries this gives
    # on the two faces (which straddle rows or fields) are overwritten below
    inner = out.reshape(-1)[s:-s]
    flat = f.reshape(-1)
    np.subtract(flat[2 * s:], flat[:-2 * s], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    # both faces at once: out[0] = f[1] - f[0] and out[n-1] = f[n-1] - f[n-2]
    faces, upper, lower = w.faces[axis]
    faces = out[faces]
    np.subtract(f[upper], f[lower], out=faces)
    np.divide(faces, h, out=faces)
    return out


def _laplacian(data: np.ndarray, h: float, out: np.ndarray | None = None,
               work: _Work | None = None) -> np.ndarray:
    """7-point Laplacian with mirrored (zero-flux) boundary cells.

    ``data`` is one field or a stack of two.
    """
    w = _Work(data.shape[-3:]) if work is None else work
    fields = data.reshape((-1,) + w.shape)
    nz, ny, nx = w.shape
    p = w.padded[:len(fields)]
    p[:, 1:-1, 1:-1, 1:-1] = fields
    # ghost faces repeat the edge cells (two faces per copy)
    p[:, ::nz + 1, 1:-1, 1:-1] = fields[:, ::nz - 1]
    p[:, 1:-1, ::ny + 1, 1:-1] = fields[:, :, ::ny - 1]
    p[:, 1:-1, 1:-1, ::nx + 1] = fields[:, :, :, ::nx - 1]
    out = np.empty(data.shape) if out is None else out
    result = out.reshape(fields.shape)
    np.add(p[:, 2:, 1:-1, 1:-1], p[:, :-2, 1:-1, 1:-1], out=result)
    result += p[:, 1:-1, 2:, 1:-1]
    result += p[:, 1:-1, :-2, 1:-1]
    result += p[:, 1:-1, 1:-1, 2:]
    result += p[:, 1:-1, 1:-1, :-2]
    result -= np.multiply(fields, 6.0, out=w.potentials[:len(fields)])
    result /= h * h
    return out


def compute_flux(state: np.ndarray, p: TumorParams, h: float,
                 out: np.ndarray | None = None, work: _Work | None = None) -> np.ndarray:
    """Auxiliary flux J = -d_b * b * (grad(normalized b) * gate + r_b * grad A).

    The pressure part acts only where the density sits between its normal
    and maximal levels; the gate multiplies the computed gradient pointwise.
    Returns (Jx, Jy, Jz) as one (3, nz, ny, nx) array, ``out`` if given.
    """
    b, A = state[0], state[4]
    w = _Work(b.shape) if work is None else work
    out = np.empty((3,) + b.shape) if out is None else out
    potentials = w.potentials
    np.subtract(b, p.b_norm, out=potentials[0])
    potentials[0] /= p.b_M - p.b_norm
    potentials[1] = A
    gate = np.greater_equal(b, p.b_norm, out=w.gate)
    gate *= np.less_equal(b, p.b_M, out=w.coeff)
    coeff = np.multiply(b, -p.d_b, out=w.coeff)
    pressure, chemotaxis = w.grads
    for component, axis in enumerate((2, 1, 0)):  # x runs along the last axis
        _gradient(potentials, h, axis, w.grads, w)
        pressure *= gate
        chemotaxis *= p.r_b
        pressure += chemotaxis
        np.multiply(coeff, pressure, out=out[component])
    return out


def _divergence(flux: np.ndarray, h: float, out: np.ndarray | None = None,
                work: _Work | None = None) -> np.ndarray:
    """dJx/dx + dJy/dy + dJz/dz of a (3, nz, ny, nx) flux array."""
    w = _Work(flux.shape[1:]) if work is None else work
    out = np.empty(flux.shape[1:]) if out is None else out
    _gradient(flux[0], h, 2, out, w)
    out += _gradient(flux[1], h, 1, w.potentials[0], w)
    out += _gradient(flux[2], h, 0, w.potentials[0], w)
    return out


def tumor_tendency(
    state: np.ndarray, p: TumorParams, h: float,
    oxygen_source_mask: np.ndarray | None = None, work: _Work | None = None,
) -> np.ndarray:
    """Time derivative of all five fields of a state on spacing h, as a new array.

    ``oxygen_source_mask`` optionally restricts oxygen delivery to a static
    0/1 region (a crude stand-in for a vessel network); by default delivery
    acts everywhere.  ``work`` holds the grid's reusable work arrays.
    """
    b, c, o, M, A = state
    w = _Work(b.shape) if work is None else work
    out = np.empty(state.shape)
    db, dc, do, dM, dA = out
    t1, t2 = w.t1, w.t2

    hypoxic = np.less(o, p.o_death, out=w.hypoxic)
    proliferative = np.greater(o, p.o_prol, out=w.proliferative)

    with np.errstate(over="ignore", invalid="ignore"):
        compute_flux(state, p, h, out=w.flux, work=w)
        # mitosis boost 1 + P_b * tau_b A / (tau_b A + 1), kept in t1
        np.multiply(A, p.tau_b, out=t1)
        t1 /= np.add(t1, 1.0, out=t2)
        t1 *= p.P_b
        t1 += 1.0
        # db = -div J - (b / T_death) hypoxic
        #      + (b / T_prol) boost (1 - b / b_M) proliferative
        _divergence(w.flux, h, out=db, work=w)
        np.negative(db, out=db)
        db -= np.multiply(np.divide(b, p.T_death, out=t2), hypoxic, out=t2)
        np.divide(b, p.T_prol, out=t2)
        t2 *= t1
        np.subtract(1.0, np.divide(b, p.b_M, out=t1), out=t1)
        t2 *= t1
        t2 *= proliferative
        db += t2
        # dc = chi_c lap(c) - gamma_c o c + b (1 - c) hypoxic
        _laplacian(state[1:3], h, out=out[1:3], work=w)  # lap(c) and lap(o)
        dc *= p.chi_c
        dc -= np.multiply(np.multiply(o, p.gamma_c, out=t1), c, out=t1)
        np.multiply(b, np.subtract(1.0, c, out=t1), out=t1)
        t1 *= hypoxic
        dc += t1
        # do = alpha_o lap(o) - gamma_o b o + delta_o (o_max - o) [* mask]
        do *= p.alpha_o
        do -= np.multiply(np.multiply(b, p.gamma_o, out=t1), o, out=t1)
        np.subtract(p.o_max, o, out=t1)
        t1 *= p.delta_o
        if oxygen_source_mask is not None:
            t1 *= oxygen_source_mask
        do += t1
        # dM = -beta_M M b
        np.multiply(M, -p.beta_M, out=dM)
        dM *= b
        # dA = gamma_A M b + chi_aA lap(A) - gamma_oA A
        _laplacian(A, h, out=dA, work=w)
        dA *= p.chi_aA
        dA += np.multiply(np.multiply(M, p.gamma_A, out=t1), b, out=t1)
        dA -= np.multiply(A, p.gamma_oA, out=t1)

    return out


def stability_monitor(history, factor: float = 10.0) -> str:
    """Classify a norm history as stable or diverging.

    Diverging means the latest norm exceeds ``factor`` times the smallest
    norm seen, or any entry stopped being finite.
    """
    if not factor > 1:
        raise ValueError("factor must exceed 1")
    seq = [float(v) for v in history]
    if not seq:
        raise ValueError("empty norm history")
    if not all(math.isfinite(v) for v in seq):
        return DIVERGING
    if seq[-1] > factor * min(seq):
        return DIVERGING
    return STABLE


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

    A state is one (5, nz, ny, nx) array on ``spec``.  ``metric_params``
    fixes the thresholds used for volume reporting, so sub-models with
    perturbed parameters are all measured with the same yardstick (defaults
    to the reference parametrization).
    """

    variables = FIELD_NAMES
    couplable = ("b",)
    volume_variables = ("b", "o")  # the fields ``volumes`` reads, b first

    def __init__(
        self,
        spec: GridSpec,
        oxygen_source_mask: np.ndarray | None = None,
        metric_params: TumorParams | None = None,
    ):
        self.spec = spec
        self.cell_volume = spec.cell_volume
        self.oxygen_source_mask = oxygen_source_mask
        self.metric_params = metric_params if metric_params is not None else TumorParams()
        self._idle_work: list[_Work] = []  # work sets no tendency is using

    def tendency(self, state: np.ndarray, params: TumorParams) -> np.ndarray:
        # list.pop and list.append are atomic, so each set has one user at a time
        try:
            work = self._idle_work.pop()
        except IndexError:
            work = _Work(self.spec.shape)
        try:
            return tumor_tendency(state, params, self.spec.h, self.oxygen_source_mask, work)
        finally:
            self._idle_work.append(work)

    def volumes(self, state: np.ndarray, variables=FIELD_NAMES) -> VolumeTriple:
        """Volume triple of a state, or of a stack of the fields named by
        ``variables`` (b and o among them)."""
        b, o = (state[variables.index(name)] for name in self.volume_variables)
        return tumor_volumes(b, o, self.metric_params, self.cell_volume)

    def random_state(self, params: TumorParams, rng) -> np.ndarray:
        ranges = (params.b_M, 1.0, params.o_max, 1.0, 1.0)  # b, c, o, M, A
        return np.stack([rng.uniform(0.0, hi, size=self.spec.shape) for hi in ranges])

    def noise_like(self, state: np.ndarray, rng) -> np.ndarray:
        return rng.standard_normal(state.shape)

    def lipschitz_scale(self, params: TumorParams) -> float:
        # 1e-2 of the coupled variable's range
        return 0.01 * (params.b_M - params.b_m)


# -- series output ------------------------------------------------------------


def write_volume_series(path, rows):
    """CSV time series of (step, t, total, proliferating, quiescent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "total", "proliferating", "quiescent"])
        for step, t, vol in rows:
            writer.writerow([step, repr(float(t)), repr(vol.total),
                             repr(vol.proliferating), repr(vol.quiescent)])
