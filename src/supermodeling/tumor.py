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
never returns one; it writes the tendency itself into a new array or into
one the caller passes.  It is cache-blocked: after the flux potentials,
each stage runs over slabs of whole z-planes, about ``SLAB_CELLS`` cells
each, so a slab's intermediates are still in cache when its next operation
reads them.  A slab reads its neighbours' edge planes from full-size arrays
instead of recomputing them, and every cell goes through the operations of
an unblocked kernel in the same order, so the bits do not depend on the slab
height.  Grids of up to ``SLAB_CELLS`` cells (32^3) are one slab.

Two more rules cut the work per cell without changing a bit.  A division
by a power of two is a multiply by its exact reciprocal, and a division by
one is skipped (``_scale``): x / 2^k and x * 2^-k are the same correctly
rounded number for every x.  Other divisors, such as h = 0.7 or T_prol,
still divide.  And a Laplacian runs each of its terms as one contiguous pass
over a flattened ghost-padded copy of the field; the entries that fall on
ghost cells are computed and never read.  Its result is a view of an
accumulator laid out like that copy.  The accumulators share storage with a
slab's coeff, gate, t1 and t2, which are free once the flux and db are
done, so they add no memory except on grids with nx or ny below 5.

A TumorSystem keeps a free-list of work sets: a tendency takes one
(allocating it when the list is empty) and puts it back when it returns.
So a system serves concurrent tendencies from several threads, and it holds
as many sets as tendencies have ever run at once on it: one when stepped
from one thread.  The engine's worker processes each hold their own copy of
the system, so each process keeps one set.
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


def _scale(x: np.ndarray, divisor: float, out: np.ndarray) -> np.ndarray:
    """``x / divisor`` into ``out``, bit for bit what np.divide writes.

    A power of two whose reciprocal is finite becomes a multiply by that
    reciprocal: both are exact, so x / 2^k and x * 2^-k round the same real
    number and agree on every input, subnormals, infinities and NaN included.
    Dividing by one is a copy, and no pass at all when ``out`` is ``x``.
    Every other divisor divides.
    """
    if divisor == 1.0:
        if out is not x:
            np.copyto(out, x)
        return out
    reciprocal = 1.0 / divisor if abs(math.frexp(divisor)[0]) == 0.5 else math.inf
    if math.isfinite(reciprocal):
        return np.multiply(x, reciprocal, out=out)
    return np.divide(x, divisor, out=out)


# Cells per slab of the tendency kernel: a slab is max(1, SLAB_CELLS // (ny*nx))
# z-planes.  tumor_tendency against the unblocked kernel, calls alternating
# in one process on a 2-vCPU host with one BLAS thread: the speedup of the
# median call over 7 rounds, as its median and in brackets its best round,
# with the planes per slab for each candidate value (one: the whole grid)
#
#     grid    16K cells             32K cells             64K cells
#     16^3    one   1.007 (1.079)   one                   one
#     32^3    16    0.884 (0.915)   one   0.966 (0.982)   one
#     48^3    7     1.079 (1.452)   14    1.215 (1.482)   28    1.195 (1.457)
#     64^3    4     1.415 (1.452)   8     1.393 (1.510)   16    1.325 (1.398)
#
# No value is the best at both 48^3 and 64^3; 32K, the best at 48^3 and
# within 2% of the best at 64^3, keeps grids up to 32^3 in one slab.
SLAB_CELLS = 32 * 1024


class _Slab:
    """The planes z0 <= z < z1 of a grid as the tendency kernel visits them.

    ``planes`` selects them in a full-size array and ``halo`` the planes
    their stencils read: one more on each side that is not a wall.  Within
    the halo, ``inner`` selects the slab's own planes.  ``whole`` is set
    when the slab is the whole grid.  ``gradient`` holds, per grid axis,
    where _gradient writes its centered differences in a flattened field of
    the slab, the two entries of the flattened halo they subtract, and the
    one-sided faces.  ``stencil`` holds, for a flattened ghost-padded field,
    where _laplacian's passes read the cells and their six neighbours.  The
    arrays are this slab's share of its work set's slab-sized storage, each
    C-contiguous.
    """

    def __init__(self, shape, z0: int, z1: int, storage: dict, potentials, flux):
        nz, ny, nx = shape
        height, plane = z1 - z0, ny * nx
        lo, hi = max(z0 - 1, 0), min(z1 + 1, nz)
        self.shape = (height, ny, nx)
        self.planes, self.halo, self.inner = slice(z0, z1), slice(lo, hi), slice(z0 - lo, z1 - lo)
        self.whole = (lo, hi) == (z0, z1)
        # what the slab's gradients read of the full-size work arrays
        self.potentials, self.flux = potentials[:, self.halo], flux[:, self.halo]

        def take(name, count, shape, start=0):
            size = count * math.prod(shape)
            return storage[name][start:start + size].reshape((count,) + shape)

        padded_plane = (ny + 2) * (nx + 2)
        self.padded = take("padded", 2, (height + 2, ny + 2, nx + 2))
        self.grads = take("grads", 2, self.shape)
        self.coeff, self.gate, self.t1, self.t2 = take("scratch", 4, self.shape)
        # the Laplacians' accumulators, laid out like the padded fields and
        # sharing the four slots above; the oxygen masks come after both
        self.laplacians = take("scratch", 2, (height, ny + 2, nx + 2))
        self.hypoxic, self.proliferative = take(
            "scratch", 2, self.shape, height * _front_per_plane(ny, nx))
        # a padded field's own cells span [start, start + length) flattened,
        # with ghost entries between their rows and planes
        start = padded_plane + (nx + 2) + 1
        length = (height - 1) * padded_plane + (ny - 1) * (nx + 2) + nx
        self.stencil = (slice(start, start + length), length,
                        [slice(start + d, start + d + length)
                         for step in (padded_plane, nx + 2, 1) for d in (step, -step)])

        def along(axis, index, z=None):
            """``index`` on one axis of a field or a stack, and ``z`` on its planes."""
            lead = (Ellipsis,) if z is None else (Ellipsis, z) + (slice(None),) * (axis - 1)
            return lead + (index,) + (slice(None),) * (2 - axis)

        offset = (z0 - lo) * plane  # entry i of a field's slab is entry i + offset of its halo
        self.gradient = []
        for axis, (n, s) in enumerate(zip(shape, (plane, nx, 1))):
            if self.whole:  # over all fields of a stack at once, as they are contiguous
                centered = (slice(s, -s), slice(2 * s, None), slice(None, -2 * s))
            else:
                if axis == 0:  # the planes off the walls
                    start, stop = (max(z0, 1) - z0) * plane, (min(z1, nz - 1) - z0) * plane
                else:
                    start, stop = s, height * plane - s
                centered = (slice(start, stop), slice(offset + start + s, offset + stop + s),
                            slice(offset + start - s, offset + stop - s))
            if axis:  # x and y: both faces at once, from the slab's own planes
                own = None if self.whole else self.inner
                faces = [(along(axis, slice(None, None, n - 1)),
                          along(axis, slice(1, None, n - 2), own),
                          along(axis, slice(None, n - 1, n - 2), own))]
            elif self.whole:  # z: both walls at once
                faces = [(along(0, slice(None, None, nz - 1)), along(0, slice(1, None, nz - 2)),
                          along(0, slice(None, nz - 1, nz - 2)))]
            else:  # z: the walls among the slab's planes, if any
                faces = [(along(0, slice(at, at + 1)), along(0, slice(up, up + 1)),
                          along(0, slice(up - 1, up)))
                         for wall, at, up in ((0, 0, 1), (nz - 1, height - 1, hi - lo - 1))
                         if z0 <= wall < z1]
            self.gradient.append(centered + (faces,))


def _front_per_plane(ny: int, nx: int) -> int:
    """Scratch entries per slab plane ahead of the oxygen masks: four fields
    (coeff, gate, t1, t2), or two padded Laplacian accumulators where those
    are larger, which takes nx or ny below 5."""
    return max(4 * ny * nx, 2 * (ny + 2) * (nx + 2))


class _Work:
    """Work arrays of the tendency kernel for one grid shape; each has one user.

    The kernel runs its stages over slabs of ``planes`` z-planes (see
    ``SLAB_CELLS``; the last slab may be thinner), so that what one slab
    writes is still in cache when the next stage of that slab reads it.  Only
    what a stage reads across a slab's walls stays full-size: the two
    potentials whose gradients give the flux (normalized b and A) and the
    three flux components whose divergence gives db.  The Laplacians read
    their halo planes from the state itself.  Everything else is per slab:
    the ghost-padded fields of a Laplacian, the two gradients of the flux
    stage, the flux coefficient and density gate, the oxygen masks and two
    scratch fields.  The gradients also hold a gradient in _divergence, after
    the flux; ``coeff`` holds the upper density gate before it is written;
    and once the flux and db are done, coeff, gate, t1 and t2 hold the
    Laplacians' accumulators (a grid with nx or ny below 5 may get more room
    for them).  With one slab (``planes`` at least nz) the kernel makes the
    NumPy calls of an unblocked one.
    """

    def __init__(self, shape: tuple[int, int, int], planes: int | None = None):
        nz, ny, nx = shape = tuple(shape)
        if planes is None:
            planes = max(1, SLAB_CELLS // (ny * nx))
        planes = min(planes, nz)
        self.potentials = np.empty((2,) + shape)
        self.flux = np.empty((3,) + shape)
        cells = planes * ny * nx
        storage = {"padded": np.empty(2 * (planes + 2) * (ny + 2) * (nx + 2)),
                   "grads": np.empty(2 * cells),
                   "scratch": np.empty(planes * _front_per_plane(ny, nx) + 2 * cells)}
        self.slabs = [_Slab(shape, z0, min(z0 + planes, nz), storage,
                            self.potentials, self.flux)
                      for z0 in range(0, nz, planes)]


def _one_slab(shape) -> _Slab:
    """The whole grid as one slab, for stencils called on their own."""
    return _Work(shape, planes=shape[0]).slabs[0]


def _gradient(f: np.ndarray, h: float, axis: int, out: np.ndarray, slab: _Slab) -> np.ndarray:
    """d/d(grid axis) of a field or a stack of fields on the planes of
    ``slab`` into C-contiguous ``out``; ``f`` holds the planes ``slab.halo``."""
    centered, ahead, behind, faces = slab.gradient[axis]
    # centered differences over the flattened planes; the entries this gives
    # on the faces (which straddle rows, planes or fields) are overwritten below
    if slab.whole or f.ndim == 3:
        flat, inner = f.reshape(-1), out.reshape(-1)[centered]
    else:  # a stack of fields whose halos are apart: one row each
        flat, inner = f.reshape(len(f), -1), out.reshape(len(out), -1)[:, centered]
        ahead, behind = (slice(None), ahead), (slice(None), behind)
    np.subtract(flat[ahead], flat[behind], out=inner)
    _scale(inner, 2.0 * h, inner)
    # one-sided at the walls: out[0] = f[1] - f[0] and out[n-1] = f[n-1] - f[n-2],
    # both in one call where the slab has both
    for index, upper, lower in faces:
        face = out[index]
        np.subtract(f[upper], f[lower], out=face)
        _scale(face, h, face)
    return out


def _laplacian(data: np.ndarray, h: float, slab: _Slab | None = None) -> np.ndarray:
    """7-point Laplacian with mirrored (zero-flux) boundary cells.

    ``data`` is one field or a stack of two, on the planes ``slab.halo``;
    the result covers the slab's own planes.  Without a slab it is the whole
    field.  The result is a view of the slab's accumulators, which share
    storage with its coeff, gate, t1 and t2: read it before writing those.
    """
    if slab is None:
        slab = _one_slab(data.shape[-3:])
    fields = data.reshape((-1,) + data.shape[-3:])
    own = fields[:, slab.inner]
    height, ny, nx = slab.shape
    p = slab.padded[:len(fields)]
    p[:, 1:-1, 1:-1, 1:-1] = own
    # ghost faces repeat the edge cells (two faces per copy); along z they
    # repeat the halo planes, which are the slab's own planes at a wall
    p[:, ::height + 1, 1:-1, 1:-1] = fields[:, ::fields.shape[1] - 1]
    p[:, 1:-1, ::ny + 1, 1:-1] = own[:, :, ::ny - 1]
    p[:, 1:-1, 1:-1, ::nx + 1] = own[:, :, :, ::nx - 1]
    # one contiguous pass per term over each flattened padded field: entry i
    # of the accumulator is the padded cell at start + i, and the entries
    # that fall on ghost cells are never read
    centre, length, (up_z, down_z, up_y, down_y, up_x, down_x) = slab.stencil
    result = slab.laplacians[:len(fields)]
    for padded, flat in zip(p.reshape(len(fields), -1), result.reshape(len(fields), -1)):
        acc = flat[:length]
        np.add(padded[up_z], padded[down_z], out=acc)
        acc += padded[up_y]
        acc += padded[down_y]
        acc += padded[up_x]
        acc += padded[down_x]
        own_cells = padded[centre]  # nothing reads the padded copy after this
        acc -= np.multiply(own_cells, 6.0, out=own_cells)
        _scale(acc, h * h, acc)
    result = result[:, :, :ny, :nx]
    return result if data.ndim > 3 else result[0]


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
    # the potentials are full-size: a slab's z-gradients read its neighbours'
    potentials = w.potentials
    np.subtract(b, p.b_norm, out=potentials[0])
    _scale(potentials[0], p.b_M - p.b_norm, potentials[0])
    potentials[1] = A
    for slab in w.slabs:
        b_slab, flux = b[slab.planes], out[:, slab.planes]
        gate = np.greater_equal(b_slab, p.b_norm, out=slab.gate)
        gate *= np.less_equal(b_slab, p.b_M, out=slab.coeff)
        coeff = np.multiply(b_slab, -p.d_b, out=slab.coeff)
        pressure, chemotaxis = slab.grads
        for component, axis in enumerate((2, 1, 0)):  # x runs along the last axis
            _gradient(slab.potentials, h, axis, slab.grads, slab)
            pressure *= gate
            chemotaxis *= p.r_b
            pressure += chemotaxis
            np.multiply(coeff, pressure, out=flux[component])
    return out


def _divergence(flux: np.ndarray, h: float, out: np.ndarray | None = None,
                slab: _Slab | None = None) -> np.ndarray:
    """dJx/dx + dJy/dy + dJz/dz of a (3, nz, ny, nx) flux array, on the
    planes of ``slab`` from the flux on the planes ``slab.halo``, or on the
    whole grid without a slab."""
    if slab is None:
        slab = _one_slab(flux.shape[1:])
    out = np.empty(slab.shape) if out is None else out
    scratch = slab.grads[0]
    _gradient(flux[0], h, 2, out, slab)
    out += _gradient(flux[1], h, 1, scratch, slab)
    out += _gradient(flux[2], h, 0, scratch, slab)
    return out


def tumor_tendency(
    state: np.ndarray, p: TumorParams, h: float,
    oxygen_source_mask: np.ndarray | None = None, work: _Work | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Time derivative of all five fields of a state on spacing h, into
    ``out`` (C-contiguous, shaped like the state) or a new array.

    ``oxygen_source_mask`` optionally restricts oxygen delivery to a static
    0/1 region (a crude stand-in for a vessel network); by default delivery
    acts everywhere.  ``work`` holds the grid's reusable work arrays.
    """
    w = _Work(state.shape[1:]) if work is None else work
    out = np.empty(state.shape) if out is None else out

    with np.errstate(over="ignore", invalid="ignore"):
        compute_flux(state, p, h, out=w.flux, work=w)
        for slab in w.slabs:
            planes, halo = slab.planes, slab.halo
            b, c, o, M, A = state[:, planes]
            db, dc, do, dM, dA = out[:, planes]
            t1, t2 = slab.t1, slab.t2
            hypoxic = np.less(o, p.o_death, out=slab.hypoxic)
            proliferative = np.greater(o, p.o_prol, out=slab.proliferative)
            # mitosis boost 1 + P_b * tau_b A / (tau_b A + 1), kept in t1
            np.multiply(A, p.tau_b, out=t1)
            t1 /= np.add(t1, 1.0, out=t2)
            t1 *= p.P_b
            t1 += 1.0
            # db = -div J - (b / T_death) hypoxic
            #      + (b / T_prol) boost (1 - b / b_M) proliferative
            _divergence(slab.flux, h, out=db, slab=slab)
            np.negative(db, out=db)
            db -= np.multiply(np.divide(b, p.T_death, out=t2), hypoxic, out=t2)
            np.divide(b, p.T_prol, out=t2)
            t2 *= t1
            np.subtract(1.0, _scale(b, p.b_M, t1), out=t1)
            t2 *= t1
            t2 *= proliferative
            db += t2
            # dc = chi_c lap(c) - gamma_c o c + b (1 - c) hypoxic and
            # do = alpha_o lap(o) - gamma_o b o + delta_o (o_max - o) [* mask];
            # both Laplacians are read before t1, which may hold lap(o), is written
            lap_c, lap_o = _laplacian(state[1:3, halo], h, slab=slab)
            np.multiply(lap_c, p.chi_c, out=dc)
            np.multiply(lap_o, p.alpha_o, out=do)
            dc -= np.multiply(np.multiply(o, p.gamma_c, out=t1), c, out=t1)
            np.multiply(b, np.subtract(1.0, c, out=t1), out=t1)
            t1 *= hypoxic
            dc += t1
            do -= np.multiply(np.multiply(b, p.gamma_o, out=t1), o, out=t1)
            np.subtract(p.o_max, o, out=t1)
            t1 *= p.delta_o
            if oxygen_source_mask is not None:
                t1 *= oxygen_source_mask[planes]
            do += t1
            # dM = -beta_M M b
            np.multiply(M, -p.beta_M, out=dM)
            dM *= b
            # dA = gamma_A M b + chi_aA lap(A) - gamma_oA A
            np.multiply(_laplacian(state[4, halo], h, slab=slab), p.chi_aA, out=dA)
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

    def tendency(self, state: np.ndarray, params: TumorParams,
                 out: np.ndarray | None = None) -> np.ndarray:
        # list.pop and list.append are atomic, so each set has one user at a time
        try:
            work = self._idle_work.pop()
        except IndexError:
            work = _Work(self.spec.shape)
        try:
            return tumor_tendency(state, params, self.spec.h, self.oxygen_source_mask, work,
                                  out)
        finally:
            self._idle_work.append(work)

    def volumes(self, state: np.ndarray, variables=FIELD_NAMES) -> VolumeTriple:
        """Volume triple of a state, or of a stack of the fields named by
        ``variables`` (b and o among them)."""
        b, o = (state[variables.index(name)] for name in self.volume_variables)
        return tumor_volumes(b, o, self.metric_params, self.cell_volume)

    def random_state(self, params: TumorParams, rng) -> np.ndarray:
        ranges = (params.b_M, 1.0, params.o_max, 1.0, 1.0)  # b, c, o, M, A
        # one field at a time: a state and a field at most, not two states
        state = np.empty((len(ranges),) + self.spec.shape)
        for field, hi in zip(state, ranges):
            field[...] = rng.uniform(0.0, hi, size=self.spec.shape)
        return state

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
