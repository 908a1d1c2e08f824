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
Laplacians, written into the output array, into the tendency.  Each stage
is one call into a small C library, ``_tendency.c``, the only code of the
tendency.  The first import builds it with the interpreter's C compiler into
the package's ``__pycache__``, which must be writable then; later imports
load it from there.  A build or load that fails raises ImportError at
import, with the compiler's or the loader's message.  The loops do each
stage's arithmetic cell by cell, two cells at a time, in the order of the
NumPy formula that the tests hold them to (``reference_tendency``), and the
build allows no reordering or fused operations, so both give the same bits.
The loops multiply by the exact reciprocal of a power-of-two divisor
(``_scaling``), since x / 2^k and x * 2^-k are the same correctly rounded
number for every x; every other divisor, such as h = 0.7 or T_prol,
divides.  Before a call the wrappers check every array it is given
(C-contiguous float64 of the grid's shape, at least 3 cells per axis,
outputs apart from inputs) and raise ValueError otherwise.

The tendency writes nothing but its output array: the flux goes into
slots 1 to 3 of it until the Laplacians replace it.  So a TumorSystem holds
no work set, only its grid and oxygen mask, and may run tendencies
concurrently.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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

_SOURCE = Path(__file__).with_name("_tendency.c")
# nothing that may reorder, fuse or re-round an operation: never
# -ffast-math, -Ofast or -march=native, and no fused multiply-adds
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LONG, _DOUBLE, _ARRAY = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
_SCALING = (_DOUBLE, ctypes.c_int)  # see _scaling
_SIGNATURES = {
    "flux": (_LONG,) * 3 + (_ARRAY,) * 3 + (_DOUBLE,) * 4 + _SCALING * 3,
    "divergence": (_LONG,) * 3 + (_ARRAY,) * 2 + _SCALING * 2,
    "laplacian": (_LONG,) * 4 + (_ARRAY,) * 2 + _SCALING,
    "reaction": (_LONG,) + (_ARRAY,) * 3 + (_DOUBLE,) * 6 + _SCALING + (_DOUBLE,) * 10,
}


def _load_kernel(cache: Path):
    """The compiled stages; raises ImportError with why they cannot be used.

    The library is built from ``_SOURCE`` into ``cache`` on first use, named
    by a checksum of the source and the flags, so a later import only reads
    the source and loads the library.  A build removes the libraries that
    earlier versions of the source or flags left in ``cache``.
    """
    try:
        key = zlib.crc32(" ".join(_FLAGS).encode(), zlib.crc32(_SOURCE.read_bytes()))
        library = cache / f"_tendency-{key:08x}.so"
        if not library.exists():
            _build(library)
            for stale in cache.glob("_tendency-*.so"):
                if stale != library:
                    # a process that loaded it keeps its mapping
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(library))
    except OSError as exc:
        raise ImportError(f"cannot build or load the tendency kernel: {' '.join(str(exc).split())}"
                          ) from exc
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, None
    return lib


def _build(library: Path) -> None:
    """Compile ``_SOURCE`` into ``library`` with the interpreter's C compiler,
    or raise ImportError with the compiler's message.  The library is written
    under a temporary name and renamed, so no process loads one that another
    is still writing."""
    # imported here: a run that finds the library built needs none of them,
    # and they take a few milliseconds of every run's set-up
    import shlex
    import subprocess
    import sysconfig

    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_FLAGS]
    library.parent.mkdir(parents=True, exist_ok=True)
    partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    try:
        result = subprocess.run([*command, "-o", str(partial), str(_SOURCE)],
                                capture_output=True, text=True, timeout=300)
        if result.returncode != 0:
            raise ImportError(f"cannot build the tendency kernel: {command[0]} failed:\n"
                              f"{result.stderr.strip()}")
        os.replace(partial, library)
    except subprocess.SubprocessError as exc:  # a timeout; _load_kernel reports an OSError
        raise ImportError(f"cannot build the tendency kernel: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)


_LIB = _load_kernel(_SOURCE.parent / "__pycache__")


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


def _grid(shape) -> tuple[int, int, int]:
    """``shape`` as a grid the compiled loops can run on: at least 3 cells
    per axis, since they read the neighbours on both sides of a cell."""
    shape = tuple(shape)
    if len(shape) != 3 or min(shape) < 3:
        raise ValueError(f"the kernel needs a 3-D grid of at least 3 cells per axis, got {shape}")
    return shape


def _pointer(array, shape, *apart):
    """``array`` as a pointer argument of a foreign call, which must be a
    C-contiguous float64 array of ``shape`` sharing no memory with the
    ``apart`` ones."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape == shape):
        raise ValueError(f"the kernel needs float64 arrays of shape {shape}, got "
                         f"{getattr(array, 'dtype', type(array))} of shape "
                         f"{getattr(array, 'shape', None)}")
    if not array.flags.c_contiguous:
        raise ValueError("the kernel needs C-contiguous arrays")
    if any(np.may_share_memory(array, other) for other in apart):
        raise ValueError("the kernel's output may not overlap its inputs")
    if not array.flags.writeable:  # which from_buffer requires
        return array.ctypes.data
    # a quarter of the time of array.ctypes.data, which is most of a call's
    # overhead on a small grid
    return ctypes.byref(ctypes.c_char.from_buffer(array))


def _laplacian(data: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """7-point Laplacian with mirrored (zero-flux) boundary cells of one
    field or a stack of fields, into ``out`` or a new array."""
    out = np.empty(data.shape) if out is None else out
    shape = _grid(data.shape[-3:])
    _LIB.laplacian(math.prod(data.shape[:-3]), *shape, _pointer(data, data.shape),
                   _pointer(out, data.shape, data), *_scaling(h * h))
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
    _LIB.flux(*shape, _pointer(b, shape), _pointer(A, shape), _pointer(out, (3,) + shape, state),
              p.b_norm, p.b_M, -p.d_b, p.r_b, *_scaling(p.b_M - p.b_norm), *_scaling(2.0 * h),
              *_scaling(h))
    return out


def _divergence(flux: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """dJx/dx + dJy/dy + dJz/dz of a (3, nz, ny, nx) flux array, one-sided
    at the walls, into ``out`` or a new array."""
    out = np.empty(flux.shape[1:]) if out is None else out
    shape = _grid(flux.shape[1:])
    _LIB.divergence(*shape, _pointer(flux, (3,) + shape), _pointer(out, shape, flux),
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
    # every array is checked before the first foreign call
    shape = _grid(state.shape[1:])
    state_ptr = _pointer(state, (5,) + shape, out)
    out_ptr = _pointer(out, (5,) + shape)
    mask_ptr = None if oxygen_source_mask is None else _pointer(oxygen_source_mask, shape, out)

    # out holds J in slots 1-3 until the Laplacians of c, o and A replace it,
    # and div J and those Laplacians until the reaction terms replace them
    # with the tendency
    _divergence(compute_flux(state, p, h, out=out[1:4]), h, out=out[0])
    _laplacian(state[1:3], h, out=out[1:3])
    _laplacian(state[4], h, out=out[4])
    _LIB.reaction(math.prod(shape), state_ptr, mask_ptr, out_ptr, p.o_death, p.o_prol,
                  p.tau_b, p.P_b, p.T_death, p.T_prol, *_scaling(p.b_M), p.chi_c,
                  p.gamma_c, p.alpha_o, p.gamma_o, p.delta_o, p.o_max, -p.beta_M,
                  p.gamma_A, p.chi_aA, p.gamma_oA)
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
