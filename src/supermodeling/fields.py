"""Regular grids, domain norms and integrals.

A field is a plain float64 array of shape (nz, ny, nx) on a uniform GridSpec,
C-ordered so the flat layout runs x fastest; a tumor state stacks its five
fields into one (5, nz, ny, nx) array.  Arrays carry no grid, so the norm and
the integrals below take the h^3 weight as their ``cell_volume`` argument
(1.0, the default, gives plain sums, as the toy systems need); weighting by
h^3 keeps values comparable across grid refinements.  A field may be a view
into an array that the engine advances in place, so copy one to keep it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """A state or norm stopped being finite (numerical blow-up)."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform cartesian grid: cell counts per axis and one spacing h."""

    nx: int
    ny: int
    nz: int
    h: float

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny, self.nz)):
            raise ValueError("grid cell counts must be integers")
        if min(self.nx, self.ny, self.nz) < 3:
            raise ValueError("grid needs at least 3 cells per axis for stencils")
        if not 0 < self.h < math.inf:
            raise ValueError("grid spacing h must be finite and positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        # (nz, ny, nx): C order makes x the fastest-varying flat index
        return (self.nz, self.ny, self.nx)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of cell centers, broadcastable to field shape (z, y, x)."""
        zs = (np.arange(self.nz) + 0.5) * self.h
        ys = (np.arange(self.ny) + 0.5) * self.h
        xs = (np.arange(self.nx) + 0.5) * self.h
        return np.meshgrid(zs, ys, xs, indexing="ij")

    @property
    def extents(self) -> tuple[float, float, float]:
        return (self.nx * self.h, self.ny * self.h, self.nz * self.h)


def l2_norm(x, cell_volume: float = 1.0) -> float:
    """Discrete L2 norm sqrt(sum x^2 * cell_volume) of an array or a number."""
    flat = np.ravel(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        sumsq = float(np.dot(flat, flat))
    if not np.isfinite(sumsq):
        raise BlowUpError("non-finite values in norm")
    return float(np.sqrt(sumsq * cell_volume))


def volume_integral(x, cell_volume: float = 1.0) -> float:
    """Integral over the domain: the sum of all entries times cell_volume."""
    return float(np.asarray(x, dtype=np.float64).sum() * cell_volume)


# -- binary snapshot format ------------------------------------------------
# One ASCII header line "nx ny nz h t", then raw little-endian float64 data
# in x-fastest order.


def write_field(path, data: np.ndarray, spec: GridSpec, t: float = 0.0):
    if data.shape != spec.shape:
        raise ValueError(f"field shape {data.shape} does not match grid {spec.shape}")
    header = f"{spec.nx} {spec.ny} {spec.nz} {spec.h!r} {float(t)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_field(path) -> tuple[np.ndarray, GridSpec, float]:
    """The field, grid and time ``write_field`` wrote; ValueError names the
    file when its header or its data length is not what that writes."""
    with open(path, "rb") as fh:
        try:
            nx, ny, nz, h, t = fh.readline().decode("ascii").split()
            spec, t = GridSpec(int(nx), int(ny), int(nz), float(h)), float(t)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ValueError(f"snapshot {path} has no 'nx ny nz h t' header: {exc}") from None
        raw = fh.read()
    if len(raw) != spec.size * 8:
        raise ValueError(f"snapshot {path} holds {len(raw)} data bytes, but its "
                         f"{nx}x{ny}x{nz} header needs {spec.size * 8}")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(spec.shape)
    return data, spec, t
