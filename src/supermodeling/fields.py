"""Regular grids, domain norms and integrals, and ensemble distances.

A field is a plain float64 array of shape (nz, ny, nx) on a uniform GridSpec,
C-ordered so the flat layout runs x fastest; a tumor state stacks its five
fields into one (5, nz, ny, nx) array.  Arrays carry no grid, so the norm and
the integrals below take the h^3 weight as their ``cell_volume`` argument
(1.0, the default, gives plain sums, as the toy systems need); weighting by
h^3 keeps values comparable across grid refinements.  A field may be a view
into an array that the engine advances in place, so copy one to keep it.
"""

from __future__ import annotations

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
        if min(self.nx, self.ny, self.nz) < 3:
            raise ValueError("grid needs at least 3 cells per axis for stencils")
        if not self.h > 0:
            raise ValueError("grid spacing h must be positive")

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


def taxi_ensemble_distance(a, b) -> float:
    """Sum over members (the leading axis) of the euclidean norm of their difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ensembles differ in shape: {a.shape} vs {b.shape}")
    return sum(l2_norm(diff) for diff in a - b)


def max_over_time(d) -> float:
    """Maximum of a non-empty sequence of per-step values."""
    seq = list(d)
    if not seq:
        raise ValueError("empty sequence has no maximum")
    return max(seq)


def volume_integral(x, cell_volume: float = 1.0) -> float:
    """Integral over the domain: the sum of all entries times cell_volume."""
    return float(np.asarray(x, dtype=np.float64).sum() * cell_volume)


def volume_inner(a, b, cell_volume: float = 1.0) -> float:
    """Domain inner product: the sum of products times cell_volume."""
    av = np.asarray(a, dtype=np.float64).reshape(-1)
    bv = np.asarray(b, dtype=np.float64).reshape(-1)
    return float(np.dot(av, bv) * cell_volume)


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
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        nx, ny, nz = int(header[0]), int(header[1]), int(header[2])
        h, t = float(header[3]), float(header[4])
        spec = GridSpec(nx, ny, nz, h)
        raw = fh.read(spec.size * 8)
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(spec.shape)
    return data, spec, t
