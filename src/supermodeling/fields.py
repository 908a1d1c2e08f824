"""Regular-grid scalar fields, norms, and ensemble distances.

Fields live on a uniform 3-D grid; arrays are stored C-ordered with shape
(nz, ny, nx) so the flat layout runs x fastest.  Norms carry the cell-volume
factor h^3, which keeps values comparable across grid refinements.

ScalarField arithmetic returns new fields, but a field may be a view into an
array that is updated in place (a ModelState's fields view its one array,
and the ensemble engine advances its member array in place), so copy a
field to keep it; none of this is thread-safe.
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


@dataclass(frozen=True)
class ScalarField:
    """One scalar quantity sampled on a GridSpec.

    ``data`` has shape ``spec.shape``; do not mutate it after the field has
    been passed along, arithmetic below always allocates fresh arrays.
    """

    spec: GridSpec
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != self.spec.shape:
            raise ValueError(
                f"field data shape {self.data.shape} does not match grid {self.spec.shape}"
            )
        if self.data.dtype != np.float64:
            object.__setattr__(self, "data", self.data.astype(np.float64))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls(spec, np.zeros(spec.shape))

    @classmethod
    def full(cls, spec: GridSpec, value: float) -> "ScalarField":
        return cls(spec, np.full(spec.shape, float(value)))

    @classmethod
    def from_values(cls, spec: GridSpec, values) -> "ScalarField":
        """Build from a flat array of length nx*ny*nz (x fastest)."""
        flat = np.asarray(values, dtype=np.float64)
        if flat.size != spec.size:
            raise ValueError(f"expected {spec.size} values, got {flat.size}")
        return cls(spec, flat.reshape(spec.shape).copy())

    @property
    def values(self) -> np.ndarray:
        """Flat view of the data, x fastest."""
        return self.data.reshape(-1)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)

    # -- arithmetic (returns new fields) --------------------------------

    def _check_compat(self, other: "ScalarField"):
        if other.spec != self.spec:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_compat(other)
        return ScalarField(self.spec, self.data + other.data)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_compat(other)
        return ScalarField(self.spec, self.data - other.data)

    def __mul__(self, factor: float) -> "ScalarField":
        return ScalarField(self.spec, self.data * float(factor))

    __rmul__ = __mul__


def l2_norm(f: ScalarField) -> float:
    """Discrete L2 norm sqrt(sum f^2 * h^3), volume-weighted."""
    flat = f.values
    sumsq = float(np.dot(flat, flat))
    if not np.isfinite(sumsq):
        raise BlowUpError("non-finite values in field norm")
    return float(np.sqrt(sumsq * f.spec.cell_volume))


def state_norm(x) -> float:
    """Norm of a generic state: fields get l2_norm, numbers and arrays the
    euclidean norm (abs for a number)."""
    if isinstance(x, ScalarField):
        return l2_norm(x)
    arr = np.asarray(x, dtype=np.float64)
    sumsq = float(np.dot(arr.reshape(-1), arr.reshape(-1)))
    if not np.isfinite(sumsq):
        raise BlowUpError("non-finite values in state norm")
    return float(np.sqrt(sumsq))


def taxi_ensemble_distance(a, b) -> float:
    """Sum over members (the leading axis) of the euclidean norm of their difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ensembles differ in shape: {a.shape} vs {b.shape}")
    return sum(state_norm(diff) for diff in a - b)


def max_over_time(d) -> float:
    """Maximum of a non-empty sequence of per-step values."""
    seq = list(d)
    if not seq:
        raise ValueError("empty sequence has no maximum")
    return max(seq)


def volume_integral(x) -> float:
    """Integral of a state over the domain: h^3 * sum for fields.

    Scalars integrate to themselves (implicit unit domain), so the same
    metric works for toy systems.
    """
    if isinstance(x, ScalarField):
        return float(x.data.sum() * x.spec.cell_volume)
    return float(np.asarray(x, dtype=np.float64).sum())


def volume_inner(a, b) -> float:
    """Domain inner product of two states: h^3-weighted sum of products."""
    if isinstance(a, ScalarField):
        if not isinstance(b, ScalarField):
            raise TypeError("cannot mix field and scalar states")
        a._check_compat(b)
        return float(np.dot(a.values, b.values) * a.spec.cell_volume)
    av = np.asarray(a, dtype=np.float64).reshape(-1)
    bv = np.asarray(b, dtype=np.float64).reshape(-1)
    return float(np.dot(av, bv))


# -- binary snapshot format ------------------------------------------------
# One ASCII header line "nx ny nz h t", then raw little-endian float64 data
# in x-fastest order.


def write_field(path, f: ScalarField, t: float = 0.0):
    spec = f.spec
    header = f"{spec.nx} {spec.ny} {spec.nz} {spec.h!r} {float(t)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def read_field(path) -> tuple[ScalarField, float]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        nx, ny, nz = int(header[0]), int(header[1]), int(header[2])
        h, t = float(header[3]), float(header[4])
        spec = GridSpec(nx, ny, nz, h)
        raw = fh.read(spec.size * 8)
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(spec.shape)
    return ScalarField(spec, data), t
