"""Synthetic reference trajectories and error metrics against them.

A GroundTruth holds observed snapshots of the coupled variable, their
steps and grid and, optionally, volume records, but not the parameters that
made them, so real observations fit it as well as a synthetic run does.
``generate_gt`` makes one by running the free model (no coupling, no
nudging) with a chosen reference parametrization, keeping snapshots of the
coupled variable only; real observations would likewise see just the tumor
density.  Snapshots may be sparse in time, and lookups between stored steps
are filled by linear interpolation, which is deliberately the simplest
augmentation that cannot hallucinate structure.

A snapshot is a plain float64 array (a number for the toy systems).  The
reference records the generating system's GridSpec, or None for the toy
systems; the archive writes it, and ``cell_volume`` supplies the h^3 weight
of its error metrics.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DynamicalSystem, explicit_step
from .fields import GridSpec, l2_norm, read_field, volume_integral, write_field
from .tumor import VolumeTriple


@dataclass
class GroundTruth:
    """Time-indexed reference snapshots of the coupled variable: the
    snapshots by step, the time step ``step_dt``, the volume records at the
    same steps (or None) and the grid (None for the toy systems).  It holds
    what was observed, not the parameters that made it."""

    snapshots: dict[int, object]
    step_dt: float
    volumes: dict[int, VolumeTriple] | None = None
    spec: GridSpec | None = None

    def __post_init__(self):
        indices = sorted(self.snapshots)
        if not indices or indices[0] != 0:
            raise ValueError("ground truth must include step 0")
        if self.volumes is not None and sorted(self.volumes) != indices:
            raise ValueError("volume records must be stored at the snapshots' steps")
        self._indices = indices

    @property
    def stored_indices(self) -> list[int]:
        return list(self._indices)

    @property
    def final_index(self) -> int:
        return self._indices[-1]

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume if self.spec is not None else 1.0


def generate_gt(
    system: DynamicalSystem,
    reference_params,
    initial_state,
    dt: float,
    steps: int,
    keep_every: int = 1,
) -> GroundTruth:
    """Free-run the reference model and record sparse snapshots.

    Stores the coupled variable (the first) at step 0, every
    ``keep_every``-th step, and the final step.  If the system reports
    volume metrics they are recorded alongside each stored snapshot.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if keep_every < 1:
        raise ValueError("keep_every must be a positive integer")
    has_volumes = hasattr(system, "volumes")

    snapshots = {}
    volumes = {} if has_volumes else None

    def record(n, state):
        snapshots[n] = state[0].copy()
        if has_volumes:
            volumes[n] = system.volumes(state)

    state = np.array(initial_state, dtype=np.float64, ndmin=1)
    record(0, state)
    for n in range(1, steps + 1):
        explicit_step(system, state, reference_params, dt)
        if n % keep_every == 0 or n == steps:
            record(n, state)
    return GroundTruth(snapshots=snapshots, step_dt=dt, volumes=volumes, spec=system.spec)


def _interpolate(gt: GroundTruth, records: dict, n: int):
    """``records[n]``, or the linear interpolation of the records at the
    stored steps lo < n < hi around an unstored step n."""
    if n in records:
        return records[n]
    indices = gt._indices
    if n < 0 or n > indices[-1]:
        raise ValueError(f"step {n} outside stored range [0, {indices[-1]}]")
    pos = bisect.bisect_left(indices, n)
    lo, hi = indices[pos - 1], indices[pos]
    w = (n - lo) / (hi - lo)
    return np.asarray(records[lo]) * (1.0 - w) + np.asarray(records[hi]) * w


def gt_at(gt: GroundTruth, n: int):
    """Snapshot at step n, linearly interpolated when not stored.

    No extrapolation: n must lie within [0, final stored index].
    """
    return _interpolate(gt, gt.snapshots, n)


def gt_volumes_at(gt: GroundTruth, n: int) -> VolumeTriple:
    """Recorded volume triple at step n, linearly interpolated when absent."""
    if gt.volumes is None:
        raise ValueError("this ground truth carries no volume records")
    return VolumeTriple(*_interpolate(gt, gt.volumes, n))


def step_error(ref, state, cell_volume: float) -> tuple[float, float]:
    """L2 error and signed volume difference (``ref`` minus ``state``) of a
    coupled-variable state against the reference value at its step, both
    weighted by ``cell_volume``."""
    return (l2_norm(ref - state, cell_volume),
            volume_integral(ref, cell_volume) - volume_integral(state, cell_volume))


# -- on-disk archive ----------------------------------------------------------


def save_gt(gt: GroundTruth, directory):
    """Write a ground-truth archive: manifest.json plus one field file per snapshot."""
    spec = gt.spec
    if spec is None:
        raise TypeError("only field-valued ground truths can be archived")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "step_dt": gt.step_dt,
        "grid": {"nx": spec.nx, "ny": spec.ny, "nz": spec.nz, "h": spec.h},
        "stored_indices": gt.stored_indices,
        "volumes": (
            {str(n): list(v) for n, v in gt.volumes.items()}
            if gt.volumes is not None else None
        ),
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for n in gt.stored_indices:
        write_field(directory / f"gt_{n:06d}.f64", gt.snapshots[n], spec, t=n * gt.step_dt)


def load_gt(directory) -> GroundTruth:
    """The ground truth ``save_gt`` wrote.  Keys of manifest.json that it
    does not read are ignored, so older archives, which also recorded the
    reference parameters, load too.  ValueError names the archive and what
    is wrong with it: a missing manifest.json or snapshot file, a manifest
    that is not JSON, a missing key, stored indices that are not distinct
    non-negative integers, a grid that ``GridSpec`` rejects or records that
    do not fit together, or the snapshot file and what is wrong with it (see
    ``read_field``): a grid other than the manifest's or a non-finite value."""
    directory = Path(directory)
    try:
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"reference archive {directory} has no manifest.json") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ones
        raise ValueError(f"reference archive {directory} has a manifest.json that is not "
                         f"JSON: {exc}") from exc
    missing = [key for key in ("grid", "step_dt", "stored_indices") if key not in manifest]
    if missing:
        raise ValueError(f"reference archive {directory} has no key "
                         f"{', '.join(map(repr, missing))} in manifest.json")
    try:
        spec = GridSpec(**manifest["grid"])
    except (TypeError, ValueError) as exc:  # a key missing or unknown, or a bad value
        raise ValueError(f"reference archive {directory} has a bad grid in manifest.json: "
                         f"{exc}") from None
    indices = manifest["stored_indices"]
    if not (isinstance(indices, list) and all(type(n) is int and n >= 0 for n in indices)
            and len(set(indices)) == len(indices)):
        raise ValueError(f"reference archive {directory} has stored_indices {indices!r} in "
                         "manifest.json, not a list of distinct non-negative integers")
    snapshots = {}
    for n in indices:
        path = directory / f"gt_{n:06d}.f64"
        try:
            snapshots[n], file_spec, _t = read_field(path)
        except FileNotFoundError:
            raise ValueError(f"reference archive {directory} has no snapshot {path.name}, "
                             f"which its manifest lists") from None
        if file_spec != spec:
            raise ValueError(f"snapshot {path} has grid {file_spec}, but the archive's "
                             f"manifest has {spec}")
        if not np.isfinite(snapshots[n]).all():
            raise ValueError(f"snapshot {path} holds a non-finite value")
    volumes = None
    if manifest.get("volumes") is not None:
        volumes = {int(n): VolumeTriple(*v) for n, v in manifest["volumes"].items()}
    try:
        return GroundTruth(snapshots=snapshots, step_dt=manifest["step_dt"], volumes=volumes,
                           spec=spec)
    except ValueError as exc:
        raise ValueError(f"reference archive {directory}: {exc}") from exc
