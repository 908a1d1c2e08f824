import numpy as np
import pytest

from supermodeling.dynamics import LogisticParams, LogisticSystem
from supermodeling.fields import GridSpec
from supermodeling.groundtruth import (
    GroundTruth,
    error_metrics,
    generate_gt,
    gt_at,
    gt_volume_at,
    gt_volumes_at,
    load_gt,
    save_gt,
)
from supermodeling.tumor import TumorParams, TumorSystem, gaussian_bump_state


@pytest.fixture
def toy_gt():
    return generate_gt(LogisticSystem(), LogisticParams(r=1.0, cap=2.0),
                       initial_state=0.5, dt=0.1, steps=10, keep_every=2)


class TestGenerate:
    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5, 0.1, steps=0)

    def test_minimal_run_has_both_endpoints(self):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5, 0.1,
                         steps=1, keep_every=1)
        assert gt.stored_indices == [0, 1]

    def test_dense_stride_stores_everything(self):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5, 0.1,
                         steps=5, keep_every=1)
        assert gt.stored_indices == [0, 1, 2, 3, 4, 5]

    def test_maximal_stride_stores_endpoints(self):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5, 0.1,
                         steps=5, keep_every=5)
        assert gt.stored_indices == [0, 5]

    def test_final_step_always_stored(self, toy_gt):
        assert toy_gt.final_index == 10
        assert 10 in toy_gt.snapshots

    def test_regeneration_is_bit_identical(self):
        spec = GridSpec(8, 8, 8, 1.0)
        params = TumorParams()
        system = TumorSystem(spec)
        initial = gaussian_bump_state(spec, params, core_oxygen=1.0)
        a = generate_gt(system, params, initial, 0.1, steps=6, keep_every=2)
        b = generate_gt(system, params, initial, 0.1, steps=6, keep_every=2)
        for n in a.stored_indices:
            assert np.array_equal(a.snapshots[n], b.snapshots[n])

    def test_tumor_gt_volume_strictly_increasing(self):
        # the untreated model only ever grows
        spec = GridSpec(16, 16, 16, 1.0)
        params = TumorParams()
        from supermodeling.tumor import vessel_free_mask

        system = TumorSystem(spec, oxygen_source_mask=vessel_free_mask(spec, 0.3))
        initial = gaussian_bump_state(spec, params, core_oxygen=1.0)
        gt = generate_gt(system, params, initial, 0.1, steps=60, keep_every=1)
        totals = [gt.volumes[n].total for n in gt.stored_indices]
        assert all(b > a for a, b in zip(totals, totals[1:]))


class TestLookup:
    def test_stored_index_exact(self, toy_gt):
        assert gt_at(toy_gt, 4) == toy_gt.snapshots[4]

    def test_midpoint_interpolation(self, toy_gt):
        expected = 0.5 * (toy_gt.snapshots[4] + toy_gt.snapshots[6])
        assert gt_at(toy_gt, 5) == pytest.approx(expected, rel=1e-15)

    def test_no_extrapolation(self, toy_gt):
        with pytest.raises(ValueError):
            gt_at(toy_gt, 11)
        with pytest.raises(ValueError):
            gt_at(toy_gt, -1)

    def test_interpolation_is_convex_pointwise(self):
        spec = GridSpec(6, 6, 6, 1.0)
        rng = np.random.default_rng(0)
        f0 = rng.uniform(0, 1, spec.shape)
        f2 = rng.uniform(0, 1, spec.shape)
        gt = GroundTruth(snapshots={0: f0, 2: f2}, step_dt=0.1,
                         reference_params=None, spec=spec)
        mid = gt_at(gt, 1)
        lo = np.minimum(f0, f2)
        hi = np.maximum(f0, f2)
        assert np.all(mid >= lo - 1e-15)
        assert np.all(mid <= hi + 1e-15)

    def test_volume_interpolation(self):
        from supermodeling.tumor import VolumeTriple

        gt = GroundTruth(
            snapshots={0: 1.0, 2: 3.0}, step_dt=0.1, reference_params=None,
            volumes={0: VolumeTriple(1.0, 0.5, 0.5), 2: VolumeTriple(3.0, 2.5, 0.5)},
        )
        v = gt_volumes_at(gt, 1)
        assert v.total == pytest.approx(2.0)
        assert v.proliferating == pytest.approx(1.5)
        assert gt_volume_at(gt, 1) == pytest.approx(2.0)


class TestErrorMetrics:
    def test_exact_trajectory_gives_zeros(self, toy_gt):
        traj = [gt_at(toy_gt, n) for n in range(11)]
        l2, voldiff = error_metrics(toy_gt, traj)
        assert np.all(l2 == 0.0)
        assert np.all(voldiff == 0.0)

    def test_constant_offset_field(self):
        spec = GridSpec(4, 4, 4, 0.25)  # unit total volume
        base = np.full(spec.shape, 1.0)
        gt = GroundTruth(snapshots={0: base, 1: base}, step_dt=0.1,
                         reference_params=None, spec=spec)
        delta = 0.3
        traj = [np.full(spec.shape, 1.0 + delta)] * 2
        l2, voldiff = error_metrics(gt, traj)
        assert np.allclose(voldiff, -delta)  # reference minus run
        assert np.allclose(l2, delta)  # |delta| over a unit-volume domain

    def test_sign_changes_countable(self):
        from supermodeling.experiments import count_sign_changes

        gt = GroundTruth(snapshots={0: 0.0, 4: 0.0}, step_dt=0.1,
                         reference_params=None)
        traj = [0.1, -0.2, 0.3, -0.4, 0.5]
        _l2, voldiff = error_metrics(gt, traj)
        assert count_sign_changes(voldiff) == 4


class TestArchive:
    def test_roundtrip(self, tmp_path):
        spec = GridSpec(8, 8, 8, 1.0)
        params = TumorParams()
        system = TumorSystem(spec)
        initial = gaussian_bump_state(spec, params, core_oxygen=1.0)
        gt = generate_gt(system, params, initial, 0.1, steps=6, keep_every=3)
        save_gt(gt, tmp_path / "gt")
        loaded = load_gt(tmp_path / "gt")
        assert loaded.stored_indices == gt.stored_indices
        assert loaded.step_dt == gt.step_dt
        assert loaded.reference_params == params
        assert loaded.spec == gt.spec == spec
        for n in gt.stored_indices:
            assert np.array_equal(loaded.snapshots[n], gt.snapshots[n])
            assert loaded.volumes[n] == pytest.approx(tuple(gt.volumes[n]))

    def test_scalar_gt_not_archivable(self, tmp_path, toy_gt):
        with pytest.raises(TypeError):
            save_gt(toy_gt, tmp_path / "gt")
