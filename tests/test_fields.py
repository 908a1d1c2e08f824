import math

import numpy as np
import pytest

from supermodeling.fields import (
    BlowUpError,
    GridSpec,
    l2_norm,
    max_over_time,
    read_field,
    taxi_ensemble_distance,
    volume_inner,
    volume_integral,
    write_field,
)


def random_field(spec, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=spec.shape)


def ensemble(members):
    """Member states (fields or numbers) stacked along a leading member axis."""
    return np.stack([np.asarray(m, dtype=float) for m in members])


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(2, 4, 4, 1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(4, 4, 4, 0.0)

    def test_shape_runs_x_fastest(self):
        spec = GridSpec(5, 4, 3, 1.0)
        data = np.zeros(spec.shape)
        data[0, 0, 1] = 7.0  # one step in x
        assert data.reshape(-1)[1] == 7.0


class TestL2Norm:
    def test_zero_field(self):
        assert l2_norm(np.zeros(GridSpec(4, 4, 4, 1.0).shape)) == 0.0

    def test_single_entry(self):
        spec = GridSpec(16, 16, 16, 1.0)
        data = np.zeros(spec.shape)
        data[3, 5, 7] = 3.0
        assert l2_norm(data, spec.cell_volume) == 3.0

    def test_uniform_field_hand_sum(self):
        # 64 cells of value 2, cell volume 0.125: sqrt(4 * 64 * 0.125)
        spec = GridSpec(4, 4, 4, 0.5)
        assert l2_norm(np.full(spec.shape, 2.0), spec.cell_volume) == pytest.approx(
            math.sqrt(32.0), rel=1e-14)

    def test_nonfinite_raises(self):
        spec = GridSpec(4, 4, 4, 1.0)
        data = np.zeros(spec.shape)
        data[0, 0, 0] = np.nan
        with pytest.raises(BlowUpError):
            l2_norm(data, spec.cell_volume)

    def test_overflowing_sum_raises_without_warning(self):
        # the sum of squares overflows to inf; pytest turns a RuntimeWarning into an error
        with pytest.raises(BlowUpError):
            l2_norm(np.full(8, 1e200))

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_axioms(self, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(6, 5, 4, 0.7)
        f = random_field(spec, rng)
        g = random_field(spec, rng)
        alpha = float(rng.uniform(-3, 3))
        vol = spec.cell_volume
        assert l2_norm(f * alpha, vol) == pytest.approx(abs(alpha) * l2_norm(f, vol), rel=1e-12)
        assert l2_norm(f + g, vol) <= l2_norm(f, vol) + l2_norm(g, vol) + 1e-12
        assert l2_norm(f, vol) > 0.0

    def test_zero_iff_zero(self):
        spec = GridSpec(4, 4, 4, 1.0)
        data = np.zeros(spec.shape)
        data[1, 1, 1] = 1e-150
        assert l2_norm(data, spec.cell_volume) > 0.0


class TestTaxiDistance:
    def test_identical_ensembles(self):
        spec = GridSpec(4, 4, 4, 1.0)
        rng = np.random.default_rng(0)
        a = ensemble([random_field(spec, rng) for _ in range(3)])
        assert taxi_ensemble_distance(a, a) == 0.0

    def test_scalar_members_hand_value(self):
        a = ensemble([1.0, 2.0])
        b = ensemble([0.0, 0.0])
        assert taxi_ensemble_distance(a, b) == 3.0

    def test_single_member_reduces_to_norm(self):
        spec = GridSpec(4, 4, 4, 1.0)
        rng = np.random.default_rng(1)
        f, g = random_field(spec, rng), random_field(spec, rng)
        assert taxi_ensemble_distance(ensemble([f]), ensemble([g])) == l2_norm(f - g)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            taxi_ensemble_distance(ensemble([1.0]), ensemble([1.0, 2.0]))

    def test_mismatched_grids_rejected(self):
        a = ensemble([np.zeros(GridSpec(4, 4, 4, 1.0).shape)])
        b = ensemble([np.zeros(GridSpec(5, 4, 4, 1.0).shape)])
        with pytest.raises(ValueError):
            taxi_ensemble_distance(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        spec = GridSpec(*(int(rng.integers(3, 9)) for _ in range(3)), h=0.5)
        ens = [
            ensemble([random_field(spec, rng) for _ in range(n)])
            for _ in range(3)
        ]
        a, b, c = ens
        assert taxi_ensemble_distance(a, b) == pytest.approx(taxi_ensemble_distance(b, a), rel=1e-14)
        assert taxi_ensemble_distance(a, c) <= (
            taxi_ensemble_distance(a, b) + taxi_ensemble_distance(b, c) + 1e-12
        )


class TestMaxOverTime:
    def test_singleton(self):
        assert max_over_time([0.0]) == 0.0

    def test_simple_max(self):
        assert max_over_time([1.0, 5.0, 3.0]) == 5.0

    def test_constant_sequence(self):
        assert max_over_time([2.5] * 7) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_over_time([])


class TestIntegrals:
    def test_volume_integral_field(self):
        spec = GridSpec(4, 4, 4, 0.25)
        assert volume_integral(np.full(spec.shape, 1.0), spec.cell_volume) == pytest.approx(1.0)

    def test_volume_integral_scalar(self):
        assert volume_integral(2.5) == 2.5

    def test_volume_inner_matches_manual(self):
        spec = GridSpec(4, 4, 4, 0.5)
        rng = np.random.default_rng(3)
        a, b = random_field(spec, rng), random_field(spec, rng)
        manual = float((a * b).sum()) * 0.125
        assert volume_inner(a, b, spec.cell_volume) == pytest.approx(manual, rel=1e-14)

    def test_volume_inner_scalars(self):
        assert volume_inner(0.5, 0.2) == pytest.approx(0.1)


class TestStateNorm:
    """With the default unit cell volume l2_norm is the euclidean norm of a toy state."""

    def test_scalar(self):
        assert l2_norm(-4.0) == 4.0

    def test_vector(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        spec = GridSpec(5, 4, 3, 0.3)
        rng = np.random.default_rng(4)
        f = random_field(spec, rng)
        path = tmp_path / "field.f64"
        write_field(path, f, spec, t=1.25)
        g, g_spec, t = read_field(path)
        assert t == 1.25
        assert g_spec == spec
        assert np.array_equal(g, f)

    def test_shape_must_match_grid(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "field.f64", np.zeros((3, 4, 5)), GridSpec(3, 4, 5, 1.0))
