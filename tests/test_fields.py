import math

import numpy as np
import pytest

from supermodeling.fields import (
    BlowUpError,
    GridSpec,
    ScalarField,
    l2_norm,
    max_over_time,
    read_field,
    state_norm,
    taxi_ensemble_distance,
    volume_inner,
    volume_integral,
    write_field,
)


def random_field(spec, rng, lo=-1.0, hi=1.0):
    return ScalarField(spec, rng.uniform(lo, hi, size=spec.shape))


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
        f = ScalarField.zeros(spec)
        data = f.data.copy()
        data[0, 0, 1] = 7.0  # one step in x
        assert ScalarField(spec, data).values[1] == 7.0


class TestL2Norm:
    def test_zero_field(self):
        assert l2_norm(ScalarField.zeros(GridSpec(4, 4, 4, 1.0))) == 0.0

    def test_single_entry(self):
        spec = GridSpec(16, 16, 16, 1.0)
        data = np.zeros(spec.shape)
        data[3, 5, 7] = 3.0
        assert l2_norm(ScalarField(spec, data)) == 3.0

    def test_uniform_field_hand_sum(self):
        # 64 cells of value 2, cell volume 0.125: sqrt(4 * 64 * 0.125)
        spec = GridSpec(4, 4, 4, 0.5)
        assert l2_norm(ScalarField.full(spec, 2.0)) == pytest.approx(math.sqrt(32.0), rel=1e-14)

    def test_nonfinite_raises(self):
        spec = GridSpec(4, 4, 4, 1.0)
        data = np.zeros(spec.shape)
        data[0, 0, 0] = np.nan
        with pytest.raises(BlowUpError):
            l2_norm(ScalarField(spec, data))

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_axioms(self, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(6, 5, 4, 0.7)
        f = random_field(spec, rng)
        g = random_field(spec, rng)
        alpha = float(rng.uniform(-3, 3))
        assert l2_norm(f * alpha) == pytest.approx(abs(alpha) * l2_norm(f), rel=1e-12)
        assert l2_norm(f + g) <= l2_norm(f) + l2_norm(g) + 1e-12
        assert l2_norm(f) > 0.0

    def test_zero_iff_zero(self):
        spec = GridSpec(4, 4, 4, 1.0)
        data = np.zeros(spec.shape)
        data[1, 1, 1] = 1e-150
        assert l2_norm(ScalarField(spec, data)) > 0.0


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
        a = ensemble([ScalarField.zeros(GridSpec(4, 4, 4, 1.0))])
        b = ensemble([ScalarField.zeros(GridSpec(5, 4, 4, 1.0))])
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


class TestArithmetic:
    def test_integer_arithmetic_is_exact(self):
        spec = GridSpec(4, 4, 4, 1.0)
        rng = np.random.default_rng(2)
        a = ScalarField(spec, rng.integers(-50, 50, size=spec.shape).astype(float))
        b = ScalarField(spec, rng.integers(-50, 50, size=spec.shape).astype(float))
        assert np.array_equal((a + b).data, a.data + b.data)
        assert np.array_equal((a - b).data, a.data - b.data)
        assert np.array_equal((a * 3.0).data, a.data * 3.0)
        assert np.array_equal((a + b - b).data, a.data)

    def test_grid_mismatch_rejected(self):
        a = ScalarField.zeros(GridSpec(4, 4, 4, 1.0))
        b = ScalarField.zeros(GridSpec(4, 4, 4, 0.5))
        with pytest.raises(ValueError):
            _ = a + b

    def test_from_values_roundtrip(self):
        spec = GridSpec(3, 4, 5, 1.0)
        values = np.arange(spec.size, dtype=float)
        f = ScalarField.from_values(spec, values)
        assert np.array_equal(f.values, values)


class TestIntegrals:
    def test_volume_integral_field(self):
        spec = GridSpec(4, 4, 4, 0.25)
        assert volume_integral(ScalarField.full(spec, 1.0)) == pytest.approx(1.0)

    def test_volume_integral_scalar(self):
        assert volume_integral(2.5) == 2.5

    def test_volume_inner_matches_manual(self):
        spec = GridSpec(4, 4, 4, 0.5)
        rng = np.random.default_rng(3)
        a, b = random_field(spec, rng), random_field(spec, rng)
        manual = float((a.data * b.data).sum()) * 0.125
        assert volume_inner(a, b) == pytest.approx(manual, rel=1e-14)

    def test_volume_inner_scalars(self):
        assert volume_inner(0.5, 0.2) == pytest.approx(0.1)


class TestStateNorm:
    def test_scalar(self):
        assert state_norm(-4.0) == 4.0

    def test_vector(self):
        assert state_norm(np.array([3.0, 4.0])) == 5.0

    def test_field_delegates(self):
        spec = GridSpec(4, 4, 4, 0.5)
        f = ScalarField.full(spec, 2.0)
        assert state_norm(f) == l2_norm(f)


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        spec = GridSpec(5, 4, 3, 0.3)
        rng = np.random.default_rng(4)
        f = random_field(spec, rng)
        path = tmp_path / "field.f64"
        write_field(path, f, t=1.25)
        g, t = read_field(path)
        assert t == 1.25
        assert g.spec == spec
        assert np.array_equal(g.data, f.data)
