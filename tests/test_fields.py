import math

import numpy as np
import pytest

from supermodeling.fields import (
    BlowUpError,
    GridSpec,
    l2_norm,
    read_field,
    volume_integral,
    write_field,
)


def random_field(spec, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=spec.shape)


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(2, 4, 4, 1.0)

    @pytest.mark.parametrize("nx", [4.0, 4.5, "4"])
    def test_rejects_cell_counts_that_are_not_integers(self, nx):
        with pytest.raises(ValueError, match="integers"):
            GridSpec(nx, 4, 4, 1.0)
        assert GridSpec(np.int64(4), 4, 4, 1.0) == GridSpec(4, 4, 4, 1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(4, 4, 4, 0.0)

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_rejects_spacing_that_is_not_finite(self, h):
        # an infinite h would give an infinite cell volume
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec(8, 8, 8, h)

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


class TestIntegrals:
    def test_volume_integral_field(self):
        spec = GridSpec(4, 4, 4, 0.25)
        assert volume_integral(np.full(spec.shape, 1.0), spec.cell_volume) == pytest.approx(1.0)

    def test_volume_integral_scalar(self):
        assert volume_integral(2.5) == 2.5


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

    @pytest.mark.parametrize("change", [-8, -1, 8])  # a value short, a byte short, one over
    def test_wrong_data_length_names_the_file_and_both_sizes(self, tmp_path, change):
        spec = GridSpec(5, 4, 3, 0.3)
        path = tmp_path / "field.f64"
        write_field(path, np.zeros(spec.shape), spec)
        raw = path.read_bytes()
        path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(ValueError) as info:
            read_field(path)
        expected = spec.size * 8
        message = str(info.value)
        assert str(path) in message
        assert str(expected) in message and str(expected + change) in message

    def test_infinite_spacing_in_the_header_names_the_file(self, tmp_path):
        spec = GridSpec(5, 4, 3, 0.3)
        path = tmp_path / "field.f64"
        write_field(path, np.zeros(spec.shape), spec)
        data = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(b"5 4 3 inf 0.0\n" + data)
        with pytest.raises(ValueError, match="finite and positive") as info:
            read_field(path)
        assert str(path) in str(info.value)

    def test_shape_must_match_grid(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "field.f64", np.zeros((3, 4, 5)), GridSpec(3, 4, 5, 1.0))
