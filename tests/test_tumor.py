import math

import numpy as np
import pytest

from supermodeling.dynamics import explicit_step
from supermodeling.fields import BlowUpError, GridSpec, l2_norm
from supermodeling.tumor import (
    FIELD_NAMES,
    TumorParams,
    TumorSystem,
    _laplacian,
    compute_flux,
    gaussian_bump_state,
    tumor_tendency,
    tumor_volumes,
    vessel_free_mask,
)


B, C, O, M, A = range(len(FIELD_NAMES))  # field indices of a state array


def uniform_state(spec, b=0.0, c=0.0, o=60.0, M=0.0, A=0.0):
    return np.stack([np.full(spec.shape, float(v)) for v in (b, c, o, M, A)])


def euler_step(spec, state, params, dt):
    """One forward-Euler step of the full model through dynamics.explicit_step,
    on a copy of ``state``."""
    stepped = np.array(state)
    explicit_step(TumorSystem(spec), stepped, params, dt)
    return stepped


@pytest.fixture
def spec():
    return GridSpec(8, 8, 8, 1.0)


@pytest.fixture
def params():
    return TumorParams()


class TestParams:
    def test_defaults_are_valid(self):
        TumorParams()

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            TumorParams(o_death=11.0, o_prol=10.0)

    def test_density_ordering_enforced(self):
        with pytest.raises(ValueError):
            TumorParams(b_norm=3.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TumorParams(gamma_o=-0.1)


class TestFlux:
    def test_uniform_fields_no_flux(self, spec, params):
        s = uniform_state(spec, b=1.5, A=0.7)
        flux = compute_flux(s, params, spec.h)
        for comp in flux:
            assert np.all(comp == 0.0)

    def test_gate_off_below_normal_density(self, spec, params):
        rng = np.random.default_rng(0)
        # spatially varying but everywhere below b_norm, uniform attractant
        b = 0.5 + 0.3 * rng.random(spec.shape)
        s = uniform_state(spec, A=0.2)
        s[B] = b
        flux = compute_flux(s, params, spec.h)
        for comp in flux:
            assert np.all(comp == 0.0)

    def test_linear_profile_analytic_flux(self, params):
        # b rises linearly from b_norm to b_M across x on a unit interval:
        # the normalized gradient is exactly 1, so Jx = -d_b * b
        spec = GridSpec(10, 4, 4, 0.1)
        _zz, _yy, xx = spec.cell_centers()
        b = params.b_norm + (xx - 0.05) / 0.9 * (params.b_M - params.b_norm)
        s = uniform_state(spec)
        s[B] = b
        jx, jy, jz = compute_flux(s, params, spec.h)
        expected = -params.d_b * b / 0.9
        assert np.allclose(jx, expected, rtol=1e-12)
        assert np.allclose(jy, 0.0)
        assert np.allclose(jz, 0.0)


class TestTendency:
    def test_proliferation_hand_value(self, spec, params):
        s = uniform_state(spec, b=1.0, o=60.0, M=1.0)
        tend = tumor_tendency(s, params, spec.h)
        assert np.allclose(tend[B], 0.05, rtol=1e-14)

    def test_matrix_decay_hand_value(self, spec, params):
        s = uniform_state(spec, b=1.0, o=60.0, M=1.0)
        tend = tumor_tendency(s, params, spec.h)
        assert np.allclose(tend[M], -0.0625, rtol=1e-14)

    def test_oxygen_hand_value(self, spec, params):
        s = uniform_state(spec, b=1.0, o=60.0, M=1.0)
        tend = tumor_tendency(s, params, spec.h)
        assert np.allclose(tend[O], -0.6, rtol=1e-14)

    def test_attractant_production_hand_value(self, spec, params):
        s = uniform_state(spec, b=1.0, o=60.0, M=1.0)
        tend = tumor_tendency(s, params, spec.h)
        assert np.allclose(tend[A], 0.032, rtol=1e-14)

    def test_empty_tumor_structure(self, spec, params):
        s = uniform_state(spec, b=0.0, o=30.0, M=1.0, A=0.5)
        tend = tumor_tendency(s, params, spec.h)
        assert np.all(tend[B] == 0.0)
        assert np.all(tend[M] == 0.0)
        # only decay acts on a uniform attractant field
        assert np.allclose(tend[A], -params.gamma_oA * 0.5, rtol=1e-14)

    def test_hypoxic_switches(self, spec, params):
        s = uniform_state(spec, b=1.0, c=0.0, o=1.0, M=1.0)  # o below o_death
        tend = tumor_tendency(s, params, spec.h)
        assert np.allclose(tend[B], -1.0 / params.T_death, rtol=1e-14)
        assert np.allclose(tend[C], 1.0 * (1.0 - 0.0), rtol=1e-14)

    def test_source_mask_limits_delivery(self, spec, params):
        mask = np.zeros(spec.shape)
        mask[:, :, :4] = 1.0
        s = uniform_state(spec, o=30.0)
        tend = tumor_tendency(s, params, spec.h, oxygen_source_mask=mask)
        delivered = params.delta_o * (params.o_max - 30.0)
        assert np.allclose(tend[O][:, :, :4], delivered, rtol=1e-14)
        assert np.all(tend[O][:, :, 4:] == 0.0)


class TestStep:
    def test_equilibrium_state_unchanged(self, spec, params):
        s = uniform_state(spec, b=0.0, c=0.0, o=params.o_max, M=0.0, A=0.0)
        stepped = euler_step(spec, s, params, 0.1)
        for name, got, want in zip(FIELD_NAMES, stepped, s):
            assert np.array_equal(got, want), name

    def test_dt_must_be_positive(self, spec, params):
        with pytest.raises(ValueError):
            euler_step(spec, uniform_state(spec), params, 0.0)

    def test_blowup_names_field(self, spec):
        # absurd dt makes the oxygen relaxation explode first
        params = TumorParams(delta_o=0.4)
        s = uniform_state(spec, b=1.0, o=0.1, M=1.0)
        state = s
        with pytest.raises(BlowUpError) as err:
            for _ in range(60):
                state = euler_step(spec, state, params, 1e4)
        assert "'" in str(err.value)

    def test_single_step_golden(self):
        # frozen one-step regression from the reference initial condition
        spec = GridSpec(16, 16, 16, 1.0)
        params = TumorParams()
        state = gaussian_bump_state(spec, params, core_oxygen=1.0)
        stepped = euler_step(spec, state, params, 0.1)
        assert np.isfinite(stepped).all()
        assert stepped[B].min() >= -1e-9
        assert stepped[B].max() <= params.b_M + 1e-9
        checks = {name: float(f.sum()) for name, f in zip(FIELD_NAMES, stepped)}
        for name, expected in GOLDEN_STEP_SUMS.items():
            assert checks[name] == pytest.approx(expected, rel=1e-12), name

    def test_richardson_halved_step(self, params):
        # two half steps vs one full step differ at second order in dt; needs
        # a state where no indicator threshold is crossed mid-step (the
        # switches themselves are not smooth)
        spec = GridSpec(12, 12, 12, 1.0)
        state = gaussian_bump_state(spec, params)
        # move off the initial condition so all terms are active
        for _ in range(3):
            state = euler_step(spec, state, params, 0.1)

        def gap(dt):
            one = euler_step(spec, state, params, dt)
            half = euler_step(spec, euler_step(spec, state, params, dt / 2), params, dt / 2)
            return l2_norm(one[B] - half[B], spec.cell_volume)

        ratio = gap(0.2) / gap(0.1)
        assert 3.0 < ratio < 5.0


class TestConservationAndBoundaries:
    def test_mass_conserved_without_reactions(self, spec):
        # no diffusion and oxygen frozen between the thresholds, so neither
        # the death nor the proliferation indicator ever fires
        params = TumorParams(d_b=0.0, delta_o=0.0, gamma_o=0.0)
        state = gaussian_bump_state(spec, params)
        state[O] = 5.0  # between o_death and o_prol
        b0 = state[B].copy()
        for _ in range(20):
            state = euler_step(spec, state, params, 0.1)
        assert np.array_equal(state[B], b0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the centred divergence of a "
                       "centred flux, one-sided at the walls, does not conserve b")
    def test_transport_conserves_b_with_diffusion(self):
        # oxygen frozen between the thresholds, so b moves by transport alone
        spec = GridSpec(16, 16, 16, 1.0)
        params = TumorParams(d_b=0.2, delta_o=0.0, gamma_o=0.0)
        state = gaussian_bump_state(spec, params, bump_width=0.3)
        state[O] = 5.0
        total = state[B].sum()
        for _ in range(100):
            state = euler_step(spec, state, params, 0.1)
        assert abs(state[B].sum() - total) < 1e-12 * total

    def test_uniform_state_stays_uniform(self, spec):
        params = TumorParams(
            gamma_o=0.0, delta_o=0.0, gamma_c=0.0, beta_M=0.0,
            gamma_A=0.0, gamma_oA=0.0,
        )
        state = uniform_state(spec, b=1.5, c=0.3, o=5.0, M=1.0, A=0.2)
        first = state
        for _ in range(10):
            state = euler_step(spec, state, params, 0.1)
        for name, got, want in zip(FIELD_NAMES, state, first):
            assert np.array_equal(got, want), name

    def test_laplacian_exact_on_quadratic(self):
        spec = GridSpec(9, 9, 9, 0.5)
        zz, yy, xx = spec.cell_centers()
        u = xx ** 2 + 2.0 * yy ** 2 + 3.0 * zz ** 2
        lap = _laplacian(u, spec.h)
        assert np.allclose(lap[1:-1, 1:-1, 1:-1], 12.0, rtol=1e-11)


class TestVolumes:
    def test_empty_tumor(self, spec, params):
        s = uniform_state(spec)
        v = tumor_volumes(s[B], s[O], params, spec.cell_volume)
        assert v == (0.0, 0.0, 0.0)

    def test_fully_oxygenated_unit_domain(self, params):
        spec = GridSpec(4, 4, 4, 0.25)  # 64 cells, unit total volume
        s = uniform_state(spec, b=1.0, o=60.0)
        v = tumor_volumes(s[B], s[O], params, spec.cell_volume)
        assert v.total == pytest.approx(1.0)
        assert v.proliferating == pytest.approx(1.0)
        assert v.quiescent == pytest.approx(0.0, abs=1e-15)

    def test_hypoxic_unit_domain(self, params):
        spec = GridSpec(4, 4, 4, 0.25)
        s = uniform_state(spec, b=1.0, o=1.0)
        v = tumor_volumes(s[B], s[O], params, spec.cell_volume)
        assert v.total == pytest.approx(1.0)
        assert v.proliferating == 0.0
        assert v.quiescent == pytest.approx(1.0)

    def test_partition_identity(self, spec, params):
        rng = np.random.default_rng(5)
        s = uniform_state(spec)
        s[B] = rng.uniform(0, 2, spec.shape)
        s[O] = rng.uniform(0, 60, spec.shape)
        v = tumor_volumes(s[B], s[O], params, spec.cell_volume)
        assert v.total == pytest.approx(v.proliferating + v.quiescent, rel=1e-14)


class TestInitialCondition:
    def test_bump_centered_and_bounded(self, params):
        spec = GridSpec(16, 16, 16, 1.0)
        s = gaussian_bump_state(spec, params)
        assert 0.0 < s[B].max() <= params.b_norm
        assert np.all(s[O] == params.o_max)
        assert np.all(s[M] == 1.0)
        assert np.all(s[C] == 0.0) and np.all(s[A] == 0.0)

    def test_hypoxic_core_profile(self, params):
        spec = GridSpec(16, 16, 16, 1.0)
        s = gaussian_bump_state(spec, params, core_oxygen=1.0)
        assert s[O].min() >= 1.0
        assert s[O].max() == pytest.approx(params.o_max)
        # the core must actually be hypoxic and the far field fully oxygenated
        assert s[O].min() < params.o_death
        center = tuple(n // 2 for n in spec.shape)
        assert s[O][center] < params.o_prol

    def test_vessel_free_mask_shape(self):
        spec = GridSpec(16, 16, 16, 1.0)
        mask = vessel_free_mask(spec, 0.3)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        center = tuple(n // 2 for n in spec.shape)
        assert mask[center] == 0.0
        assert mask[0, 0, 0] == 1.0


class TestDeterminism:
    def test_steps_bit_identical(self, spec, params):
        a = gaussian_bump_state(spec, params, core_oxygen=1.0)
        b = gaussian_bump_state(spec, params, core_oxygen=1.0)
        for _ in range(5):
            a = euler_step(spec, a, params, 0.1)
            b = euler_step(spec, b, params, 0.1)
        for name, got, want in zip(FIELD_NAMES, a, b):
            assert np.array_equal(got, want), name


# Field sums after one dt=0.1 step from the reference initial condition on
# 16^3; frozen to catch accidental changes to the stencils or reactions.
GOLDEN_STEP_SUMS = {
    "b": 177.57618451176535,
    "c": 0.742390066884764,
    "o": 206362.60679809388,
    "M": 4094.894698563854,
    "A": 0.5659143353067346,
}
