import numpy as np
import pytest

from supermodeling.dynamics import (
    LinearSystem,
    LogisticParams,
    LogisticSystem,
    explicit_step,
    logistic_tendency,
)
from supermodeling.fields import BlowUpError, GridSpec, l2_norm
from supermodeling.tumor import TumorParams, TumorSystem


class TestLogistic:
    def test_fixed_point_at_zero(self):
        assert logistic_tendency(0.0, LogisticParams(r=1.3, cap=2.0)) == 0.0

    def test_fixed_point_at_capacity(self):
        assert logistic_tendency(2.0, LogisticParams(r=1.3, cap=2.0)) == 0.0

    def test_hand_value(self):
        assert logistic_tendency(1.0, LogisticParams(r=1.0, cap=2.0)) == 0.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LogisticParams(r=1.0, cap=0.0)


class TestExplicitStep:
    def test_zero_tendency_keeps_state(self):
        state = np.array([1.7])
        assert explicit_step(LinearSystem(0.0), state, None, 0.1) is None
        assert state[0] == 1.7

    def test_logistic_hand_value(self):
        state = np.array([1.0])
        explicit_step(LogisticSystem(), state, LogisticParams(r=1.0, cap=2.0), 0.1)
        assert state[0] == pytest.approx(1.05, abs=1e-15)

    def test_zero_dt_rejected(self):
        # and every other dt that is not > 0, before the state is written
        state = np.array([1.0])
        for dt in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                explicit_step(LogisticSystem(), state, LogisticParams(1.0, 2.0), dt)
        assert state[0] == 1.0

    def test_a_number_is_not_a_state(self):
        with pytest.raises(ValueError, match="float64 arrays"):
            explicit_step(LinearSystem(0.0), 1.7, None, 0.1)

    def test_linear_in_dt(self):
        sys = LogisticSystem()
        p = LogisticParams(r=0.8, cap=3.0)
        b = np.array([1.3])
        want = b + 0.3 * sys.tendency(b, p)
        explicit_step(sys, b, p, 0.3)
        assert b[0] == want[0]

    def test_blowup_detected(self):
        class Exploding(LinearSystem):
            def tendency(self, state, params=None):
                return np.full(state.shape, np.inf)

        with pytest.raises(BlowUpError):
            explicit_step(Exploding(1.0), np.array([1.0]), None, 0.1)


def sampled_lipschitz(system, params, draw, noise, scale, samples, seed):
    """Largest ||S(B) - S(D)|| / ||B - D|| over ``samples`` random state
    pairs with ||B - D|| <= scale: a lower bound on the Lipschitz constant of
    the tendency S.  ``draw(rng)`` gives B and ``noise(rng)`` the direction
    from B to D.  Deterministic for a fixed seed."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        base = draw(rng)
        direction = noise(rng)
        separation = float(rng.uniform(0.1, 1.0)) * scale
        other = base + direction * (separation / l2_norm(direction, system.cell_volume))
        diff = system.tendency(base, params) - system.tendency(other, params)
        best = max(best, l2_norm(diff, system.cell_volume) / separation)
    return best


def scalar_lipschitz(system, params, low, high, scale, samples, seed):
    return sampled_lipschitz(
        system, params, lambda rng: float(rng.uniform(low, high)),
        lambda rng: float(rng.standard_normal()), scale, samples, seed)


class TestLipschitzEstimate:
    """The sampled Lipschitz ratio of the oracle systems, and of the tumor
    tendency against a value pinned before the estimator left the package."""

    @pytest.mark.parametrize("lam", [0.5, 2.0, -3.0])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_linear_system_exact(self, lam, seed):
        est = scalar_lipschitz(LinearSystem(lam), None, -1.0, 1.0, 0.02, samples=1, seed=seed)
        assert est == pytest.approx(abs(lam), abs=1e-6)

    def test_zero_system(self):
        assert scalar_lipschitz(LinearSystem(0.0), None, -1.0, 1.0, 0.02, samples=5, seed=1) == 0.0

    def test_deterministic_given_seed(self):
        sys = LogisticSystem()
        p = LogisticParams(r=1.2, cap=2.0)
        a = scalar_lipschitz(sys, p, 0.0, p.cap, 0.01 * p.cap, samples=20, seed=42)
        b = scalar_lipschitz(sys, p, 0.0, p.cap, 0.01 * p.cap, samples=20, seed=42)
        assert a == b

    def test_logistic_bounded_by_true_constant(self):
        # |S'(b)| = |r (1 - 2 b / cap)| <= r on [0, cap]; perturbed pairs can
        # poke at most one separation scale outside, hence the small headroom
        p = LogisticParams(r=1.5, cap=2.0)
        scale = 0.01 * p.cap
        est = scalar_lipschitz(LogisticSystem(), p, 0.0, p.cap, scale, samples=200, seed=3)
        assert 0.0 < est <= p.r * (1.0 + 2.0 * scale / p.cap) + 1e-9

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            scalar_lipschitz(LinearSystem(1.0), None, -1.0, 1.0, 0.02, samples=0, seed=0)

    def test_tumor_regression_baseline(self):
        # b, c, o, M and A uniform on [0, b_M], [0, 1], [0, o_max], [0, 1]
        # and [0, 1], drawn one field at a time; pairs 1e-2 of b's range apart
        spec = GridSpec(8, 8, 8, 1.0)
        system = TumorSystem(spec)
        p = TumorParams()

        def draw(rng):
            highs = (p.b_M, 1.0, p.o_max, 1.0, 1.0)
            return np.stack([rng.uniform(0.0, hi, size=spec.shape) for hi in highs])

        est = sampled_lipschitz(system, p, draw, lambda rng: rng.standard_normal((5,) + spec.shape),
                                0.01 * (p.b_M - p.b_m), samples=8, seed=2024)
        assert np.isfinite(est) and est > 0.0
        assert est == pytest.approx(PINNED_TUMOR_LIPSCHITZ, rel=1e-9)


# Generated once from the package's former sampling estimator, with the same
# draws; guards against silent changes in the tendency assembly.
PINNED_TUMOR_LIPSCHITZ = 0.39065601762894003
