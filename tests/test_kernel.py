"""The buffer-reusing tendency kernel against the plain numpy formula."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermodeling.experiments import ExperimentConfig, instantiate_submodels
from supermodeling.fields import GridSpec
from supermodeling.tumor import (
    FIELD_NAMES,
    TumorParams,
    TumorSystem,
    _scale,
    _Work,
    gaussian_bump_state,
    tumor_tendency,
)


def reference_tendency(state, p, h, oxygen_source_mask=None):
    """The tendency as np.pad / np.gradient expressions, one array per field."""
    b, c, o, M, A = state

    def gradient(data):
        gz, gy, gx = np.gradient(data, h)
        return gx, gy, gz

    def laplacian(data):
        p_ = np.pad(data, 1, mode="edge")
        return (
            p_[2:, 1:-1, 1:-1] + p_[:-2, 1:-1, 1:-1]
            + p_[1:-1, 2:, 1:-1] + p_[1:-1, :-2, 1:-1]
            + p_[1:-1, 1:-1, 2:] + p_[1:-1, 1:-1, :-2]
            - 6.0 * data
        ) / (h * h)

    hypoxic = (o < p.o_death).astype(np.float64)
    proliferative = (o > p.o_prol).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        normalized = (b - p.b_norm) / (p.b_M - p.b_norm)
        gate = ((b >= p.b_norm) & (b <= p.b_M)).astype(np.float64)
        nx_, ny_, nz_ = gradient(normalized)
        ax, ay, az = gradient(A)
        coeff = -p.d_b * b
        jx = coeff * (nx_ * gate + p.r_b * ax)
        jy = coeff * (ny_ * gate + p.r_b * ay)
        jz = coeff * (nz_ * gate + p.r_b * az)
        div = np.gradient(jx, h, axis=2) + np.gradient(jy, h, axis=1) + np.gradient(jz, h, axis=0)
        mitosis_boost = 1.0 + (p.tau_b * A / (p.tau_b * A + 1.0)) * p.P_b
        db = (
            -div
            - (b / p.T_death) * hypoxic
            + (b / p.T_prol) * mitosis_boost * (1.0 - b / p.b_M) * proliferative
        )
        dc = p.chi_c * laplacian(c) - p.gamma_c * o * c + b * (1.0 - c) * hypoxic
        delivery = p.delta_o * (p.o_max - o)
        if oxygen_source_mask is not None:
            delivery = delivery * oxygen_source_mask
        do = p.alpha_o * laplacian(o) - p.gamma_o * b * o + delivery
        dM = -p.beta_M * M * b
        dA = p.gamma_A * M * b + p.chi_aA * laplacian(A) - p.gamma_oA * A
    return [db, dc, do, dM, dA]


def random_state(spec, rng, b_M=2.0):
    # b straddles the pressure gate [b_norm, b_M] and o both oxygen thresholds
    highs = (1.2 * b_M, 1.0, 60.0, 1.0, 1.0)
    return np.stack([rng.uniform(0.0, hi, spec.shape) for hi in highs])


@settings(max_examples=60, deadline=None)
@given(
    cells=st.tuples(*(st.integers(3, 9) for _ in range(3))),
    # 0.7: x / h and x * (1 / h) often differ; the others are powers of two
    h=st.sampled_from([1.0, 0.5, 0.7, 0.25, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
    planes=st.integers(1, 9),  # z-planes per slab; nz or more is one slab
    # (b_norm, b_M): b_M - b_norm is 1 by default, 2 (a power of two) or 1.5
    levels=st.sampled_from([None, (1.0, 3.0), (0.5, 2.0)]),
)
@example(cells=(4, 5, 7), h=0.7, seed=1, masked=True, planes=3, levels=None)  # slabs 3, 3, 1
@example(cells=(5, 3, 6), h=0.5, seed=2, masked=False, planes=1, levels=None)  # one plane each
@example(cells=(3, 4, 9), h=1.0, seed=3, masked=True, planes=4, levels=None)  # 4, 4 and 1
@example(cells=(6, 4, 5), h=0.25, seed=4, masked=True, planes=2, levels=(1.0, 3.0))
@example(cells=(5, 6, 4), h=2.0, seed=5, masked=False, planes=3, levels=(0.5, 2.0))
def test_kernel_matches_numpy_formula(cells, h, seed, masked, planes, levels):
    spec = GridSpec(*cells, h=h)
    rng = np.random.default_rng(seed)
    # one V2 draw: sensitive parameters +-40%, all other rates +-30%
    params = instantiate_submodels(TumorParams(), ExperimentConfig(variant="V2", n_submodels=1),
                                   seed=seed)[0]
    if levels is not None:  # the V2 draw keeps the density levels
        params = dataclasses.replace(params, b_norm=levels[0], b_M=levels[1])
    mask = (rng.random(spec.shape) < 0.5).astype(np.float64) if masked else None
    first, second = random_state(spec, rng, params.b_M), random_state(spec, rng, params.b_M)

    system = TumorSystem(spec, oxygen_source_mask=mask)
    got_first = system.tendency(first, params)
    kept = got_first.copy()
    # the second call reuses the work arrays the first one allocated
    got_second = system.tendency(second, params)

    for got, state in ((got_first, first), (got_second, second)):
        expected = reference_tendency(state, params, h, mask)
        for name, field, want in zip(FIELD_NAMES, got, expected):
            assert np.array_equal(field, want, equal_nan=True), name
    assert np.array_equal(got_first, kept)
    # without a system the kernel runs on work arrays of its own
    assert np.array_equal(tumor_tendency(first, params, h, mask), kept)
    # slabs of any height give the same bits, written into a given array or not
    work = _Work(spec.shape, planes)
    out = np.full(first.shape, np.nan)
    assert tumor_tendency(first, params, h, mask, work, out) is out
    assert np.array_equal(out, kept)
    assert np.array_equal(tumor_tendency(second, params, h, mask, work), got_second)
    # a system writes into a given array what a fresh call returns
    out = np.full(first.shape, np.nan)
    assert system.tendency(first, params, out=out) is out
    assert np.array_equal(out, kept)


def test_tendency_calls_return_independent_arrays():
    spec = GridSpec(6, 5, 4, 1.0)
    params = TumorParams()
    system = TumorSystem(spec)
    state = gaussian_bump_state(spec, params, core_oxygen=1.0)
    first = system.tendency(state, params)
    kept = first.copy()
    second = system.tendency(state * 1.5, params)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, state)
    assert np.array_equal(first, kept)


# +-0, the smallest subnormal, a subnormal, the smallest normal, the largest
# finite value, infinities, NaN, and ordinary numbers, each with both signs
SPECIAL = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                    np.inf, np.nan, 1.0, 3.0, 0.1, 1.2345678901234567e-5, 6.02e23])
SPECIAL = np.concatenate([SPECIAL, -SPECIAL])


@pytest.mark.parametrize("divisor", [
    1.0, 2.0, 0.5, 2.0**-3, 2.0**10, 2.0**1022, 2.0**1023, 2.0**-1022, -2.0, -0.25,
    2.0**-1073, 2.0**-1074,  # powers of two whose reciprocal is not finite
    3.0, 0.7, 1.5, 0.2, -6.0, 1e-300, 1e300, 0.0, -0.0, np.inf, np.nan,
])
def test_scaling_is_division_bit_for_bit(divisor):
    with np.errstate(all="ignore"):
        want = np.divide(SPECIAL, divisor)
        got = _scale(SPECIAL, divisor, np.empty_like(SPECIAL))
        in_place = SPECIAL.copy()
        assert _scale(in_place, divisor, in_place) is in_place
    for result in (got, in_place):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(result), nan)
        assert np.array_equal(result[~nan].view(np.uint64), want[~nan].view(np.uint64))
