"""The buffer-reusing tendency kernel against the plain numpy formula."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermodeling.experiments import ExperimentConfig, instantiate_submodels
from supermodeling.fields import GridSpec
from supermodeling.tumor import (
    FIELD_NAMES,
    TumorParams,
    TumorSystem,
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


def random_state(spec, rng):
    # b straddles the pressure gate [b_norm, b_M] and o both oxygen thresholds
    highs = (2.4, 1.0, 60.0, 1.0, 1.0)
    return np.stack([rng.uniform(0.0, hi, spec.shape) for hi in highs])


@settings(max_examples=60, deadline=None)
@given(
    cells=st.tuples(*(st.integers(3, 9) for _ in range(3))),
    h=st.sampled_from([1.0, 0.5, 0.7]),  # 0.7: x / h and x * (1 / h) often differ
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
    planes=st.integers(1, 9),  # z-planes per slab; nz or more is one slab
)
@example(cells=(4, 5, 7), h=0.7, seed=1, masked=True, planes=3)  # slabs of 3, 3 and 1
@example(cells=(5, 3, 6), h=0.5, seed=2, masked=False, planes=1)  # one plane per slab
@example(cells=(3, 4, 9), h=1.0, seed=3, masked=True, planes=4)  # 4, 4 and 1
def test_kernel_matches_numpy_formula(cells, h, seed, masked, planes):
    spec = GridSpec(*cells, h=h)
    rng = np.random.default_rng(seed)
    # one V2 draw: sensitive parameters +-40%, all other rates +-30%
    params = instantiate_submodels(TumorParams(), ExperimentConfig(variant="V2", n_submodels=1),
                                   seed=seed)[0]
    mask = (rng.random(spec.shape) < 0.5).astype(np.float64) if masked else None
    first, second = random_state(spec, rng), random_state(spec, rng)

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
