"""The compiled tendency kernel against the plain numpy formula."""

import dataclasses
import subprocess
import sysconfig
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from supermodeling import _kernel, tumor
from supermodeling.experiments import ExperimentConfig, instantiate_submodels
from supermodeling.dynamics import explicit_step
from supermodeling.engine import mismatch_inner, supermodel_output
from supermodeling.fields import BlowUpError, GridSpec
from supermodeling.tumor import (
    FIELD_NAMES,
    TumorParams,
    TumorSystem,
    _scaling,
    gaussian_bump_state,
    tumor_tendency,
)


def reference_gradient(data, h):
    """(d/dx, d/dy, d/dz) of a field: centred inside, one-sided at the walls."""
    gz, gy, gx = np.gradient(data, h)
    return gx, gy, gz


def reference_laplacian(data, h):
    """7-point Laplacian of a field with mirrored (edge-padded) walls."""
    p_ = np.pad(data, 1, mode="edge")
    return (
        p_[2:, 1:-1, 1:-1] + p_[:-2, 1:-1, 1:-1]
        + p_[1:-1, 2:, 1:-1] + p_[1:-1, :-2, 1:-1]
        + p_[1:-1, 1:-1, 2:] + p_[1:-1, 1:-1, :-2]
        - 6.0 * data
    ) / (h * h)


def reference_flux(state, p, h):
    """(Jx, Jy, Jz), the flux of a state."""
    b, A = state[0], state[4]
    normalized = (b - p.b_norm) / (p.b_M - p.b_norm)
    gate = ((b >= p.b_norm) & (b <= p.b_M)).astype(np.float64)
    nx_, ny_, nz_ = reference_gradient(normalized, h)
    ax, ay, az = reference_gradient(A, h)
    coeff = -p.d_b * b
    return (coeff * (nx_ * gate + p.r_b * ax), coeff * (ny_ * gate + p.r_b * ay),
            coeff * (nz_ * gate + p.r_b * az))


def reference_divergence(jx, jy, jz, h):
    """div J of a flux."""
    return np.gradient(jx, h, axis=2) + np.gradient(jy, h, axis=1) + np.gradient(jz, h, axis=0)


def reference_tendency(state, p, h, oxygen_source_mask=None):
    """The tendency as np.pad / np.gradient expressions, one array per field."""
    b, c, o, M, A = state
    hypoxic = (o < p.o_death).astype(np.float64)
    proliferative = (o > p.o_prol).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        div = reference_divergence(*reference_flux(state, p, h), h)
        mitosis_boost = 1.0 + (p.tau_b * A / (p.tau_b * A + 1.0)) * p.P_b
        db = (
            -div
            - (b / p.T_death) * hypoxic
            + (b / p.T_prol) * mitosis_boost * (1.0 - b / p.b_M) * proliferative
        )
        dc = p.chi_c * reference_laplacian(c, h) - p.gamma_c * o * c + b * (1.0 - c) * hypoxic
        delivery = p.delta_o * (p.o_max - o)
        if oxygen_source_mask is not None:
            delivery = delivery * oxygen_source_mask
        do = p.alpha_o * reference_laplacian(o, h) - p.gamma_o * b * o + delivery
        dM = -p.beta_M * M * b
        dA = p.gamma_A * M * b + p.chi_aA * reference_laplacian(A, h) - p.gamma_oA * A
    return [db, dc, do, dM, dA]


def same_bits(got, want):
    """The same values bit for bit, every NaN matched by a NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


@settings(max_examples=60, deadline=None)
@given(
    # non-cubic grids of 3 to 17 cells per axis: the compiled loops do two
    # cells at a time, and an odd count leaves a lone cell at the end of a row
    cells=st.tuples(*(st.integers(3, 17) for _ in range(3))),
    # 0.7: x / h and x * (1 / h) often differ; the others are powers of two
    h=st.sampled_from([1.0, 0.5, 0.7, 0.25, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
    # (b_norm, b_M): b_M - b_norm is 1 by default, 2 (a power of two) or 1.5
    levels=st.sampled_from([None, (1.0, 3.0), (0.5, 2.0)]),
)
@example(cells=(4, 5, 7), h=0.7, seed=1, masked=True, levels=None)
@example(cells=(5, 3, 6), h=0.5, seed=2, masked=False, levels=None)
@example(cells=(3, 4, 9), h=1.0, seed=3, masked=True, levels=None)
@example(cells=(6, 4, 5), h=0.25, seed=4, masked=True, levels=(1.0, 3.0))
@example(cells=(5, 6, 4), h=2.0, seed=5, masked=False, levels=(0.5, 2.0))
@example(cells=(3, 3, 3), h=1.0, seed=6, masked=True, levels=None)
@example(cells=(17, 16, 15), h=0.7, seed=7, masked=True, levels=None)
def test_kernel_matches_numpy_formula(cells, h, seed, masked, levels):
    spec = GridSpec(*cells, h=h)
    rng = np.random.default_rng(seed)
    # one V2 draw: sensitive parameters +-40%, all other rates +-30%
    params = instantiate_submodels(TumorParams(), ExperimentConfig(variant="V2", n_submodels=1),
                                   seed=seed)[0]
    if levels is not None:  # the V2 draw keeps the density levels
        params = dataclasses.replace(params, b_norm=levels[0], b_M=levels[1])
    mask = (rng.random(spec.shape) < 0.5).astype(np.float64) if masked else None
    first, second = random_state(spec, rng, params.b_M), random_state(spec, rng, params.b_M)
    expected = [reference_tendency(state, params, h, mask) for state in (first, second)]

    system = TumorSystem(spec, oxygen_source_mask=mask)
    got_first = system.tendency(first, params)
    kept = got_first.copy()
    got_second = system.tendency(second, params)

    for got, want in zip((got_first, got_second), expected):
        for name, field, want_field in zip(FIELD_NAMES, got, want):
            assert np.array_equal(field, want_field, equal_nan=True), name
    assert np.array_equal(got_first, kept)
    # without a system
    assert np.array_equal(tumor_tendency(first, params, h, mask), kept)
    # the same bits written into a given array
    out = np.full(first.shape, np.nan)
    assert tumor_tendency(first, params, h, mask, out) is out
    assert np.array_equal(out, kept)
    # and into one that holds the previous state's tendency: no slot of the
    # output is read before a stage writes it
    assert tumor_tendency(second, params, h, mask, out) is out
    for name, field, want_field in zip(FIELD_NAMES, out, expected[1]):
        assert np.array_equal(field, want_field, equal_nan=True), name
    # a system writes into a given array what a fresh call returns
    out = np.full(first.shape, np.nan)
    assert system.tendency(first, params, out=out) is out
    assert np.array_equal(out, kept)


@pytest.mark.parametrize("h", [0.7, 0.5])
@pytest.mark.parametrize("cells", [(5, 3, 7), (4, 6, 9), (3, 3, 3)])
def test_stage_wrappers_match_the_reference_stages(cells, h):
    """The stages a tendency runs in one call, each alone through its wrapper:
    odd counts leave a lone cell at the end of a row, and x / 0.7 and
    x * (1 / 0.7) often differ."""
    spec = GridSpec(*cells, h=h)
    params = instantiate_submodels(TumorParams(), ExperimentConfig(variant="V2", n_submodels=1),
                                   seed=sum(cells))[0]
    state = random_state(spec, np.random.default_rng(sum(cells)), params.b_M)
    want_flux = np.stack(reference_flux(state, params, h))
    flux = tumor.compute_flux(state, params, h)
    assert same_bits(flux, want_flux)
    assert same_bits(tumor._divergence(flux, h), reference_divergence(*want_flux, h))
    want_laplacians = np.stack([reference_laplacian(field, h) for field in state])
    assert same_bits(tumor._laplacian(state[1:3], h), want_laplacians[1:3])
    assert same_bits(tumor._laplacian(state[4], h), want_laplacians[4])


@pytest.mark.parametrize("masked", [False, True])
def test_a_tendency_is_one_foreign_call(request, masked):
    spec = GridSpec(6, 5, 4, 1.0)
    params = TumorParams()
    state = gaussian_bump_state(spec, params, core_oxygen=1.0)
    mask = tumor.vessel_free_mask(spec, 0.2) if masked else None
    want = tumor_tendency(state, params, spec.h, mask)
    calls = request.getfixturevalue("foreign_calls")
    got = tumor_tendency(state, params, spec.h, mask)
    assert calls == ["tendency"]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def bump_case():
    """A grid, parameters, a tumor bump and an oxygen mask."""
    spec = GridSpec(7, 6, 5, 0.7)
    params = TumorParams()
    return (spec, params, gaussian_bump_state(spec, params, core_oxygen=1.0),
            tumor.vessel_free_mask(spec, 0.2))


def test_build_caches_the_library(tmp_path, monkeypatch):
    _kernel.load(tmp_path)
    built = list(tmp_path.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"  # no temporary file is left
    # a second load finds the library and compiles nothing

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    _kernel.load(tmp_path)
    assert list(tmp_path.iterdir()) == built


def test_build_removes_the_libraries_of_earlier_sources(tmp_path):
    stale = tmp_path / "_tendency-00000000.so"
    stale.write_bytes(b"built from an earlier source")
    other = tmp_path / "unrelated.so"
    other.write_bytes(b"")
    _kernel.load(tmp_path)
    left = sorted(path.name for path in tmp_path.iterdir())
    assert len(left) == 2 and "unrelated.so" in left
    assert left[0].startswith("_tendency-") and left[0] != stale.name


def test_failed_build_raises_with_the_compilers_message(tmp_path, monkeypatch):
    compiler = sysconfig.get_config_var("CC") or "cc"
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "/nonexistent/cc -O1")
    with pytest.raises(ImportError, match="/nonexistent/cc"):
        _kernel.load(tmp_path)
    assert not list(tmp_path.iterdir())
    # a compiler that runs and fails: its own message reaches the error
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: f"{compiler} -include /nonexistent/missing.h")
    with pytest.raises(ImportError, match="(?s)failed:.*/nonexistent/missing.h"):
        _kernel.load(tmp_path)
    assert not list(tmp_path.iterdir())


def test_read_only_inputs_give_the_same_bits():
    spec, params, state, mask = bump_case()
    want = tumor_tendency(state, params, spec.h, mask)
    state.flags.writeable = mask.flags.writeable = False
    assert np.array_equal(tumor_tendency(state, params, spec.h, mask), want)


def tendency(state, out, mask=None):
    tumor_tendency(state, TumorParams(), 1.0, mask, out)


def euler(state, tend=None, correction=None):
    """An Euler pass on ``state``, with a zero tendency and a zero correction
    unless they are given."""
    tend = np.zeros(state.shape) if tend is None else tend
    correction = np.zeros(state.shape[1:]) if correction is None else correction
    _kernel.euler(state, tend, 0.1, correction)


def mismatch(states, gt=None):
    """The coupling update's rows for the members ``states`` against ``gt``
    (by default the first member's b)."""
    mismatch_inner(states, states[0, 0] if gt is None else gt, 1.0)


def average(states):
    """The member average of b and o for the members ``states``."""
    supermodel_output(SimpleNamespace(system=SimpleNamespace(variables=FIELD_NAMES),
                                      states=states), ("b", "o"))


def read_only(array):
    array.flags.writeable = False
    return array


UNSAFE = {  # a kernel call on a state and an out array -> its complaint
    "float32": (lambda s, o: tendency(s.astype(np.float32), o), "float64"),
    "fortran": (lambda s, o: tendency(np.asfortranarray(s), o), "C-contiguous"),
    "strided": (lambda s, o: tendency(np.concatenate([s, s], axis=3)[..., ::2], o),
                "C-contiguous"),
    "out shape": (lambda s, o: tendency(s, np.empty(s.shape[:3] + (s.shape[3] + 1,))), "shape"),
    "out is state": (lambda s, o: tendency(s, s), "overlap"),
    "mask float32": (lambda s, o: tendency(s, o, np.ones(s.shape[1:], np.float32)), "float64"),
    "mask strided": (
        lambda s, o: tendency(s, o, np.ones(s.shape[1:3] + (2 * s.shape[3],))[..., ::2]),
        "C-contiguous"),
    "mask shape": (lambda s, o: tendency(s, o, np.ones(s.shape[1:3] + (s.shape[3] + 1,))), "shape"),
    "mask in out": (lambda s, o: tendency(s, o, o[2]), "overlap"),
    "two cells": (lambda s, o: tendency(np.ascontiguousarray(s[:, :, :2]), o[:, :, :2].copy()),
                  "at least 3 cells"),
    "euler float32 tendency": (lambda s, o: euler(s, tend=s.astype(np.float32)), "float64"),
    "euler fortran state": (lambda s, o: euler(np.asfortranarray(s)), "C-contiguous"),
    "euler strided correction": (
        lambda s, o: euler(s, correction=np.concatenate([s[0], s[0]], axis=2)[..., ::2]),
        "C-contiguous"),
    "euler correction shape": (lambda s, o: euler(s, correction=np.zeros(s.shape)), "shape"),
    "euler tendency is state": (lambda s, o: euler(s, tend=s), "overlap"),
    "euler correction in state": (lambda s, o: euler(s, correction=s[0]), "overlap"),
    "read-only out": (lambda s, o: tendency(s, read_only(o)), "writeable"),
    "euler read-only state": (lambda s, o: euler(read_only(s)), "writeable"),
    "mismatch float32 states": (lambda s, o: mismatch(np.stack([s, s]).astype(np.float32)),
                                "float64"),
    "mismatch fortran states": (lambda s, o: mismatch(np.asfortranarray(np.stack([s, s]))),
                                "C-contiguous"),
    "mismatch gt size": (lambda s, o: mismatch(np.stack([s, s]), s[0, :-1]), "size"),
    "average float32 states": (lambda s, o: average(np.stack([s, s]).astype(np.float32)),
                               "float64"),
    "average fortran states": (lambda s, o: average(np.asfortranarray(np.stack([s, s]))),
                               "C-contiguous"),
}


@pytest.mark.parametrize("case", list(UNSAFE))
def test_kernel_rejects_unsafe_arrays_before_any_foreign_call(monkeypatch, case):
    spec = GridSpec(6, 5, 4, 1.0)
    call, complaint = UNSAFE[case]
    state = gaussian_bump_state(spec, TumorParams(), core_oxygen=1.0)
    calls = []

    class Recorder:
        def __getattr__(self, name):
            return lambda *args: calls.append(name)

    monkeypatch.setattr(_kernel, "LIB", Recorder())
    with pytest.raises(ValueError, match=complaint):
        call(state, np.empty_like(state))
    assert calls == []


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


def test_concurrent_tendencies_on_one_system_give_single_thread_bits():
    """A system holds no work arrays, so two threads may run tendencies on it
    at once: the foreign calls release the interpreter lock and overlap."""
    spec = GridSpec(32, 32, 32, 1.0)
    params = TumorParams()
    system = TumorSystem(spec, tumor.vessel_free_mask(spec, 0.2))
    rng = np.random.default_rng(0)
    states = [random_state(spec, rng) for _ in range(2)]
    wants = [system.tendency(state, params) for state in states]
    start = threading.Barrier(2, timeout=60)
    mismatches = [0, 0]
    done = [0, 0]

    def run(k):
        start.wait()
        for _ in range(200):
            mismatches[k] += not np.array_equal(system.tendency(states[k], params), wants[k])
            done[k] += 1

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [200, 200] and mismatches == [0, 0]


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
    by, multiply = _scaling(divisor)
    with np.errstate(all="ignore"):
        want = np.divide(SPECIAL, divisor)
        got = SPECIAL * by if multiply else SPECIAL / by
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_build_flags_allow_no_reordering_or_fused_operations():
    """state + tend * dt is the pattern a compiler fuses into one multiply-add,
    which rounds once where NumPy rounds twice."""
    assert "-ffp-contract=off" in _kernel.FLAGS
    assert not {"-ffast-math", "-Ofast", "-march=native", "-ffp-contract=fast"} & set(_kernel.FLAGS)


@settings(max_examples=80, deadline=None)
@given(
    # fields, and values per field: an odd count leaves a lone last value,
    # and the corrected first field ends at an odd offset
    shape=st.tuples(st.integers(1, 5), st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
    dt=st.sampled_from([0.1, 0.7, 1e-3, 2.0, 5e-324, 1e300]),
    corrected=st.booleans(),
)
@example(shape=(5, 7), seed=0, dt=0.1, corrected=True)
@example(shape=(1, 1), seed=1, dt=0.7, corrected=True)
@example(shape=(2, 3), seed=2, dt=1e300, corrected=False)
def test_euler_pass_is_numpys_step_and_correction_bit_for_bit(shape, seed, dt, corrected):
    rng = np.random.default_rng(seed)

    def draw(size):
        # the special values among ordinary ones, of near magnitudes (whose
        # sums round differently in another order) and of far ones
        near = rng.normal(size=24) * 10.0 ** rng.integers(-2, 3, size=24)
        far = rng.normal(size=8) * 10.0 ** rng.integers(-300, 300, size=8)
        return rng.choice(np.concatenate([SPECIAL, near, far]), size=size)

    state, tend = draw(shape), draw(shape)
    correction = draw(shape[1:]) if corrected else None
    kept_tend = tend.copy()
    with np.errstate(all="ignore"):
        want = np.add(state, tend * dt)
        if corrected:
            want[0] += correction
    finite = _kernel.euler(state, tend, dt, correction)
    assert same_bits(state, want)
    assert finite == np.isfinite(want).all()
    assert same_bits(tend, kept_tend)  # the tendency is read, not written


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", FIELD_NAMES)
@pytest.mark.parametrize("at", [0, -1])
def test_euler_pass_flags_every_non_finite_value(value, field, at):
    spec = GridSpec(3, 4, 5, 1.0)
    params = TumorParams()
    state = random_state(spec, np.random.default_rng(0))
    tend, correction = np.ones(state.shape), np.ones(spec.shape)
    assert _kernel.euler(state.copy(), tend, 0.1, correction)
    state[FIELD_NAMES.index(field)].flat[at] = value
    assert not _kernel.euler(state.copy(), tend, 0.1, correction)
    assert not _kernel.euler(state.copy(), tend, 0.1)
    # a step names the field
    with pytest.raises(BlowUpError, match=f"variable '{field}' during explicit step"):
        explicit_step(TumorSystem(spec), state, params, 0.1, tendency=tend)


def test_euler_pass_flags_what_the_correction_and_the_step_overflow_to():
    state = np.full((2, 3), 1.5e308)
    tend = np.zeros(state.shape)
    correction = np.array([0.0, 0.0, 1e308])
    assert _kernel.euler(state.copy(), tend, 0.1)
    assert not _kernel.euler(state.copy(), tend, 0.1, correction)
    tend[1, 0] = 1e308
    assert not _kernel.euler(state.copy(), tend, 1.0)
