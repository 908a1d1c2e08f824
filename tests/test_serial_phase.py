"""The compiled passes of the caller's serial phase against the NumPy bodies
they replaced: the coupling update's rows and products, and the member
average, bit for bit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from supermodeling import _kernel
from supermodeling.engine import (
    CouplingMatrix,
    SubModelEnsemble,
    mismatch_inner,
    supermodel_output,
    update_coupling,
)
from supermodeling.fields import GridSpec
from supermodeling.tumor import FIELD_NAMES, TumorParams, TumorSystem


def reference_mismatch(values, gt_now, cell_volume):
    """The rows GT - B_i and B_i - mean, their product and the inner-product
    matrix, as ``mismatch_inner`` computed them in NumPy."""
    flat = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    n = len(flat)
    work = np.empty((2 * n + 1, flat.shape[1]))
    mismatch, deviation, mean = work[:n], work[n:2 * n], work[2 * n]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(np.asarray(gt_now).reshape(-1), flat, out=mismatch)
        np.subtract(flat, flat.mean(axis=0, out=mean), out=deviation)
        products = mismatch @ deviation.T
        return work[:2 * n], products, (np.diagonal(products)[:, None] - products) * cell_volume


@np.errstate(over="ignore", invalid="ignore")
def reference_average(states, variables, names):
    """The member average of ``names``, as ``supermodel_output`` computed it
    in NumPy."""
    out = np.empty((len(names),) + states.shape[2:])
    deviation = np.empty(states.shape[2:])
    for slot, name in enumerate(names):
        members = states[:, variables.index(name), ...]
        acc = out[slot, ...]
        base = members[0, ...]
        if len(members) == 1:
            acc[...] = base
            continue
        np.subtract(members[1, ...], base, out=acc)
        for m in members[2:]:
            acc += np.subtract(m, base, out=deviation)
        acc *= 1.0 / len(members)
        acc += base
    return out


def mismatch_rows(states, gt):
    """The rows the compiled pass writes, by the call ``mismatch_inner`` makes."""
    n, shape = len(states), states.shape[2:]
    gt = np.ascontiguousarray(gt, dtype=np.float64).reshape(shape)
    work = np.empty((2 * n, gt.size))
    _kernel.LIB.mismatch(n, math.prod(states.shape[1:]), gt.size,
                         _kernel.pointer(states, states.shape), _kernel.pointer(gt, shape),
                         _kernel.pointer(work, work.shape, output=True))
    return work


SPECIALS = (np.inf, -np.inf, np.nan, -0.0, 0.0)


def draw_values(rng, shape, specials, spread):
    """Values of ``shape`` around 1 that differ by ``spread`` along the first
    axis, with a share ``specials`` of them replaced by inf, -inf, NaN, -0.0
    or 0.0."""
    values = rng.uniform(-2.0, 2.0, shape[1:]) + spread * rng.standard_normal(shape)
    hit = rng.random(shape) < specials
    values[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return values


def same_bits(got, want):
    """Whether two float64 arrays hold the same bits, where any NaN matches
    any NaN: where both operands of an addition are NaNs, x86 returns the
    first one's sign and payload, and both C compilers and NumPy's SIMD
    loops may swap the operands of an addition, which IEEE 754 leaves free."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# grids with odd cell counts, one over a block of the passes (512 cells)
GRIDS = ((3, 3, 3), (3, 5, 7), (1, 1, 9), (7, 9, 9), (2, 3, 1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), grid=st.sampled_from(GRIDS + ((),)), seed=st.integers(0, 2 ** 32 - 1),
       specials=st.sampled_from((0.0, 0.02, 0.3)), spread=st.sampled_from((1.0, 1e-12, 0.0)),
       order=st.permutations(FIELD_NAMES), take=st.integers(0, 5))
@example(n=3, grid=(3, 5, 7), seed=0, specials=0.0, spread=1.0, order=FIELD_NAMES, take=5)
@example(n=2, grid=(), seed=1, specials=0.3, spread=0.0, order=FIELD_NAMES, take=1)
@example(n=8, grid=(), seed=0, specials=0.0, spread=1.0, order=FIELD_NAMES, take=0)
def test_compiled_passes_are_the_numpy_bodies_bit_for_bit(n, grid, seed, specials, spread,
                                                          order, take):
    """Tumor states (N, 5, grid) and toy states (N, 1) when ``grid`` is ();
    ``spread`` 1e-12 and 0 draw near-synchronized and identical members."""
    rng = np.random.default_rng(seed)
    variables = FIELD_NAMES if grid else ("b",)
    states = draw_values(rng, (n, len(variables)) + grid, specials, spread)
    gt = draw_values(rng, (1,) + grid, specials, 1.0)[0]
    if not grid and rng.random() < 0.5:
        gt = float(gt)  # a toy reference is a number
    cell_volume = 0.7

    want_rows, want_products, want_inner = reference_mismatch(states[:, 0], gt, cell_volume)
    rows = mismatch_rows(states, gt)
    assert same_bits(rows, want_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        products = rows[:n] @ rows[n:].T
    assert same_bits(products, want_products)
    assert same_bits(mismatch_inner(states, gt, cell_volume), want_inner)

    names = order[:take] if grid else variables[:take]
    ens = SimpleNamespace(system=SimpleNamespace(variables=variables), states=states)
    for chosen in (names, tuple(reversed(names)), ("o", "b") if grid else variables):
        got = supermodel_output(ens, chosen)
        assert got.shape == (len(chosen),) + grid
        assert same_bits(got, reference_average(states, variables, chosen))
    want = reference_average(states, variables, variables)
    assert same_bits(supermodel_output(ens), want)


@pytest.mark.parametrize("n", (8, 9, 17, 128, 129, 300))
def test_a_one_value_mean_sums_the_members_pairwise(n):
    """NumPy's mean over the members of a one-value system sums eight runs
    at a time from N = 8 on, and halves the members above 128.  Values in
    [1, 2) subtract from their mean exactly, so every bit of it shows."""
    rng = np.random.default_rng(n)
    for states in rng.uniform(1.0, 2.0, (8, n, 1)):
        assert same_bits(mismatch_rows(states, 0.3),
                         reference_mismatch(states[:, 0], 0.3, 1.0)[0])


def tumor_ensemble(n=3):
    """An ensemble of ``n`` tumor members on a 5x4x3 grid, each at its own
    random state."""
    spec, rng = GridSpec(5, 4, 3, 1.0), np.random.default_rng(0)
    ens = SubModelEnsemble(TumorSystem(spec), [TumorParams()] * n, random_state(spec, rng))
    for state in ens.states:
        state[...] = random_state(spec, rng)
    return ens


def test_a_coupling_update_is_one_foreign_call(request):
    ens = tumor_ensemble()
    gt = np.full(ens.states.shape[2:], 0.8)
    cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9)
    want = update_coupling(cm, ens, gt).c
    calls = request.getfixturevalue("foreign_calls")
    got = update_coupling(cm, ens, gt).c
    assert calls == ["mismatch"]
    assert same_bits(got, want)


def test_an_average_is_one_foreign_call_per_variable(foreign_calls):
    ens = tumor_ensemble()
    want = reference_average(ens.states, FIELD_NAMES, ("b", "o"))
    got = supermodel_output(ens, ("b", "o"))
    assert foreign_calls == ["average", "average"]
    assert same_bits(got, want)
