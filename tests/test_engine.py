import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from supermodeling import engine
from supermodeling.dynamics import LinearSystem, LogisticParams, LogisticSystem, explicit_step
from supermodeling.engine import (
    CouplingMatrix,
    StepRecord,
    SubModelEnsemble,
    TrainingAborted,
    TrainingReport,
    coupled_step,
    export_training_csv,
    simulate,
    supermodel_output,
    train,
    update_coupling,
)
from supermodeling.experiments import (
    ExperimentConfig,
    build_setup,
    initial_coupling,
    instantiate_submodels,
)
from supermodeling.fields import BlowUpError
from supermodeling.groundtruth import GroundTruth, generate_gt, gt_at
from supermodeling.tumor import FIELD_NAMES


def toy_ensemble(states, r_values=None, cap=2.0):
    system = LogisticSystem()
    if r_values is None:
        r_values = [1.0] * len(states)
    params = [LogisticParams(r=r, cap=cap) for r in r_values]
    ens = SubModelEnsemble(system, params, states[0])
    ens.states[:, 0] = states
    return ens


def still_ensemble(values):
    """Toy members whose model leaves them where they are, so a coupled step
    adds the corrections alone: x + 0.0 * dt is x."""
    ens = SubModelEnsemble(LinearSystem(0.0), [None] * len(values), np.array(values[:1]))
    ens.states[:, 0] = values
    return ens


def constant_gt(value, steps, dt=0.1):
    return GroundTruth(snapshots={n: value for n in range(steps + 1)}, step_dt=dt)


class TestCouplingMatrix:
    def test_uniform_builder(self):
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9)
        assert np.all(np.diagonal(cm.c) == 0.0)
        assert np.all(cm.c[~np.eye(3, dtype=bool)] == 0.5)

    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            CouplingMatrix(c=np.ones((2, 2)), k_nudge=0.0)

    def test_a_rate_bounds(self):
        with pytest.raises(ValueError):
            CouplingMatrix.uniform(2, 0.5, k_nudge=0.0, a_rate=0.0)
        with pytest.raises(ValueError):
            CouplingMatrix.uniform(2, 0.5, k_nudge=0.0, a_rate=1.5)

    def test_coefficients_are_a_read_only_copy(self):
        c = np.array([[0.0, 0.5], [0.5, 0.0]])
        cm = CouplingMatrix(c=c, k_nudge=0.9)
        c[0, 1] = 0.7
        assert cm.c[0, 1] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            cm.c[0, 1] = 0.7


class TestCoupledStep:
    def test_reduction_to_free_model(self):
        # one member, no coupling, no nudging: bitwise equal to the free run
        ens = toy_ensemble([0.37], r_values=[1.3])
        cm = CouplingMatrix.uniform(1, 0.0, k_nudge=0.0, c_min=0.0)
        free = np.array([0.37])
        p = ens.params[0]
        for _ in range(100):
            ens = coupled_step(ens, cm, gt_now=None, dt=0.1)
            explicit_step(LogisticSystem(), free, p, 0.1)
        assert np.array_equal(ens.states[0], free)

    def test_pure_synchronization_hand_value(self):
        ens = still_ensemble([1.0, 3.0])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.0)
        stepped = coupled_step(ens, cm, gt_now=None, dt=0.1)
        assert stepped.states[0] == pytest.approx(1.5, abs=1e-15)
        assert stepped.states[1] == pytest.approx(2.5, abs=1e-15)

    def test_mean_form_nudging_vanishes_at_mean(self):
        # the nudge acts on the ensemble mean: mean(1, 3) == GT == 2
        ens = still_ensemble([1.0, 3.0])
        cm = CouplingMatrix.uniform(2, 0.0, k_nudge=1.0, c_min=0.0)
        stepped = coupled_step(ens, cm, gt_now=2.0, dt=0.1)
        assert stepped.states[0] == 1.0
        assert stepped.states[1] == 3.0

    def test_nudging_without_reference_rejected_before_any_step(self):
        ens = toy_ensemble([1.0, 3.0])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        with pytest.raises(ValueError, match="nudging needs the reference value at this step"):
            coupled_step(ens, cm, None, 0.1)
        assert np.array_equal(ens.states, [[1.0], [3.0]])

    @pytest.mark.parametrize("dt", [0.1, 1.0])
    def test_non_finite_correction_names_the_coupled_variable(self, dt):
        # the free steps stay finite; only the nudge toward an infinite
        # reference makes the corrected values non-finite
        ens = SubModelEnsemble(LinearSystem(0.0), [None, None], np.array([1.0]))
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.5)
        with pytest.raises(BlowUpError, match="non-finite value in variable 'b'"):
            coupled_step(ens, cm, np.inf, dt)

    def test_negative_dt_rejected(self):
        ens = toy_ensemble([1.0])
        cm = CouplingMatrix.uniform(1, 0.0, k_nudge=0.0, c_min=0.0)
        with pytest.raises(ValueError):
            coupled_step(ens, cm, None, -0.1)

    def test_size_mismatch_rejected(self):
        ens = toy_ensemble([1.0, 2.0])
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.0)
        with pytest.raises(ValueError):
            coupled_step(ens, cm, None, 0.1)

    @pytest.mark.parametrize("seed", range(4))
    def test_synchronization_shrinks_spread(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        states = list(rng.uniform(0.0, 2.0, size=n))
        c = rng.uniform(0.05, 0.95)
        ens = still_ensemble(states)
        cm = CouplingMatrix.uniform(n, c, k_nudge=0.0)
        spread = max(states) - min(states)
        for _ in range(20):
            ens = coupled_step(ens, cm, None, dt=0.1)
            values = list(ens.states)
            new_spread = max(values) - min(values)
            assert new_spread <= spread + 1e-15
            spread = new_spread


class TestTumorReduction:
    def test_uncoupled_step_is_explicit_step_per_member(self):
        # K = 0 and C = 0: every member advances exactly as a free model step
        config = ExperimentConfig(nx=8, ny=7, nz=6, variant="V2")
        _spec, reference, system, initial = build_setup(config)
        params = instantiate_submodels(reference, config)
        ens = SubModelEnsemble(system, params, initial)
        cm = CouplingMatrix.uniform(len(params), 0.0, k_nudge=0.0, c_min=0.0)
        free = [np.array(initial) for _ in params]
        for _ in range(5):
            ens = coupled_step(ens, cm, gt_now=None, dt=0.1)
            for x, p in zip(free, params):
                explicit_step(system, x, p, 0.1)
        for member, expected in zip(ens.states, free):
            assert np.array_equal(member, expected)


class TestUpdateCoupling:
    def test_fixed_point_at_perfect_fit(self):
        ens = toy_ensemble([0.7, 0.7, 0.7])
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9, a_rate=1.0)
        updated = update_coupling(cm, ens, gt_now=0.7)
        assert np.array_equal(updated.c, cm.c)

    def test_hand_value(self):
        # unit-volume scalar states: 0.5 + 1.0 * (1 - 0.5) * (0.5 - 0.3)
        ens = toy_ensemble([0.5, 0.3])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        updated = update_coupling(cm, ens, gt_now=1.0)
        assert updated.c[0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_clamped_to_floor(self):
        ens = toy_ensemble([2.0, 0.5])  # raw update lands below the floor
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9, c_min=0.1, c_max=0.9)
        updated = update_coupling(cm, ens, gt_now=1.0)
        # (1 - 2) * (2 - 0.5) = -1.5, raw 0.5 - 1.5 = -1.0 -> clamp 0.1
        assert updated.c[0, 1] == 0.1

    @pytest.mark.parametrize("seed", range(3))
    def test_clamp_safety_under_random_updates(self, seed):
        rng = np.random.default_rng(seed)
        ens = toy_ensemble(list(rng.uniform(0, 2, size=3)))
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9)
        for _ in range(30):
            ens.states[:, 0] = rng.uniform(0, 2, size=3)
            cm = update_coupling(cm, ens, gt_now=float(rng.uniform(0, 2)))
            off = cm.c[~np.eye(cm.n, dtype=bool)]
            assert np.all(off >= cm.c_min) and np.all(off <= cm.c_max)


class StillFields(LinearSystem):
    """Five fields on a grid of spacing h that a step leaves where they are:
    the tendency is zero, so a coupled step of any dt adds the corrections
    alone (x + 0.0 * dt is x)."""

    variables = FIELD_NAMES

    def __init__(self, h):
        super().__init__(0.0)
        self.cell_volume = h ** 3


def field_ensemble(states, h=1.0):
    """Ensemble of ``states`` (N, 5, nz, ny, nx) on a grid of spacing h."""
    ens = SubModelEnsemble(StillFields(h), [None] * len(states), states[0])
    ens.states[...] = states
    return ens


def raw_coupling(c, k_nudge=0.0, a_rate=1.0):
    """Coefficients whose update is never clamped."""
    return CouplingMatrix(c=c, k_nudge=k_nudge, a_rate=a_rate, c_min=-np.inf, c_max=np.inf)


def assert_rel_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestCouplingAlgebra:
    """The matrix products of coupled_step and update_coupling against the
    formulas evaluated member by member and pair by pair."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_update_exact_for_near_synchronized_members(self, n):
        # members agree to 1e-12 of the field: every <GT - B_i, B_i - B_j> is
        # ~1e-12 of the size of <GT - B_i, B_j>, so an uncentered Gram product
        # loses all but about four digits of it
        rng = np.random.default_rng(n)
        base = rng.uniform(0.5, 1.5, size=(8, 8, 8))
        states = np.zeros((n, 5) + base.shape)
        states[:, 0] = base * (1.0 + 1e-12 * rng.standard_normal((n,) + base.shape))
        gt = 1.1 * base
        ens = field_ensemble(states, h=0.5)
        updated = update_coupling(raw_coupling(np.zeros((n, n))), ens, gt)
        b = states[:, 0]
        expected = np.array([[np.dot((gt - b[i]).ravel(), (b[i] - b[j]).ravel()) * 0.125
                              for j in range(n)] for i in range(n)])
        np.testing.assert_allclose(updated.c, expected, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 8])
    # the ids are the ones these cases had beside the exclude-self case, so
    # that the suite's records of them carry over
    @pytest.mark.parametrize("k_nudge", [0.0, 0.9], ids=["0.0-False", "0.9-False"])
    def test_fixed_points_hold_to_round_off(self, n, k_nudge):
        # identical members stay together, and with nudging stay at the
        # reference they equal, only to round-off: the rows of the mixing
        # matrix sum to -K in exact arithmetic, not in floating point
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 2.0, size=(6, 6, 6))
        states = np.zeros((n, 5) + x.shape)
        states[:, 0] = x
        c = rng.uniform(0.1, 0.9, size=(n, n))
        np.fill_diagonal(c, 0.0)
        cm = raw_coupling(c, k_nudge)
        ens = field_ensemble(states)
        for _ in range(100):
            coupled_step(ens, cm, x if k_nudge else None, 0.1)
        assert_rel_close(ens.states[:, 0], np.broadcast_to(x, (n,) + x.shape), 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(3, 6)] * 3),
        n=st.integers(1, 6),
        k_nudge=st.floats(0.0, 2.0),
        a_rate=st.floats(0.01, 1.0),
        h=st.sampled_from([0.5, 1.0, 1.5]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_products_equal_pair_loops(self, shape, n, k_nudge, a_rate, h, seed):
        rng = np.random.default_rng(seed)
        states = rng.uniform(0.0, 2.0, size=(n, 5) + shape)
        gt = rng.uniform(0.0, 2.0, size=shape)
        c = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(c, 0.0)
        cm = raw_coupling(c, k_nudge, a_rate)
        b = states[:, 0]

        ens = coupled_step(field_ensemble(states, h), cm, gt, 0.1)
        expected_b = []
        for i in range(n):
            coupling = sum(c[i, j] * (b[j] - b[i]) for j in range(n)) / n
            nudge = k_nudge * sum((gt - b[j] for j in range(n)), np.zeros(shape)) / n
            expected_b.append(b[i] + coupling + nudge)
        assert_rel_close(ens.states[:, 0], np.array(expected_b), 1e-12)
        assert np.array_equal(ens.states[:, 1:], states[:, 1:])

        updated = update_coupling(cm, field_ensemble(states, h), gt)
        expected_c = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    inner = np.sum((gt - b[i]) * (b[i] - b[j])) * h ** 3
                    expected_c[i, j] = a_rate * c[i, j] + a_rate * inner
        assert_rel_close(updated.c, expected_c, 1e-12)


class TestSupermodelOutput:
    def test_single_member(self):
        assert supermodel_output(toy_ensemble([1.7])) == 1.7

    def test_mean_of_two(self):
        assert supermodel_output(toy_ensemble([1.0, 3.0])) == 2.0

    def test_idempotent_on_identical_members(self):
        value = 0.123456789123456789
        ens = toy_ensemble([value, value, value])
        assert supermodel_output(ens) == value

    @pytest.mark.parametrize("n_submodels", [1, 2, 4])
    def test_named_variables_equal_full_average(self, n_submodels):
        # b and o averaged alone carry the bits of the five-field average
        config = ExperimentConfig(nx=5, ny=4, nz=3, n_submodels=n_submodels)
        _spec, reference, system, _initial = build_setup(config)
        rng = np.random.default_rng(n_submodels)
        states = np.stack([random_state(system.spec, rng) for _ in range(n_submodels)])
        ens = SubModelEnsemble(system, [reference] * n_submodels, states[0])
        ens.states[...] = states
        full = supermodel_output(ens)
        assert full.shape == states.shape[1:]
        assert np.array_equal(supermodel_output(ens, ("b", "o")), full[[0, 2]])
        assert np.array_equal(supermodel_output(ens, ("o",)), full[[2]])
        assert system.volumes(supermodel_output(ens, ("o", "b")), ("o", "b")) == \
            system.volumes(full)


class TestReset:
    def test_rewrites_states_in_place(self):
        ens = toy_ensemble([0.5, 0.5])
        states = ens.states
        coupled_step(ens, CouplingMatrix.uniform(2, 0.5, k_nudge=0.0), None, 0.1)
        assert ens.reset() is ens
        assert ens.states is states and np.all(states == 0.5)

    def test_keeps_the_callers_initial_state(self):
        initial = np.array([0.25])
        ens = SubModelEnsemble(LogisticSystem(), [LogisticParams(1.0, 2.0)] * 3, initial)
        assert ens.initial_state is initial
        assert np.all(ens.states == 0.25)


class TestTrain:
    def make_toy_gt(self, r=1.0, cap=2.0, b0=0.5, dt=0.1, steps=12):
        return generate_gt(LogisticSystem(), LogisticParams(r=r, cap=cap), b0,
                           dt, steps, keep_every=1)

    def test_zero_epochs_is_noop(self):
        gt = self.make_toy_gt()
        ens = toy_ensemble([0.5, 0.5])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        trained, report = train(ens, cm, gt, 0.1, steps_per_epoch=5,
                                max_epochs=0, tol=1e-6)
        assert np.array_equal(trained.c, cm.c)
        assert not report.converged
        assert report.c_history == [] and report.step_records == []

    def test_exact_ensemble_is_fixed_point(self):
        gt = self.make_toy_gt(b0=0.5)
        ens = toy_ensemble([0.5, 0.5, 0.5])  # same params and state as the reference
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9, a_rate=1.0)
        trained, report = train(ens, cm, gt, 0.1, steps_per_epoch=10,
                                max_epochs=5, min_epochs=5, tol=1e-10)
        assert np.allclose(trained.c, cm.c, atol=1e-12)
        assert len(report.step_records) == 5 * 10
        assert max(record.error for record in report.step_records) < 1e-10

    def test_insufficient_gt_coverage_rejected(self):
        gt = self.make_toy_gt(steps=3)
        ens = toy_ensemble([0.5, 0.6])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        with pytest.raises(ValueError, match="covers steps up to 3, need 10"):
            train(ens, cm, gt, 0.1, steps_per_epoch=10, max_epochs=1, tol=1e-6)
        assert np.array_equal(ens.states, [[0.5], [0.6]])  # not reset

    def test_blowup_carries_partial_report(self):
        # growth fast enough to overflow to inf inside the first epoch
        gt = constant_gt(0.5, steps=10)
        system = LinearSystem(1e60)
        ens = SubModelEnsemble(system, [None, None], 0.5)
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        with pytest.raises(TrainingAborted) as err:
            train(ens, cm, gt, 1.0, steps_per_epoch=10, max_epochs=3, tol=1e-9)
        assert err.value.epoch == 0
        assert err.value.report.iterations_used == 0
        assert "ensemble" in str(err.value)

    def test_recorded_coefficients_are_read_only(self):
        gt = self.make_toy_gt()
        ens = toy_ensemble([0.5, 0.5], r_values=[0.9, 1.1])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        _trained, report = train(ens, cm, gt, 0.1, steps_per_epoch=5,
                                 max_epochs=2, min_epochs=2, tol=1e-300)
        assert len(report.c_history) == 2
        for c in report.c_history:
            with pytest.raises(ValueError, match="read-only"):
                c[0, 1] = 0.7
        with pytest.raises(ValueError, match="read-only"):
            report.step_records[0].c_flat[1] = 0.7

    def test_convergence_flag_and_history_lengths(self):
        gt = self.make_toy_gt()
        ens = toy_ensemble([0.5, 0.5], r_values=[0.98, 1.02])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        trained, report = train(ens, cm, gt, 0.1, steps_per_epoch=10,
                                max_epochs=50, tol=1e-4)
        assert report.iterations_used == len(report.c_history)
        assert report.iterations_used == len({r.epoch for r in report.step_records})
        if report.converged:
            assert report.iterations_used < 50


class TestSimulate:
    def test_zero_steps_returns_initial_average(self):
        ens = toy_ensemble([1.0, 3.0])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.0)
        outputs = simulate(ens, cm, None, 0.1, steps=0)
        assert outputs == [2.0]

    def test_reduction_matches_free_run(self):
        ens = toy_ensemble([0.4], r_values=[1.1])
        cm = CouplingMatrix.uniform(1, 0.0, k_nudge=0.0, c_min=0.0)
        outputs = simulate(ens, cm, None, 0.1, steps=50)
        free = np.array([0.4])
        p = ens.params[0]
        for k in range(50):
            explicit_step(LogisticSystem(), free, p, 0.1)
            assert np.array_equal(outputs[k + 1], free)

    def test_exact_ensemble_tracks_reference(self):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5,
                         0.1, steps=20, keep_every=1)
        ens = toy_ensemble([0.5, 0.5, 0.5])
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9)
        outputs = simulate(ens, cm, gt, 0.1, steps=20)
        for n, out in enumerate(outputs):
            assert abs(out - gt_at(gt, n)) < 1e-8

    def test_unnudged_prediction_needs_no_reference(self):
        ens = toy_ensemble([0.4, 0.6])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        outputs = simulate(ens, cm, None, 0.1, steps=5, nudge_in_prediction=False)
        assert len(outputs) == 6

    def test_each_step_sees_every_step(self):
        ens = toy_ensemble([0.4, 0.6])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.0)
        seen = simulate(ens, cm, None, 0.1, steps=7,
                        each_step=lambda step, e, ref: (step, e is ens, ref))
        assert seen == [(step, True, None) for step in range(8)]

    def test_each_step_gets_the_reference_fetched_once_per_step(self, monkeypatch):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5,
                         0.1, steps=9, keep_every=3)
        fetched = []

        def counted(gt, n):
            fetched.append(n)
            return gt_at(gt, n)

        monkeypatch.setattr(engine, "gt_at", counted)
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9)
        refs = simulate(toy_ensemble([0.4, 0.5, 0.6]), cm, gt, 0.1, steps=9,
                        each_step=lambda step, ens, ref: ref)
        assert fetched == list(range(10))
        assert len(refs) == 10
        assert all(np.array_equal(ref, gt_at(gt, n)) for n, ref in enumerate(refs))

    @pytest.mark.parametrize("nudge", [True, False])
    def test_short_reference_rejected_before_any_step(self, nudge):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5,
                         0.1, steps=4, keep_every=1)
        ens = toy_ensemble([0.4, 0.6])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        seen = []
        with pytest.raises(ValueError, match="covers steps up to 4, need 5"):
            simulate(ens, cm, gt, 0.1, steps=5, nudge_in_prediction=nudge,
                     each_step=lambda step, e, ref: seen.append(step))
        assert seen == []
        assert np.array_equal(ens.states, [[0.4], [0.6]])


def test_ensemble_keeps_no_array_after_training_and_prediction():
    config = ExperimentConfig(nx=24, ny=24, nz=24, n_submodels=3)
    _spec, reference, system, initial = build_setup(config)
    gt = generate_gt(system, reference, initial, config.dt, 5)
    ens = SubModelEnsemble(system, instantiate_submodels(reference, config), initial)
    tracemalloc.start()
    try:
        cm, report = train(ens, initial_coupling(config), gt, config.dt, 5,
                           max_epochs=2, tol=1e-300, min_epochs=2)
        del report
        simulate(ens, cm, gt, config.dt, 5, each_step=lambda *a: None)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every work array was released when the call that made it returned
    assert held < 0.5 * 8 * 24 ** 3


class TestOracleEquivalence:
    """The engine against a straight-line transcription of the procedure."""

    def reference_training(self, r_values, cap, b0, gt_values, dt, K, A,
                           c_init, c_min, c_max, M, epochs):
        # Plain-loop reimplementation: one coupled step uses pre-step member
        # values and the reference at the pre-step index; the coefficient
        # correction then uses post-step values and the post-step reference.
        n = len(r_values)
        C = [[0.0 if i == j else c_init for j in range(n)] for i in range(n)]
        b = [b0] * n
        for _epoch in range(epochs):
            b = [b0] * n
            for step in range(M):
                gt_pre = gt_values[step]
                stepped = [
                    b[i] + dt * (r_values[i] * b[i] * (1.0 - b[i] / cap))
                    for i in range(n)
                ]
                new_b = []
                for i in range(n):
                    coup = sum(C[i][j] * (b[j] - b[i]) for j in range(n)) / n
                    nudge = K * sum(gt_pre - b[j] for j in range(n)) / n
                    new_b.append(stepped[i] + coup + nudge)
                b = new_b
                gt_post = gt_values[step + 1]
                newC = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            raw = A * C[i][j] + A * (gt_post - b[i]) * (b[i] - b[j])
                            newC[i][j] = min(max(raw, c_min), c_max)
                C = newC
        return C, b

    def test_three_member_training_matches(self):
        cap, b0, dt, K, A = 2.0, 0.5, 0.1, 0.9, 1.0
        r_values = [0.8, 1.0, 1.25]
        M, epochs = 5, 3
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, cap), b0, dt,
                         steps=M, keep_every=1)
        gt_values = [gt.snapshots[k] for k in range(M + 1)]

        ens = toy_ensemble([b0, b0, b0], r_values=r_values, cap=cap)
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=K, a_rate=A)
        trained, report = train(ens, cm, gt, dt, steps_per_epoch=M,
                                max_epochs=epochs, min_epochs=epochs, tol=1e-300)

        expected_c, _expected_b = self.reference_training(
            r_values, cap, b0, gt_values, dt, K, A,
            c_init=0.5, c_min=0.1, c_max=0.9, M=M, epochs=epochs,
        )
        assert np.allclose(trained.c, np.array(expected_c), atol=1e-12)

    def test_states_match_along_final_epoch(self):
        cap, b0, dt, K, A = 2.0, 0.4, 0.1, 0.9, 1.0
        r_values = [0.9, 1.1]
        M, epochs = 4, 2
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, cap), b0, dt,
                         steps=M, keep_every=1)
        gt_values = [gt.snapshots[k] for k in range(M + 1)]

        ens = toy_ensemble([b0, b0], r_values=r_values, cap=cap)
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=K, a_rate=A)
        trained, _report = train(ens, cm, gt, dt, steps_per_epoch=M,
                                 max_epochs=epochs, min_epochs=epochs, tol=1e-300)

        expected_c, expected_b = self.reference_training(
            r_values, cap, b0, gt_values, dt, K, A,
            c_init=0.5, c_min=0.1, c_max=0.9, M=M, epochs=epochs,
        )
        assert np.allclose(ens.coupled_values(), expected_b, atol=1e-12)
        assert np.allclose(trained.c, np.array(expected_c), atol=1e-12)


class TestCsvExport:
    def test_structure_and_determinism(self, tmp_path):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5,
                         0.1, steps=6, keep_every=1)
        ens = toy_ensemble([0.5, 0.5], r_values=[0.9, 1.1])
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        _trained, report = train(ens, cm, gt, 0.1, steps_per_epoch=6,
                                 max_epochs=2, min_epochs=2, tol=1e-300)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_training_csv(report, a, n=2)
        export_training_csv(report, b, n=2)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "epoch,step,c_1_2,c_2_1,l2_error,total,proliferating,quiescent"
        assert len(lines) == 1 + 12  # header + 2 epochs of 6 steps

    def test_every_coefficient_column_has_its_own_name(self, tmp_path):
        # from 11 members on, c_<i><j> without a separator named c_1,11 and
        # c_11,1 alike
        n = 11
        report = TrainingReport(step_records=[StepRecord(
            epoch=0, step=1, c_flat=np.arange(n * n, dtype=np.float64), error=0.0)])
        path = tmp_path / "training.csv"
        export_training_csv(report, path, n)
        with open(path, newline="") as fh:
            row, = csv.DictReader(fh)
        names = [name for name in row if name.startswith("c_")]
        assert len(names) == len(set(names)) == n * (n - 1)
        assert row["c_1_11"] == repr(10.0) and row["c_11_1"] == repr(110.0)
