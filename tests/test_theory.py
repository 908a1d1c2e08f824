import numpy as np
import pytest

from supermodeling.dynamics import LogisticParams, LogisticSystem
from supermodeling.engine import (
    CouplingMatrix,
    SubModelEnsemble,
    TrainingReport,
    train,
    update_coupling,
)
from supermodeling.groundtruth import generate_gt
from supermodeling.theory import (
    VACUOUS,
    alpha_const,
    beta_const,
    cij_update_max_form,
    contraction_ratios,
    empirical_contraction_ratio,
    gamma_const,
    iterate_distances,
    make_contraction_report,
    rate_bound,
)


class TestAlpha:
    def test_all_terms_vanish(self):
        assert alpha_const(k_nudge=1.0, dt=0.0, lipschitz_max=5.0, coupling_spread=0.0) == 0.0

    @pytest.mark.parametrize("lip", [0.0, 1.0, 2.0])
    def test_reference_configuration(self, lip):
        # K=0.9, dt=0.1, spread 0.35: 0.1 + 0.1*L + 0.7
        assert alpha_const(0.9, 0.1, lip, 0.35) == pytest.approx(0.8 + 0.1 * lip, abs=1e-15)

    def test_overshooting_nudge_raw_vs_absolute(self):
        raw = alpha_const(2.0, 0.1, 1.0, 0.35)
        assert raw == pytest.approx(-0.2, abs=1e-15)
        # |1 - 2.0| + 0.1 * 1.0 + 2 * 0.35
        absolute = alpha_const(2.0, 0.1, 1.0, 0.35, absolute=True)
        assert absolute == pytest.approx(1.8, abs=1e-15)

    def test_affine_in_dt(self):
        lip = 1.7
        base = alpha_const(0.9, 0.1, lip, 0.2)
        doubled = alpha_const(0.9, 0.2, lip, 0.2)
        assert doubled - base == pytest.approx(0.1 * lip, abs=1e-15)


class TestBetaGamma:
    def test_beta_perfect_fit(self):
        assert beta_const(0.0, 0.0) == 0.0

    def test_beta_hand_value(self):
        assert beta_const(0.5, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_beta_symmetric(self):
        assert beta_const(0.2, 0.7) == beta_const(0.7, 0.2)

    def test_gamma_perfect_fit(self):
        assert gamma_const(1.0, 0.0, 0.0) == 0.0

    def test_gamma_hand_values(self):
        assert gamma_const(1.0, 0.5, 0.3) == pytest.approx(0.68, abs=1e-15)
        assert gamma_const(0.5, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("fn", [beta_const, lambda a, b: gamma_const(1.0, a, b)])
    def test_monotone_in_distances(self, fn):
        assert fn(0.2, 0.3) <= fn(0.4, 0.3)
        assert fn(0.2, 0.3) <= fn(0.2, 0.6)


class TestRateBound:
    def test_hand_values(self):
        assert rate_bound(1.0, 0.9) == pytest.approx(10.0, rel=1e-12)
        assert rate_bound(0.5, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_vacuous_at_one(self):
        assert rate_bound(1.0, 1.0) == VACUOUS
        assert rate_bound(1.0, 1.5) == VACUOUS


class TestContractionReport:
    def test_contracting_configuration(self):
        rep = make_contraction_report(
            k_nudge=0.9, dt=0.1, lipschitz_max=0.5, coupling_spread=0.05,
            a_rate=1.0, gt_dist_b=0.01, gt_dist_d=0.02,
        )
        assert rep.alpha < 1.0
        assert rep.contracting
        assert rep.rate_bound == pytest.approx(1.0 / (1.0 - rep.alpha))

    def test_not_contracting_when_far_from_reference(self):
        rep = make_contraction_report(
            k_nudge=0.9, dt=0.1, lipschitz_max=0.5, coupling_spread=0.05,
            a_rate=1.0, gt_dist_b=2.0, gt_dist_d=0.0,
        )
        assert not rep.contracting  # beta and gamma far above tolerance

    def test_alpha_above_one_is_vacuous_and_not_contracting(self):
        rep = make_contraction_report(
            k_nudge=0.0, dt=0.1, lipschitz_max=2.0, coupling_spread=0.4,
            a_rate=1.0, gt_dist_b=0.0, gt_dist_d=0.0,
        )
        assert rep.alpha > 1.0
        assert rep.rate_bound == VACUOUS
        assert not rep.contracting


class TestMaxFormUpdate:
    def test_fixed_point_when_members_match_reference(self):
        cm = CouplingMatrix.uniform(3, 0.5, k_nudge=0.9, a_rate=1.0)
        members = [0.8, 0.8, 0.8]
        trajs = [members] * 4
        gts = [0.8] * 4
        updated = cij_update_max_form(cm, trajs, gts)
        assert np.array_equal(updated.c, cm.c)

    def test_single_step_reduces_to_integral_form(self):
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9, a_rate=1.0)
        members = [0.5, 0.3]
        max_form = cij_update_max_form(cm, [members], [1.0])

        ens = SubModelEnsemble(
            system=LogisticSystem(), params=[None, None],
            states=np.reshape(members, (-1, 1)), coupled_variable="b",
        )
        integral_form = update_coupling(cm, ens, gt_now=1.0)
        assert np.allclose(max_form.c, integral_form.c, atol=1e-15)

    def test_two_step_hand_value(self):
        # inner products 0.1 and 0.3 across the two steps: 0.5 + max = 0.8
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9, a_rate=1.0)
        # states (b_i, b_j) chosen so (gt - b_i)(b_i - b_j) hits 0.1 then 0.3
        trajs = [[0.5, 0.3], [0.5, -0.1]]
        gts = [1.0, 1.0]
        updated = cij_update_max_form(cm, trajs, gts)
        assert updated.c[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_mismatched_lengths_rejected(self):
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        with pytest.raises(ValueError):
            cij_update_max_form(cm, [[0.5, 0.3]], [1.0, 1.0])


def paired_toy_runs(k_nudge, c_init_1, c_init_2, epochs=6, steps=30,
                    a_rate=0.95):
    # reference starts below the ensemble so the nudge has real work to do,
    # and a wide growth-rate spread keeps the members genuinely diverse
    cap, dt = 2.0, 0.1
    r_values = [0.5, 1.0, 1.5]
    gt = generate_gt(LogisticSystem(), LogisticParams(1.0, cap), 0.8, dt,
                     steps=steps, keep_every=1)

    def run(c_init):
        ens = SubModelEnsemble.identical_start(
            LogisticSystem(), [LogisticParams(r, cap) for r in r_values], 1.2)
        cm = CouplingMatrix.uniform(3, c_init, k_nudge=k_nudge, a_rate=a_rate)
        _trained, report = train(ens, cm, gt, dt, steps_per_epoch=steps,
                                 max_epochs=epochs, min_epochs=epochs,
                                 tol=1e-300, record_trajectories=True)
        return report

    return run(c_init_1), run(c_init_2)


class TestEmpiricalContraction:
    def test_identical_runs_report_zero(self):
        rep1, rep2 = paired_toy_runs(0.9, 0.5, 0.5)
        assert iterate_distances(rep1, rep2) == [0.0] * 6
        assert empirical_contraction_ratio(rep1, rep2) == 0.0

    def test_contracting_regime(self):
        rep1, rep2 = paired_toy_runs(0.9, 0.15, 0.25)
        ratios = contraction_ratios(rep1, rep2)
        assert all(r < 1.0 for r in ratios[1:])
        assert empirical_contraction_ratio(rep1, rep2) < 1.0

    def test_ratios_below_the_round_off_floor_are_dropped(self):
        # one member at 1 in both runs and one at 0 against the given
        # distance: the state norm is 1, so the floor is 1e3 * eps
        def pair(distances):
            reports = [TrainingReport(initial_c=np.zeros((2, 2)),
                                      c_history=[np.zeros((2, 2))] * len(distances),
                                      trajectory_history=[]) for _ in range(2)]
            for d in distances:
                reports[0].trajectory_history.append([np.array([1.0, 0.0])])
                reports[1].trajectory_history.append([np.array([1.0, d])])
            return reports

        # the only ratio >= 1, 4, comes from a distance of 1e-15
        rep1, rep2 = pair([1.0, 0.5, 0.25, 1e-15, 4e-15])
        assert iterate_distances(rep1, rep2) == [1.0, 0.5, 0.25, 1e-15, 4e-15]
        assert empirical_contraction_ratio(rep1, rep2) == 0.5
        # the same ratio from a distance above the floor counts
        rep1, rep2 = pair([1.0, 0.5, 0.25, 1e-12, 4e-12])
        assert empirical_contraction_ratio(rep1, rep2) == 4.0

    def test_overshooting_nudge_contracts_above_round_off(self):
        # K = 2 converges to round-off within a few epochs; its ratios >= 1
        # come from distances of about 1e-15 only
        rep1, rep2 = paired_toy_runs(2.0, 0.15, 0.25, epochs=20)
        assert empirical_contraction_ratio(rep1, rep2) < 1.0

    def test_unit_learning_rate_is_not_contracting(self):
        # with a_rate = 1 the coefficient updates are not damped: the paired
        # distance grows from 0.079 to 0.087 in epochs 3-4, far above round-off
        rep1, rep2 = paired_toy_runs(0.9, 0.15, 0.25, epochs=5, a_rate=1.0)
        assert min(iterate_distances(rep1, rep2)) > 1e-2
        assert empirical_contraction_ratio(rep1, rep2) >= 1.0

    def test_insufficient_epochs_rejected(self):
        rep1, rep2 = paired_toy_runs(0.9, 0.4, 0.6, epochs=2)
        with pytest.raises(ValueError):
            empirical_contraction_ratio(rep1, rep2)

    def test_requires_recorded_trajectories(self):
        gt = generate_gt(LogisticSystem(), LogisticParams(1.0, 2.0), 0.5, 0.1,
                         steps=4, keep_every=1)
        ens = SubModelEnsemble.identical_start(
            LogisticSystem(), [LogisticParams(1.0, 2.0)] * 2, 0.5)
        cm = CouplingMatrix.uniform(2, 0.5, k_nudge=0.9)
        _t, rep = train(ens, cm, gt, 0.1, 4, max_epochs=2, tol=1e-300, min_epochs=2)
        with pytest.raises(ValueError):
            iterate_distances(rep, rep)
