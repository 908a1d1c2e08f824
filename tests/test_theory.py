import numpy as np
import pytest

from supermodeling.dynamics import LogisticParams, LogisticSystem
from supermodeling.engine import CouplingMatrix, SubModelEnsemble, TrainingReport, train
from supermodeling.groundtruth import generate_gt
from supermodeling.theory import empirical_contraction_ratio, iterate_distances


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
        distances = iterate_distances(rep1, rep2)
        # from the second distance on, each one shrinks or stays at 0
        assert all(b < a or b == 0.0 for a, b in zip(distances[1:], distances[2:]))
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
