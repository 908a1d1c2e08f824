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
        ens = SubModelEnsemble(
            LogisticSystem(), [LogisticParams(r, cap) for r in r_values], 1.2)
        cm = CouplingMatrix.uniform(3, c_init, k_nudge=k_nudge, a_rate=a_rate)
        _trained, report = train(ens, cm, gt, dt, steps_per_epoch=steps,
                                 max_epochs=epochs, min_epochs=epochs,
                                 tol=1e-300)
        return report

    return run(c_init_1), run(c_init_2)


class TestEmpiricalContraction:
    def test_identical_runs_report_zero(self):
        rep1, rep2 = paired_toy_runs(0.9, 0.5, 0.5)
        assert iterate_distances(rep1, rep2) == [0.0] * 6
        assert empirical_contraction_ratio(rep1, rep2) == 0.0

    def test_contracting_regime(self):
        # every epoch-end coefficient, the iterate the distances read, lies
        # strictly inside the clamps (0.110-0.199), so the runs are not
        # clamped together and the distances, 3.8e-3 down to 3.4e-13,
        # measure the map itself
        rep1, rep2 = paired_toy_runs(2.0, 0.4, 0.6, a_rate=0.9)
        offdiag = ~np.eye(3, dtype=bool)
        for c in rep1.c_history + rep2.c_history:
            assert np.all((c[offdiag] > 0.1) & (c[offdiag] < 0.9))
        distances = iterate_distances(rep1, rep2)
        assert all(d > 0.0 for d in distances)
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert empirical_contraction_ratio(rep1, rep2) < 1.0

    def test_ratios_below_the_round_off_floor_are_dropped(self):
        # one coefficient at 1 in both runs and one at 0 against the given
        # distance: the largest |C_ij| is 1, so the floor is 1e3 * eps
        def pair(distances):
            return (TrainingReport(c_history=[np.array([[1.0, 0.0]]) for _d in distances]),
                    TrainingReport(c_history=[np.array([[1.0, d]]) for d in distances]))

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
        # distance grows from 0.069 to 0.076 in epochs 3-5, far above round-off
        rep1, rep2 = paired_toy_runs(0.9, 0.15, 0.25, epochs=5, a_rate=1.0)
        assert min(iterate_distances(rep1, rep2)) > 1e-2
        assert empirical_contraction_ratio(rep1, rep2) >= 1.0

    def test_insufficient_epochs_rejected(self):
        rep1, rep2 = paired_toy_runs(0.9, 0.4, 0.6, epochs=2)
        with pytest.raises(ValueError):
            empirical_contraction_ratio(rep1, rep2)
