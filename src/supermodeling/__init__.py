"""Synchronized-ensemble data assimilation (supermodeling).

An ensemble of imperfect sub-models is stepped in lockstep, coupled to each
other through trainable coefficients on one dynamic variable and nudged
toward reference data.  The trained ensemble average tracks the reference
better than any single member.  A 3-D tumor progression model serves as the
reference dynamical system, and contraction diagnostics report whether a
configuration sits in the provably convergent regime.
"""

from .fields import (
    BlowUpError,
    GridSpec,
    l2_norm,
    max_over_time,
    taxi_ensemble_distance,
    volume_inner,
    volume_integral,
)
from .dynamics import (
    DynamicalSystem,
    LinearSystem,
    LogisticParams,
    LogisticSystem,
    estimate_lipschitz,
    explicit_step,
    logistic_tendency,
)
from .tumor import (
    TumorParams,
    TumorSystem,
    compute_flux,
    gaussian_bump_state,
    stability_monitor,
    tumor_tendency,
    tumor_volumes,
    vessel_free_mask,
)
from .engine import (
    CouplingMatrix,
    SubModelEnsemble,
    TrainingAborted,
    TrainingReport,
    coupled_step,
    simulate,
    supermodel_output,
    train,
    update_coupling,
)
from .groundtruth import GroundTruth, error_metrics, generate_gt, gt_at, load_gt, save_gt
from .theory import (
    ContractionReport,
    alpha_const,
    beta_const,
    cij_update_max_form,
    empirical_contraction_ratio,
    gamma_const,
    make_contraction_report,
    rate_bound,
)
from .experiments import (
    ExperimentConfig,
    cfl_sweep,
    count_sign_changes,
    instantiate_submodels,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
