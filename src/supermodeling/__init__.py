"""Synchronized-ensemble data assimilation (supermodeling).

An ensemble of imperfect sub-models is stepped in lockstep, coupled to each
other through trainable coefficients on one dynamic variable and nudged
toward reference data.  The trained ensemble average tracks the reference
better than any single member.  A 3-D tumor progression model serves as the
reference dynamical system.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where the environment does not set them, before
anything in it imports NumPy.  The norms and coupling products go through
BLAS, whose sums may take another order with another thread count, so one
thread makes a run's CSVs the same bits on every host and in every engine
process.  A BLAS thread would also compete with the member workers for the
second CPU.  A host program that imported NumPy before this package keeps
its own thread pool, and processes started after the import inherit the
settings.
"""

import os as _os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

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
    explicit_step,
    logistic_tendency,
)
from .tumor import (
    TumorParams,
    TumorSystem,
    compute_flux,
    gaussian_bump_state,
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
from .theory import empirical_contraction_ratio
from .experiments import ExperimentConfig, instantiate_submodels, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
