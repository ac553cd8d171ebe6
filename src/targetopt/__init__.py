"""Target-space surrogate optimization library.

Builds smoothness surrogates in a model's output (target) space,
minimizes them with cheap inner iterations to amortize expensive
gradient-oracle calls, and ships parametric baselines plus a
verification and benchmarking harness.
"""

from .data import Dataset, SyntheticSpec, generate_synthetic, parse_libsvm, to_libsvm
from .losses import (
    LogisticLoss, MulticlassKLLoss, SquaredLoss, kl_to_expert, loss_value, make_loss,
)
from .models import LinearModel, MLPModel, SoftmaxLinearModel, make_model, spectral_norm
from .surrogates import (
    Batch, OracleCounter, Surrogate, build_analysis_q, build_deterministic, build_stochastic,
    freeze,
)
from .inner_solvers import armijo_backtracking, exact_linear_solve, gd_fixed
from .schedules import target_line_search, theoretical_eta0
from .optimizers import (
    InnerOptions, RunConfig, RunTrace, ScheduleOptions, run, theoretical_parametric_step,
)

__version__ = "0.1.0"
