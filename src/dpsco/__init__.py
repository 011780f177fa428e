"""Differentially private stochastic convex optimization toolkit.

Linear-time private optimizers (growing-batch one-pass noisy SGD, iterative
localization by phases, strongly convex variants), the analytic Renyi-DP
accountant that certifies them, closed-form synthetic problem instances, and
an empirical harness that checks the analytic claims at desk scale.
"""

__version__ = "0.1.0"

from .accountant import (
    ApproxDP,
    PrivacyBudget,
    gaussian_renyi,
    pai_rho,
    rdp_to_dp,
    rdp_to_dp_general,
)
from .geometry import ConvexDomain, project
from .losses import (
    Dataset,
    LossFamily,
    SyntheticDistribution,
    absolute_deviation_uniform,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_gaussian,
    quadratic_point_mass,
    quadratic_sphere,
)
from .optimizers import (
    NoiseStream,
    PhaseRecord,
    RunRecord,
    phased_erm,
    phased_sgd,
    pnsgd,
    psgd,
    sc_reduction,
    sc_snowball,
    sc_weighted_sgd,
)
from .schedules import (
    Schedule,
    constant_step,
    jnn_steps,
    phase_plan,
    sc_weights,
    snowball_batches,
)
from .empirics import (
    CounterexampleReport,
    SweepResult,
    counterexample_empirical,
    counterexample_exact,
    default_k_grid,
    excess_loss_sweep,
    sensitivity_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
