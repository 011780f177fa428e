"""The public API: the names ``dpsco`` exports and the signatures of its
optimizers. A change to either is a change for every caller, so it shows
here first."""

import inspect

import pytest

import dpsco

EXPORTED = [
    "ApproxDP", "ConvexDomain", "CounterexampleReport", "Dataset", "LossFamily",
    "NoiseStream", "PhaseRecord", "PrivacyBudget", "RunRecord", "Schedule",
    "SweepResult", "SyntheticDistribution", "absolute_deviation_uniform", "accountant",
    "constant_step", "counterexample_empirical", "counterexample_exact",
    "default_k_grid", "empirics", "excess_loss_sweep", "gaussian_renyi", "geometry",
    "jnn_steps", "linear_regression_sphere", "logistic_sphere", "losses", "optimizers",
    "pai_rho", "phase_plan", "phased_erm", "phased_sgd", "pnsgd", "project", "psgd",
    "quadratic_gaussian", "quadratic_point_mass", "quadratic_sphere", "rdp_to_dp",
    "rdp_to_dp_general", "sc_reduction", "sc_snowball", "sc_weighted_sgd", "sc_weights",
    "schedules", "sensitivity_probe", "snowball_batches",
]

_HEAD = "data: 'Dataset', loss: 'LossFamily', domain: 'ConvexDomain', w0"
SIGNATURES = {
    "pnsgd": f"({_HEAD}, schedule: 'Schedule', noise: 'NoiseStream') -> 'RunRecord'",
    "psgd": f"({_HEAD}, step_sizes) -> 'RunRecord'",
    "phased_sgd": f"({_HEAD}, eta: 'float', rho: 'float', noise: 'NoiseStream', "
                  "sigma_scale: 'float' = 1.0) -> 'RunRecord'",
    "phased_erm": f"({_HEAD}, eta: 'float', epsilon: 'float', delta: 'float', "
                  "noise: 'NoiseStream', inner: 'str' = 'sgd', sigma_scale: 'float' = 1.0) "
                  "-> 'RunRecord'",
    "sc_reduction": f"({_HEAD}, inner: 'Callable[[Dataset, LossFamily, ConvexDomain, "
                    "np.ndarray, NoiseStream], RunRecord]', noise: 'NoiseStream') "
                    "-> 'RunRecord'",
    "sc_weighted_sgd": f"({_HEAD}, T: 'int', noise_scale: 'float', "
                       "noise: 'NoiseStream | None' = None, eta: 'float | None' = None) "
                       "-> 'RunRecord'",
    "sc_snowball": f"({_HEAD}, T: 'int', d: 'int', rho: 'float', noise: 'NoiseStream', "
                   "eta: 'float | None' = None, sigma: 'float | None' = None) -> 'RunRecord'",
}


def test_exported_names():
    assert sorted(dpsco.__all__) == EXPORTED


@pytest.mark.parametrize("name", SIGNATURES)
def test_optimizer_signature(name):
    assert str(inspect.signature(getattr(dpsco, name))) == SIGNATURES[name]
