"""The public API: the names ``dpsco`` exports and the signature of every
exported callable. A change to either is a change for every caller, so it
shows here first."""

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
_NONE = "-> None"
SIGNATURES = {
    "ApproxDP": f"(epsilon: 'float', delta: 'float') {_NONE}",
    "ConvexDomain": "(kind: 'str', center: 'np.ndarray | None' = None, radius: 'float | None' = "
                    "None, lower: 'np.ndarray | None' = None, upper: 'np.ndarray | None' = None) "
                    f"{_NONE}",
    "CounterexampleReport": "(T: 'int', k: 'int', sigma: 'float', x0_offset: 'float', "
                            f"mean_shift: 'float', variance: 'float') {_NONE}",
    "Dataset": f"(features: 'np.ndarray', targets: 'np.ndarray | None' = None) {_NONE}",
    "LossFamily": "(kind: 'str', lipschitz: 'float', smoothness: 'float', "
                  f"strong_convexity: 'float') {_NONE}",
    "NoiseStream": "(seed: 'int')",
    "PhaseRecord": "(index: 'int', samples: 'int', noise_scale: 'float', "
                   f"iterate: 'np.ndarray') {_NONE}",
    "PrivacyBudget": f"(rho: 'float') {_NONE}",
    "RunRecord": "(final_iterate: 'np.ndarray', weighted_average: 'np.ndarray | None', "
                 "gradient_evaluations: 'int', phase_log: 'tuple[PhaseRecord, ...]', "
                 "rng_seed: 'int | None', declared_budget: 'PrivacyBudget | ApproxDP | None') "
                 f"{_NONE}",
    "Schedule": "(batch_sizes: 'np.ndarray', step_sizes: 'np.ndarray', "
                f"noise_scales: 'np.ndarray') {_NONE}",
    "SweepResult": "(n: 'int', d: 'int', rho: 'float', algorithm: 'str', trials: 'int', "
                   "mean_excess: 'float', std_err: 'float', theory_bound: 'float', "
                   f"bound_ratio: 'float', declared_rho: 'float | None') {_NONE}",
    "SyntheticDistribution": "(name: 'str', loss: 'LossFamily', domain: 'ConvexDomain', "
                             "sampler: 'str', params: 'dict[str, Any]' = <factory>, "
                             f"minimizer: 'np.ndarray | None' = None) {_NONE}",
    "absolute_deviation_uniform": "(domain: 'ConvexDomain', median: 'float', "
                                  "half_width: 'float') -> 'SyntheticDistribution'",
    "constant_step": "(T: 'int', D: 'float', L_G: 'float') -> 'tuple[float, ...]'",
    "counterexample_empirical": "(T: 'int', k: 'int', sigma: 'float', trials: 'int', "
                                "seed: 'int', x0_magnitude: 'float' = 1.0) "
                                "-> 'DistinguishingReport'",
    "counterexample_exact": "(T: 'int', k: 'int', sigma: 'float', x0_offset: 'float') "
                            "-> 'CounterexampleReport'",
    "default_k_grid": "(T: 'int') -> 'list[int]'",
    "excess_loss_sweep": "(dist: 'SyntheticDistribution', algorithm: 'str | SweepAlgorithm', "
                         "grid, trials: 'int', seed: 'int', sigma_scale: 'float' = 1.0, "
                         "grid_index_base: 'int' = 0) -> 'list[SweepResult]'",
    "gaussian_renyi": "(shift: 'float', sigma: 'float', alpha: 'float') -> 'float'",
    "jnn_steps": "(T: 'int', c: 'float') -> 'tuple[float, ...]'",
    "linear_regression_sphere": "(domain: 'ConvexDomain', feature_radius: 'float', w_true, "
                                "noise_half_width: 'float') -> 'SyntheticDistribution'",
    "logistic_sphere": "(domain: 'ConvexDomain', feature_radius: 'float', w_ref) "
                       "-> 'SyntheticDistribution'",
    "pai_rho": "(schedule: 'Schedule', lipschitz: 'float') -> 'PrivacyBudget'",
    "phase_plan": "(n: 'int', eta0: 'float') -> 'list[tuple[int, float]]'",
    "phased_erm": f"({_HEAD}, eta: 'float', epsilon: 'float', delta: 'float', "
                  "noise: 'NoiseStream', inner: 'str' = 'sgd', sigma_scale: 'float' = 1.0) "
                  "-> 'RunRecord'",
    "phased_sgd": f"({_HEAD}, eta: 'float', rho: 'float', noise: 'NoiseStream', "
                  "sigma_scale: 'float' = 1.0) -> 'RunRecord'",
    "pnsgd": f"({_HEAD}, schedule: 'Schedule', noise: 'NoiseStream') -> 'RunRecord'",
    "project": "(domain: 'ConvexDomain', point) -> 'np.ndarray'",
    "psgd": f"({_HEAD}, step_sizes) -> 'RunRecord'",
    "quadratic_gaussian": "(domain: 'ConvexDomain', mean, sigma: 'float') "
                          "-> 'SyntheticDistribution'",
    "quadratic_point_mass": "(domain: 'ConvexDomain', center) -> 'SyntheticDistribution'",
    "quadratic_sphere": "(domain: 'ConvexDomain', center, data_radius: 'float') "
                        "-> 'SyntheticDistribution'",
    "rdp_to_dp": "(budget: 'PrivacyBudget', delta: 'float') -> 'float'",
    "rdp_to_dp_general": "(budget: 'PrivacyBudget', delta: 'float', "
                         "alpha: 'float | None' = None) -> 'float'",
    "sc_reduction": f"({_HEAD}, inner: 'Callable[[Dataset, LossFamily, ConvexDomain, "
                    "np.ndarray, NoiseStream], RunRecord]', noise: 'NoiseStream') "
                    "-> 'RunRecord'",
    "sc_snowball": f"({_HEAD}, T: 'int', d: 'int', rho: 'float', noise: 'NoiseStream', "
                   "eta: 'float | None' = None, sigma: 'float | None' = None) -> 'RunRecord'",
    "sc_weighted_sgd": f"({_HEAD}, T: 'int', noise_scale: 'float', "
                       "noise: 'NoiseStream | None' = None, eta: 'float | None' = None) "
                       "-> 'RunRecord'",
    "sc_weights": "(T: 'int', eta: 'float', lam: 'float') -> 'np.ndarray'",
    "sensitivity_probe": "(dist: 'SyntheticDistribution', n: 'int', eta: 'float', "
                         "num_pairs: 'int', seed: 'int') -> 'ProbeReport'",
    "snowball_batches": "(T: 'int', d: 'int', rho: 'float', multiplier: 'float' = 2.0) "
                        "-> 'tuple[int, ...]'",
}


def test_exported_names():
    assert sorted(dpsco.__all__) == EXPORTED


def test_every_exported_callable_has_a_signature_here():
    assert sorted(SIGNATURES) == [name for name in EXPORTED if callable(getattr(dpsco, name))]


@pytest.mark.parametrize("name", SIGNATURES)
def test_signature(name):
    assert str(inspect.signature(getattr(dpsco, name))) == SIGNATURES[name]
