"""The shift-allocation view of privacy amplification by iteration: a test
oracle for ``dpsco.accountant.pai_rho``. Each step's neighbouring maps differ
by a shift; allocating that shift over the later steps' Gaussian noise gives
a Renyi divergence bound, and the best allocation of one step's shift gives
that step's term of rho."""

from dataclasses import dataclass

import numpy as np

from dpsco.accountant import gaussian_renyi

# z_T = 0 is checked against accumulated float error of the shift sums.
_SLACK_TOL = 1e-12


class InvalidAllocationError(ValueError):
    """A shift allocation front-loads more shift than has occurred."""


@dataclass(frozen=True)
class ShiftSequence:
    """Per-step map-divergence suprema ``shifts`` and their allocation.

    The running slack z_t = sum_{i<=t} shifts_i - sum_{i<=t} allocation_i must
    stay nonnegative for the allocation to be admissible; an exact allocation
    drives z_T to 0.
    """

    shifts: tuple[float, ...]
    allocation: tuple[float, ...]

    def __post_init__(self):
        if len(self.shifts) != len(self.allocation):
            raise InvalidAllocationError("shifts and allocation must have equal length")
        if any(s < 0 for s in self.shifts):
            raise InvalidAllocationError("shifts must be nonnegative")

    def slack(self) -> np.ndarray:
        return np.cumsum(self.shifts) - np.cumsum(self.allocation)

    def validate(self) -> None:
        z = self.slack()
        scale = max(1.0, float(np.max(np.abs(np.cumsum(self.shifts))))) if self.shifts else 1.0
        if np.any(z < -_SLACK_TOL * scale):
            raise InvalidAllocationError(
                f"allocation front-loads shift: min slack {float(np.min(z))}"
            )


def pai_divergence_general(
    shifts: ShiftSequence, noise_sigmas, alpha: float
) -> float:
    """Renyi divergence bound for a contractive noisy iteration whose step
    maps differ by ``shifts``, under the supplied allocation: the sum of the
    per-step Gaussian divergences at the allocated shifts."""
    sigmas = [float(s) for s in noise_sigmas]
    if len(sigmas) != len(shifts.shifts):
        raise InvalidAllocationError("noise_sigmas length must match the shift sequence")
    shifts.validate()
    return sum(gaussian_renyi(a, s, alpha) for a, s in zip(shifts.allocation, sigmas))


def optimal_single_shift_allocation(shift: float, step_index: int, noise_sigmas) -> ShiftSequence:
    """Spread a single step's shift over all subsequent noise, proportionally
    to each step's noise variance.

    ``step_index`` is 0-based. The allocation a_i = shift * sigma_i^2 /
    sum_{v >= step_index} sigma_v^2 (zero before the shift) is admissible and
    exact, and minimizes the summed Gaussian divergence.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    sigmas = np.asarray([float(s) for s in noise_sigmas], dtype=np.float64)
    T = sigmas.shape[0]
    if not 0 <= step_index < T:
        raise IndexError(f"step_index {step_index} out of range for {T} steps")
    shift_list = [0.0] * T
    shift_list[step_index] = float(shift)
    tail = sigmas[step_index:] ** 2
    total = float(np.sum(tail))
    alloc = [0.0] * T
    if shift > 0:
        if total == 0.0:
            raise InvalidAllocationError("no noise after the shifted step")
        for i in range(step_index, T):
            alloc[i] = shift * float(sigmas[i] ** 2) / total
    return ShiftSequence(tuple(shift_list), tuple(alloc))
