"""Worst-case firing-round bounds for plain and accelerated desynchronization.

Plain gradient descent needs O(1/epsilon) rounds; the accelerated variant
needs O(1/sqrt(epsilon)). Both bounds come in a distance-aware form (given
the squared distance from the start to the solution set) and a worst-case
form that only uses n, alpha, epsilon.
"""

from __future__ import annotations

import warnings

import numpy as np

from .problems import SingleChannelProblem, as_phase_vector

# Guarantee range for the accelerated bound; outside it the value is still
# computed but flagged (step size exceeds the 1/L regime).
FAST_GUARANTEE_ALPHA_MAX = 0.5


def solution_distance(phi0, problem: SingleChannelProblem) -> float:
    """Squared distance from phi0 to the solution set {equispaced + z*ones}.

    The set is a line along the all-ones direction, so the minimum removes
    the mean of the residual against the equispaced representative.
    """
    phi0 = as_phase_vector(phi0, problem.n)
    r = problem.reference_solution() - phi0
    r = r - r.mean()
    return float(r @ r)


def worst_case_distance_sq(n: int) -> float:
    """Upper bound on the squared start-to-solution distance over [0,1]^n starts:
    (3.5 n^2 + 3 n + 4) / (3 n)."""
    return (3.5 * n * n + 3.0 * n + 4.0) / (3.0 * n)


def desync_round_bound(
    problem: SingleChannelProblem,
    g0: float | None = None,
    dist_sq: float | None = None,
) -> float:
    """Upper bound on plain-Desync rounds to reach objective <= epsilon.

    With dist_sq (from solution_distance) the tight form
    dist_sq / (2 alpha (1-alpha)) * (1/eps - 1/g0) is used; without it the
    worst-case distance bound is substituted. A missing g0 drops the 1/g0
    term, which only loosens the bound.
    """
    alpha, eps, n = problem.alpha, problem.epsilon, problem.n
    if g0 is not None and eps >= g0:
        return 0.0
    accuracy_term = 1.0 / eps - (1.0 / g0 if g0 is not None else 0.0)
    base = dist_sq if dist_sq is not None else worst_case_distance_sq(n)
    return base / (2.0 * alpha * (1.0 - alpha)) * accuracy_term


def fast_desync_round_bound(
    problem: SingleChannelProblem,
    dist: float | None = None,
) -> float:
    """Upper bound on accelerated-Desync rounds: (2 / sqrt(alpha eps)) * distance.

    dist is the plain (not squared) start-to-solution distance; without it
    the worst-case distance is substituted. Outside alpha <= 1/2 the bound
    is not guaranteed and a warning is emitted.
    """
    alpha, eps, n = problem.alpha, problem.epsilon, problem.n
    if alpha > FAST_GUARANTEE_ALPHA_MAX:
        warnings.warn(
            f"accelerated round bound not guaranteed for alpha={alpha} > 1/2; "
            "computing it anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    if dist is None:
        dist = float(np.sqrt(worst_case_distance_sq(n)))
    return 2.0 / np.sqrt(alpha * eps) * dist
