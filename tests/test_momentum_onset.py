"""The closed-form momentum onset against a brute-force companion-matrix
scan, and the growth abort rule against float overflow.

For a round-map eigenvalue lam, round k of the accelerated iteration acts on
that mode by the companion matrix [[(1+m) lam, -m lam], [1, 0]] with
m = (k-1)/(k+2); the onset is the first k at which some Desync eigenvalue's
companion matrix has spectral radius above 1.
"""

import math
import warnings

import numpy as np
import pytest

from desynclab import (
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SingleChannelProblem,
    desync_objective,
    fast_desync_round,
    fast_sync_desync_round,
    multichannel_objective,
    run_until_convergence,
)
from desynclab.rounds import default_max_rounds, momentum_coefficient
from desynclab.spectral import desync_block_eigenvalues, momentum_onset
from desynclab.trials import (
    initial_multichannel_batch,
    initial_phase_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
)

SCAN_ROUNDS = 300
MARGIN = 1e-9


def circulant_spectrum(n, alpha):
    """Eigenvalues of the dense single-channel round matrix, less the one
    eigenvalue 1 of the translation mode."""
    eye = np.eye(n)
    M = (1.0 - alpha) * eye + (alpha / 2.0) * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1))
    lam = np.sort(np.linalg.eigvals(M).real)
    return lam[:-1]


def companion_radii(lam, rounds):
    """(rounds, len(lam)) spectral radii of the round-k companion matrices."""
    m = np.array([momentum_coefficient(k) for k in range(1, rounds + 1)])[:, None]
    C = np.zeros((rounds, lam.size, 2, 2))
    C[..., 0, 0] = (1.0 + m) * lam
    C[..., 0, 1] = -m * lam
    C[..., 1, 0] = 1.0
    return np.abs(np.linalg.eigvals(C)).max(axis=-1)


def scanned_onset(lam):
    """First k <= SCAN_ROUNDS with a companion radius above 1, or None; the
    radii must stay clear of 1 so the scan's answer is not a rounding tie."""
    radii = companion_radii(np.unique(np.round(lam, 12)), SCAN_ROUNDS).max(axis=1)
    assert np.all(np.abs(radii - 1.0) > MARGIN)
    hits = np.flatnonzero(radii > 1.0)
    return int(hits[0]) + 1 if hits.size else None


ALPHAS = (0.3, 0.61, 0.666, 0.69, 0.7103, 0.7391, 0.7777, 0.83, 0.91, 0.97)


@pytest.mark.parametrize("n", range(2, 41))
def test_single_channel_onset_equals_companion_scan(n):
    for alpha in ALPHAS:
        onset = momentum_onset(SingleChannelProblem(n, alpha, 1e-3))
        assert onset is None or onset <= SCAN_ROUNDS
        assert onset == scanned_onset(circulant_spectrum(n, alpha)), alpha


LAYOUTS = [(2, 2), (4, 4, 4), (3, 3, 3, 3, 3), (5, 5), (2, 5, 3), (4, 7), (6, 2, 9, 3), (16,) * 4]
BETAS = (0.2, 0.3, 0.345, 0.37, 0.39, 0.42, 0.455, 0.49)


@pytest.mark.parametrize("counts", LAYOUTS, ids=str)
def test_multichannel_onset_equals_companion_scan(counts, dense_desync_spectrum):
    for beta in BETAS:
        problem = MultichannelProblem(counts, beta, 0.6)
        onset = momentum_onset(problem)
        assert onset is None or onset <= SCAN_ROUNDS
        assert onset == scanned_onset(dense_desync_spectrum(problem)), beta


def alpha_limit(n, channels=1):
    """The closed-form limit: 2/3 for even n and (4/3) / (1 + cos(pi/n)) for
    odd n on one channel; (4/3) / (1 + cos(pi/n)) for n-node channels, the
    Desync blocks' cos(pi j / n) reaching -cos(pi/n) for every n."""
    if channels == 1 and n % 2 == 0:
        return 2.0 / 3.0
    return (4.0 / 3.0) / (1.0 + math.cos(math.pi / n))


def bisected_limit(spectrum):
    """The alpha at which the limiting (m -> 1) companion matrix of some
    eigenvalue of spectrum(alpha) first leaves the unit disc, by bisection."""
    lo, hi = 0.01, 0.99
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lam = spectrum(mid)
        C = np.zeros((lam.size, 2, 2))
        C[:, 0, 0], C[:, 0, 1], C[:, 1, 0] = 2.0 * lam, -lam, 1.0
        if np.abs(np.linalg.eigvals(C)).max() > 1.0:
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 16, 31, 40])
def test_alpha_limit_equals_bisection(n):
    limit = alpha_limit(n)
    assert bisected_limit(lambda a: circulant_spectrum(n, a)) == pytest.approx(limit, abs=1e-7)
    assert momentum_onset(SingleChannelProblem(n, limit * (1 - 1e-9), 1e-3)) is None
    assert momentum_onset(SingleChannelProblem(n, limit * (1 + 1e-6), 1e-3)) is not None


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 40])
def test_fast_much_alpha_limit_equals_bisection(n, dense_desync_spectrum):
    limit = alpha_limit(n, channels=3)

    def spectrum(alpha):
        return dense_desync_spectrum(MultichannelProblem.uniform(3, n, alpha / 2.0, 0.6))

    assert bisected_limit(spectrum) == pytest.approx(limit, abs=1e-7)
    below, above = limit / 2.0 * (1 - 1e-9), limit / 2.0 * (1 + 1e-6)
    assert momentum_onset(MultichannelProblem.uniform(3, n, below, 0.6)) is None
    assert momentum_onset(MultichannelProblem.uniform(3, n, above, 0.6)) is not None


def most_negative_desync_eigenvalue(problem):
    """In closed form, as the onset reads it: the float test sits on a tie,
    where a dense eigensolve's last bit can move the answer."""
    if isinstance(problem, MultichannelProblem):
        return min(desync_block_eigenvalues(n, problem.beta).min() for n in problem.channel_counts)
    j = np.arange(1, problem.n)
    return (1.0 - problem.alpha + problem.alpha * np.cos(2.0 * np.pi * j / problem.n)).min()


@pytest.mark.parametrize("problem, estimate", [
    (MultichannelProblem((3, 3), 0.44705882352941184, 0.6), 86),
    (MultichannelProblem((4, 4), 0.39282149346745393, 0.6), 86),
    (MultichannelProblem((3, 3), 0.4466019417475729, 0.6), 104),
    (SingleChannelProblem(2, 0.7777777777777778, 1e-3), 3),
], ids=["3x3-down", "4x4-down", "3x3-down-104", "n2-up"])
def test_onset_is_the_first_round_of_the_float_test(problem, estimate):
    # near a tie the closed-form estimate reads one round off the float
    # test, and the onset moves it: down in the first three cases, up in the last
    lam = float(most_negative_desync_eigenvalue(problem))
    assert math.floor(2.0 / (-1.0 - 3.0 * lam)) + 1 == estimate
    first = next(k for k in range(1, 10 * estimate)
                 if lam * (1.0 + 2.0 * (k - 1) / (k + 2)) < -1.0)
    assert first != estimate
    assert momentum_onset(problem) == first


def iterate(state, round_op, objective, epsilon, cap):
    """Rounds of `round_op` with no abort rule: (outcome, largest objective),
    outcome "overflow", "converged" or "capped"."""
    top = objective(state)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cap):
            state = round_op(state)
            v = objective(state)
            if not np.isfinite(v):
                return "overflow", top
            top = max(top, v)
            if v <= epsilon:
                return "converged", top
    return "capped", top


def check_rule(batch, starts, round_op, objective, epsilon, cap):
    """Every aborted trial overflows before the cap, and no converged trial
    ever rises above its start objective. Returns the number aborted."""
    for aborted, converged, state in zip(batch.aborted, batch.converged, starts):
        start = objective(state)
        outcome, top = iterate(state, round_op, objective, epsilon, cap)
        if aborted:
            assert outcome == "overflow"
        if converged:
            assert outcome == "converged" and top <= start
    return int(batch.aborted.sum())


@pytest.mark.parametrize("n", [4, 5, 16])
@pytest.mark.parametrize("alpha", [0.75, 0.8, 0.95])
def test_growth_aborts_only_overflowing_single_channel_trials(n, alpha):
    epsilon = 1e-4
    problem = SingleChannelProblem(n, alpha, epsilon)
    cap = default_max_rounds(n, alpha, epsilon)
    phi0 = initial_phase_batch(n, 8, seed_base=900)
    aborted = check_rule(
        run_fast_desync_batch(phi0, alpha, epsilon, cap),
        [NesterovState.initial(p) for p in phi0],
        lambda s: fast_desync_round(s, problem),
        lambda s: desync_objective(s.phi, problem),
        epsilon, cap,
    )
    # n = 5, alpha = 0.75 lies just past the limit 0.737: its onset is
    # round 29 and every trial converges
    assert (aborted > 0) == ((n, alpha) != (5, 0.75))


@pytest.mark.parametrize("C, n, alpha", [(2, 4, 0.8), (2, 5, 0.8), (3, 4, 0.95)])
def test_growth_aborts_only_overflowing_multichannel_trials(C, n, alpha):
    epsilon, beta, gamma = 1e-4, alpha / 2.0, 0.6
    problem = MultichannelProblem.uniform(C, n, beta, gamma)
    cap = default_max_rounds(C * n, alpha, epsilon)
    phi0 = initial_multichannel_batch(C, n, 6, seed_base=900)
    aborted = check_rule(
        run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=True),
        [MultichannelState.initial(list(p), nesterov=True) for p in phi0],
        lambda s: fast_sync_desync_round(s, problem),
        lambda s: multichannel_objective(s.phis, problem),
        epsilon, cap,
    )
    assert aborted > 0


def test_diverging_engine_run_aborts_without_warnings():
    problem = SingleChannelProblem(16, 0.8, 1e-4)
    phi0 = initial_phase_batch(16, 1, seed_base=0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="diverged at round"):
            run_until_convergence(NesterovState.initial(phi0), problem)

