"""Plain-Desync round counts in closed form, as an oracle for the batch runner.

The gap residual r of a single channel evolves by a circulant map whose
eigenvalues are lambda_j = 1 - alpha + alpha cos(2 pi j / n), so by Parseval
the objective after k rounds is

    g_k = (1 / 2n) sum_j |r_hat_j|^2 lambda_j^(2k),

with r_hat the FFT of the start's residual (Gray, "Toeplitz and Circulant
Matrices", 2006). g_k does not increase with k, so the first round with
g_k <= epsilon is found by bisection, capped as the runner caps. No
tolerance is allowed: each count must equal the batch runner's exactly.
"""

import numpy as np
import pytest

from desynclab.objectives import gap_residual
from desynclab.rounds import default_max_rounds
from desynclab.trials import initial_phase_batch, run_desync_batch

TRIALS = 50


def closed_form_rounds(phi0, alpha, epsilon, cap):
    """Per trial of a (trials, n) start batch, the first k with g_k <=
    epsilon, or cap when there is none up to cap."""
    n = phi0.shape[-1]
    power = np.abs(np.fft.fft(gap_residual(phi0))) ** 2 / (2 * n)
    lam2 = (1 - alpha + alpha * np.cos(2 * np.pi * np.arange(n) / n)) ** 2

    def crossed(k):
        return (power * lam2 ** k[:, None]).sum(axis=1) <= epsilon

    lo, hi = np.zeros(len(phi0), dtype=np.int64), np.full(len(phi0), cap, dtype=np.int64)
    while np.any(hi - lo > 1):  # g_lo > epsilon, and the first crossing is at most hi
        mid = (lo + hi) // 2
        ok = crossed(mid)
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    return np.where(crossed(np.zeros_like(lo)), 0, hi)


@pytest.mark.parametrize("n", [4, 7, 16])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
def test_batch_rounds_equal_closed_form(n, alpha, epsilon):
    phi0 = initial_phase_batch(n, TRIALS, seed_base=0)
    cap = default_max_rounds(n, alpha, epsilon)
    got = run_desync_batch(phi0, alpha, epsilon, cap)
    assert got.converged.all()
    assert np.array_equal(got.rounds, closed_form_rounds(phi0, alpha, epsilon, cap))


def test_capped_rounds_equal_closed_form():
    # a cap near the median round count: capped trials read the cap on both sides
    phi0 = initial_phase_batch(16, TRIALS, seed_base=1)
    got = run_desync_batch(phi0, 0.1, 1e-4, 220)
    assert 0 < got.converged.sum() < TRIALS
    assert np.array_equal(got.rounds, closed_form_rounds(phi0, 0.1, 1e-4, 220))
