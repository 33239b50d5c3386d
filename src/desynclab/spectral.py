"""Block iteration matrix of the joint sync-desync update and its spectrum.

The stacked update is phi' = M phi + b. Permuting Desync coordinates first
block-triangularizes M for any channel counts, so its spectrum is known in
closed form: the (n_c-1)x(n_c-1) tridiagonal Toeplitz Desync block of every
channel together with the CxC circulant consensus block. Deflating the single
eigenvalue 1 along its left eigenvector (the indicator of Sync coordinates)
removes exactly the consensus block's eigenvalue 1, so `spectral_report`
certifies convergence from the formulas alone, with no matrix and no size
limit. The dense M of `build_iteration_matrix` is the oracle the tests check
the closed form against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import MultichannelProblem, SingleChannelProblem

# The dense matrix is a small-N oracle; anything bigger is out of scope.
MAX_MATRIX_SIZE = 4096
# distance from 1 within which spectral_report counts an eigenvalue as 1
ONE_TOL = 1e-9


def build_iteration_matrix(problem: MultichannelProblem) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (M, b) for the stacked update phi' = M phi + b.

    Per channel: row 0 averages with the next channel's first node
    (weights 1-gamma / gamma); rows 1..n-1 are the in-channel Desync rows
    (beta, 1-2*beta, beta with cyclic neighbours); b holds beta at each
    channel's last node, the wrap-around correction.
    """
    counts = problem.channel_counts
    beta, gamma = problem.beta, problem.gamma
    N = problem.total_nodes
    if N > MAX_MATRIX_SIZE:
        raise ValueError(f"matrix size {N} exceeds supported maximum {MAX_MATRIX_SIZE}")
    offsets = problem.offsets()
    C = problem.num_channels
    M = np.zeros((N, N))
    b = np.zeros(N)
    for c, n in enumerate(counts):
        o = offsets[c]
        nxt = offsets[(c + 1) % C]
        M[o, o] = 1.0 - gamma
        M[o, nxt] += gamma
        for i in range(1, n):
            r = o + i
            M[r, r] += 1.0 - 2.0 * beta
            M[r, o + (i - 1)] += beta
            M[r, o + ((i + 1) % n)] += beta
        b[o + n - 1] = beta
    return M, b


def desync_block_eigenvalues(n: int, beta: float) -> np.ndarray:
    """Analytic spectrum of the (n-1)x(n-1) tridiagonal Toeplitz Desync block:
    1 - 2 beta + 2 beta cos(pi j / n), j = 1..n-1."""
    j = np.arange(1, n)
    return 1.0 - 2.0 * beta + 2.0 * beta * np.cos(np.pi * j / n)


def consensus_block_eigenvalues(C: int, gamma: float) -> np.ndarray:
    """Analytic spectrum of the CxC circulant consensus block:
    1 - gamma + gamma exp(2 pi i j / C), j = 1..C (j = C gives 1)."""
    j = np.arange(1, C + 1)
    return 1.0 - gamma + gamma * np.exp(2j * np.pi * j / C)


def momentum_onset(problem: SingleChannelProblem | MultichannelProblem) -> int | None:
    """First round k at which the accelerated iteration of `problem` is
    unstable, or None when it is stable at every k.

    A Desync eigenvalue lam under momentum m_k = (k-1)/(k+2) evolves by the
    companion recurrence z^2 - (1+m_k) lam z + m_k lam, whose roots leave the
    unit disc through -1 once lam (1 + 2 m_k) < -1. With 1 + 2 m_k =
    3k/(k+2) that is k > 2 / (-1 - 3 lam), so only lam < -1/3 ever turns
    unstable, and the most negative eigenvalue turns first. Single channel:
    lam_j = 1 - alpha + alpha cos(2 pi j / n), j = 1..n-1, which gives the
    limit alpha < 2/3 for even n and alpha < (4/3) / (1 + cos(pi/n)) for
    odd n. Multichannel: every channel's Desync block with alpha = 2 beta;
    the consensus block carries no momentum."""
    if isinstance(problem, MultichannelProblem):
        lam = min(desync_block_eigenvalues(n, problem.beta).min() for n in problem.channel_counts)
    else:
        j = np.arange(1, problem.n)
        lam = (1.0 - problem.alpha + problem.alpha * np.cos(2.0 * np.pi * j / problem.n)).min()
    lam = float(lam)
    if 3.0 * lam + 1.0 >= 0.0:
        return None

    def unstable(k: int) -> bool:
        return lam * (1.0 + 2.0 * (k - 1) / (k + 2)) < -1.0

    # the first integer above 2 / (-1 - 3 lam), moved onto the float test
    # where rounding puts it one step off
    k = max(1, math.floor(2.0 / (-1.0 - 3.0 * lam)) + 1)
    for _ in range(2):
        if k > 1 and unstable(k - 1):
            k -= 1
        elif not unstable(k):
            k += 1
    return k


@dataclass
class SpectralReport:
    """Closed-form spectral data for the joint iteration matrix."""

    eigenvalues_M: np.ndarray
    spectral_radius_deflated: float
    converges: bool
    eigenvalue_one_multiplicity: int


def _match_spectra(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest pairing distance between two multisets of eigenvalues."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(analytic[:, None] - numeric[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectral_report(problem: MultichannelProblem) -> SpectralReport:
    """Spectrum of M from its blocks, in O(sum n_c + C): each channel's
    Desync block, then the consensus block, whose last eigenvalue (j = C) is
    the one deflated away."""
    desync = [desync_block_eigenvalues(n, problem.beta) for n in problem.channel_counts]
    consensus = consensus_block_eigenvalues(problem.num_channels, problem.gamma)
    eig_M = np.concatenate([*desync, consensus])
    rho = float(np.max(np.abs(eig_M[:-1])))
    return SpectralReport(
        eigenvalues_M=eig_M,
        spectral_radius_deflated=rho,
        converges=rho < 1.0,
        eigenvalue_one_multiplicity=int(np.sum(np.abs(eig_M - 1.0) <= ONE_TOL)),
    )
