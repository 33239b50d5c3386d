"""Objective functions of the desynchronization problems.

The single-channel objective measures half the squared deviation of every
consecutive phase gap (including the wrap-around gap) from the ideal 1/n.
The multichannel objective sums that per channel and adds a consensus
penalty on the first node of each channel against the next channel's first
node, cyclically. Every objective is summed here, in one arithmetic
(gap_terms) but for the batch loop's multichannel sum. Their gradients,
which the rounds apply in closed form, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .problems import (
    MultichannelProblem,
    SingleChannelProblem,
    as_channel_vectors,
    as_phase_vector,
)


def gap_residual(phi: np.ndarray) -> np.ndarray:
    """Consecutive-gap residual: (phi[i+1] - phi[i]) - 1/n, with the wrap gap
    phi[0] + 1 - phi[n-1] in the last slot. Works on a trailing axis; the
    differences run on the flattened array, and the one they get wrong in
    the last slot of each row is overwritten by the wrap gap."""
    n = phi.shape[-1]
    r = np.empty(phi.shape)
    flat, last = phi.reshape(-1), r[..., -1]
    np.subtract(flat[1:], flat[:-1], out=r.reshape(-1)[:-1])  # roll(phi, -1) - phi
    np.subtract(phi[..., 0], phi[..., -1], out=last)
    np.add(last, 1.0, out=last)
    r -= 1.0 / n
    return r


def gap_terms(phi: np.ndarray) -> np.ndarray:
    """0.5 * r @ r of the gap residual along the last axis, per row, by
    np.vecdot: every row, stacked or strided, gets its own ndarray.dot bits."""
    r = gap_residual(phi)
    return 0.5 * np.vecdot(r, r)


def desync_objective(phi, problem: SingleChannelProblem) -> float:
    """0.5 * || gap residual ||^2; zero exactly on the equispaced states."""
    return float(gap_terms(as_phase_vector(phi, problem.n)))


def channel_objective(vectors: Sequence[np.ndarray], consensus=None) -> float:
    """The channel vectors' gap terms (one gap_terms call per length) added
    in channel order from 0.0, plus 0.5 * d @ d of the first-node consensus
    differences if given: the one order of the engine's and simulator's."""
    terms = {}
    for size in {vec.size for vec in vectors}:
        cs = [c for c, vec in enumerate(vectors) if vec.size == size]
        terms.update(zip(cs, gap_terms(np.array([vectors[c] for c in cs])).tolist()))
    total = 0.0
    for c in range(len(vectors)):
        total += terms[c]
    if consensus is not None:
        total += 0.5 * float(consensus.dot(consensus))
    return total


def multichannel_objective(phis: Sequence, problem: MultichannelProblem) -> float:
    """Sum of per-channel gap objectives plus the cyclic first-node consensus penalty."""
    phis = as_channel_vectors(phis, problem)
    first = np.array([p[0] for p in phis])
    return channel_objective(phis, np.roll(first, -1) - first)


def batch_multichannel_objective(phi: np.ndarray) -> np.ndarray:
    """Joint objective for a ([rounds,] trials, C, n) batch: the one second
    summation order, numpy's pairwise sum over each trial's C * n squared
    residuals. Per-channel vecdot sums would match channel_objective, but
    made the 16 x 4-node CLI sweep 17-37 % slower (a BLAS call per row)."""
    r = gap_residual(phi)
    r *= r
    per_channel = 0.5 * r.sum(axis=(-2, -1))
    first = phi[..., 0]
    d = np.empty(first.shape)
    np.subtract(first[..., 1:], first[..., :-1], out=d[..., :-1])  # roll(first, -1) - first
    np.subtract(first[..., 0], first[..., -1], out=d[..., -1])
    d *= d
    return per_channel + 0.5 * d.sum(axis=-1)
