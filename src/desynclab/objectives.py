"""Objective functions of the desynchronization problems.

The single-channel objective measures half the squared deviation of every
consecutive phase gap (including the wrap-around gap) from the ideal 1/n.
The multichannel objective sums that per channel and adds a consensus
penalty on the first node of each channel against the next channel's first
node, cyclically. Their gradients, which the rounds apply in closed form,
are test oracles (tests/oracles.py).
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


def _objective_sum(residuals, consensus: np.ndarray | None = None) -> float:
    """0.5 * r @ r summed over the per-channel residuals in channel order,
    starting from 0.0, plus 0.5 * d @ d of the first-node consensus
    differences when given. The engine's and the simulator's objectives both
    add up here, so the traces' objective bits depend on this order alone."""
    total = 0.0
    for r in residuals:
        total += 0.5 * float(r.dot(r))
    if consensus is not None:
        total += 0.5 * float(consensus.dot(consensus))
    return total


def desync_objective(phi, problem: SingleChannelProblem) -> float:
    """0.5 * || gap residual ||^2; zero exactly on the equispaced states."""
    return _objective_sum([gap_residual(as_phase_vector(phi, problem.n))])


def _channel_residuals(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each channel vector's gap residual, in channel order. Vectors of equal
    length take theirs from one gap_residual call on their stacked rows,
    which gives every row the bits of its own call."""
    residuals = [None] * len(vectors)
    for size in {vec.size for vec in vectors}:
        cs = [c for c, vec in enumerate(vectors) if vec.size == size]
        for c, r in zip(cs, gap_residual(np.array([vectors[c] for c in cs]))):
            residuals[c] = r
    return residuals


def multichannel_objective(phis: Sequence, problem: MultichannelProblem) -> float:
    """Sum of per-channel gap objectives plus the cyclic first-node consensus penalty."""
    phis = as_channel_vectors(phis, problem)
    first = np.array([p[0] for p in phis])
    return _objective_sum(_channel_residuals(phis), np.roll(first, -1) - first)
