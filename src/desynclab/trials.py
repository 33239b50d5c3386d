"""Vectorized trial batches for the sweep harness.

Trials are stacked along a leading batch axis; every per-trial arithmetic
operation is elementwise, so results are identical to running the round
engine one trial at a time (tests pin that equality). Seeding is per trial
(seed_base + trial index), which makes results invariant to batch size and
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import gap_residual
from .problems import beta_to_alpha, wrap_bias
from .rounds import desync_map, momentum_coefficient, sync_map

TIE_JITTER = 1e-12


def sample_initial_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted i.i.d. uniform [0,1) offsets; exact ties get a seed-derived nudge."""
    phi = np.sort(rng.random(n))
    while np.any(np.diff(phi) == 0.0):
        dup = np.concatenate(([False], np.diff(phi) == 0.0))
        phi[dup] += TIE_JITTER * (1.0 + rng.random(int(dup.sum())))
        phi = np.sort(phi)
    return phi


def initial_phase_batch(n: int, trials: int, seed_base: int) -> np.ndarray:
    return np.stack(
        [sample_initial_phases(np.random.default_rng(seed_base + t), n) for t in range(trials)]
    )


def initial_multichannel_batch(
    channels: int, nodes_per_channel: int, trials: int, seed_base: int
) -> np.ndarray:
    """(trials, C, n) batch; each channel independently sorted uniform."""
    out = np.empty((trials, channels, nodes_per_channel))
    for t in range(trials):
        rng = np.random.default_rng(seed_base + t)
        for c in range(channels):
            out[t, c] = sample_initial_phases(rng, nodes_per_channel)
    return out


def batch_gap_objective(phi: np.ndarray) -> np.ndarray:
    """Single-channel objective along the last axis of a (trials, n) batch."""
    r = gap_residual(phi)
    return 0.5 * np.sum(r * r, axis=-1)


def batch_multichannel_objective(phi: np.ndarray) -> np.ndarray:
    """Joint objective for a (trials, C, n) batch."""
    r = gap_residual(phi)
    per_channel = 0.5 * np.sum(r * r, axis=(1, 2))
    first = phi[:, :, 0]
    d = np.roll(first, -1, axis=1) - first
    return per_channel + 0.5 * np.sum(d * d, axis=1)


@dataclass
class TrialBatchResult:
    rounds: np.ndarray      # per-trial rounds to convergence (= max_rounds if not converged)
    converged: np.ndarray   # per-trial flag
    aborted: np.ndarray     # per-trial non-finite-objective flag

    @property
    def ok(self) -> bool:
        return bool(self.converged.all()) and not bool(self.aborted.any())


def _finalize(rounds, done, aborted, max_rounds) -> TrialBatchResult:
    rounds = rounds.copy()
    rounds[~done] = max_rounds
    return TrialBatchResult(rounds=rounds, converged=done & ~aborted, aborted=aborted)


def _run_batch(
    phi0: np.ndarray,
    alpha: float,
    gamma: float | None,
    epsilon: float,
    max_rounds: int,
    fast: bool,
) -> TrialBatchResult:
    """The one batch convergence loop over a (trials, n) array, or a
    (trials, C, n) array when gamma is given; every round is the Desync map
    on the last axis, then (multichannel) the consensus row at index 0.

    The accelerated Desync rows read the momentum vector mu; Sync coordinates
    never carry momentum, so mu[..., 0] == phi[..., 0] throughout. A trial
    whose objective turns non-finite is aborted and zeroed; one still
    unfinished after max_rounds is capped.
    """
    objective = batch_gap_objective if gamma is None else batch_multichannel_objective
    m, n = phi0.shape[0], phi0.shape[-1]
    d = wrap_bias(n)
    phi = phi0.copy()
    mu = phi.copy() if fast else phi
    rounds = np.zeros(m, dtype=np.int64)
    aborted = np.zeros(m, dtype=bool)
    done = objective(phi) <= epsilon
    for k in range(1, max_rounds + 1):
        if done.all():
            break
        nxt = desync_map(mu, alpha, d)
        if gamma is not None:
            nxt[..., 0] = sync_map(phi[..., 0], gamma)
        if fast:
            mu = nxt + momentum_coefficient(k) * (nxt - phi)
            if gamma is not None:
                mu[..., 0] = nxt[..., 0]
        else:
            mu = nxt
        phi = nxt
        v = objective(phi)
        bad = ~done & ~np.isfinite(v)
        if bad.any():
            aborted |= bad
            done |= bad
            rounds[bad] = max_rounds
            phi[bad] = 0.0
            mu[bad] = 0.0
        newly = ~done & (v <= epsilon)
        rounds[newly] = k
        done |= newly
    return _finalize(rounds, done, aborted, max_rounds)


def run_desync_batch(
    phi0: np.ndarray, alpha: float, epsilon: float, max_rounds: int
) -> TrialBatchResult:
    return _run_batch(phi0, alpha, None, epsilon, max_rounds, fast=False)


def run_fast_desync_batch(
    phi0: np.ndarray, alpha: float, epsilon: float, max_rounds: int
) -> TrialBatchResult:
    return _run_batch(phi0, alpha, None, epsilon, max_rounds, fast=True)


def run_sync_desync_batch(
    phi0: np.ndarray,
    beta: float,
    gamma: float,
    epsilon: float,
    max_rounds: int,
    fast: bool = False,
) -> TrialBatchResult:
    """Joint multichannel batch on a (trials, C, n) array, optionally with
    in-channel acceleration (Sync coordinates never carry momentum)."""
    return _run_batch(phi0, beta_to_alpha(beta), gamma, epsilon, max_rounds, fast)
