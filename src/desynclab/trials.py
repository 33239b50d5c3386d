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
from .problems import MultichannelProblem, SingleChannelProblem, beta_to_alpha, wrap_bias
from .rounds import desync_map, diverging, momentum_coefficient, sync_map
from .spectral import momentum_onset

TIE_JITTER = 1e-12


def sample_initial_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted i.i.d. uniform [0,1) offsets; exact ties get a seed-derived nudge."""
    phi = np.sort(rng.random(n))
    while np.any(np.diff(phi) == 0.0):
        dup = np.concatenate(([False], np.diff(phi) == 0.0))
        phi[dup] += TIE_JITTER * (1.0 + rng.random(int(dup.sum())))
        phi = np.sort(phi)
    return phi


def _sorted_starts(trials: int, shape: tuple, seed_base: int, resample) -> np.ndarray:
    """(trials, *shape) batch of uniform [0,1) draws from one generator per
    trial (seed_base + t), sorted along the last axis in one call. A trial
    with an exact tie is redrawn by `resample(rng)` from a fresh generator
    on its seed, so every row equals the per-trial sampler's."""
    out = np.empty((trials, *shape))
    for t in range(trials):
        np.random.default_rng(seed_base + t).random(out=out[t])
    out.sort(axis=-1)
    ties = (np.diff(out, axis=-1) == 0.0).reshape(trials, -1).any(axis=1)
    for t in np.flatnonzero(ties):
        out[t] = resample(np.random.default_rng(seed_base + int(t)))
    return out


def initial_phase_batch(n: int, trials: int, seed_base: int) -> np.ndarray:
    """(trials, n) batch; row t is sample_initial_phases(default_rng(seed_base + t), n)."""
    return _sorted_starts(trials, (n,), seed_base, lambda rng: sample_initial_phases(rng, n))


def initial_multichannel_batch(
    channels: int, nodes_per_channel: int, trials: int, seed_base: int
) -> np.ndarray:
    """(trials, C, n) batch; each channel independently sorted uniform, drawn
    channel after channel from the trial's generator."""
    def resample(rng):
        return [sample_initial_phases(rng, nodes_per_channel) for _ in range(channels)]

    return _sorted_starts(trials, (channels, nodes_per_channel), seed_base, resample)


def batch_gap_objective(phi: np.ndarray) -> np.ndarray:
    """Single-channel objective along the last axis of a (trials, n) batch."""
    r = gap_residual(phi)
    r *= r
    return 0.5 * r.sum(axis=-1)


def batch_multichannel_objective(phi: np.ndarray) -> np.ndarray:
    """Joint objective for a (trials, C, n) batch."""
    r = gap_residual(phi)
    r *= r
    per_channel = 0.5 * r.sum(axis=(1, 2))
    first = phi[:, :, 0]
    d = np.empty(first.shape)
    np.subtract(first[:, 1:], first[:, :-1], out=d[:, :-1])  # roll(first, -1) - first
    np.subtract(first[:, 0], first[:, -1], out=d[:, -1])
    d *= d
    return per_channel + 0.5 * d.sum(axis=1)


@dataclass
class TrialBatchResult:
    rounds: np.ndarray      # per-trial rounds to convergence (= max_rounds if not converged)
    converged: np.ndarray   # per-trial flag
    aborted: np.ndarray     # per-trial flag: diverged by rounds.diverging

    @property
    def ok(self) -> bool:
        return bool(self.converged.all()) and not bool(self.aborted.any())


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
    never carry momentum, so mu[..., 0] == phi[..., 0] throughout. A trial is
    aborted by `rounds.diverging`, the round engine's rule: a non-finite
    objective, or, for momentum runs from the closed-form onset round on, an
    objective grown GROWTH-fold past the trial's start. One still unfinished
    after max_rounds is capped.

    Only live trials are stepped: `live` indexes the rows of phi and mu in
    the batch, and a trial that converges or aborts is dropped from both in
    that round. Per-trial arithmetic is elementwise along the last axes, so
    dropping rows changes no result. The rounds run in reused buffers, under
    np.errstate, so no floating-point warning reaches stderr.
    """
    objective = batch_gap_objective if gamma is None else batch_multichannel_objective
    m, n = phi0.shape[0], phi0.shape[-1]
    d = wrap_bias(n)
    onset = None
    if fast:
        onset = momentum_onset(
            SingleChannelProblem(n, alpha, epsilon) if gamma is None
            else MultichannelProblem.uniform(phi0.shape[1], n, alpha / 2.0, gamma)
        )
    rounds = np.full(m, max_rounds, dtype=np.int64)
    aborted = np.zeros(m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        start = objective(phi0)
        converged = start <= epsilon
        rounds[converged] = 0
        live = np.flatnonzero(~converged)
        start = start[live]
        phi = phi0[live]
        mu = phi.copy() if fast else phi
        nxt, work = np.empty_like(phi), np.empty_like(phi)
        sync_work = np.empty(phi.shape[:-1])
        for k in range(1, max_rounds + 1):
            if live.size == 0:
                break
            desync_map(mu, alpha, d, out=nxt, work=work)
            if gamma is not None:
                sync_map(phi[..., 0], gamma, out=nxt[..., 0], work=sync_work)
            if fast:
                # mu = (nxt - phi) * coef + nxt in mu's buffer: the same bits
                # as nxt + coef * (nxt - phi), since + and * commute exactly
                np.subtract(nxt, phi, out=mu)
                np.multiply(mu, momentum_coefficient(k), out=mu)
                np.add(mu, nxt, out=mu)
                if gamma is not None:
                    mu[..., 0] = nxt[..., 0]
            phi, nxt = nxt, phi
            if not fast:
                mu = phi
            v = objective(phi)
            keep = (v > epsilon) & ~diverging(v, start, k, onset)
            if not keep.all():
                newly = v <= epsilon
                aborted[live[~keep & ~newly]] = True
                rounds[live[newly]] = k
                converged[live[newly]] = True
                live, start = live[keep], start[keep]
                phi = phi[keep]
                mu = mu[keep] if fast else phi
                nxt, work, sync_work = nxt[: live.size], work[: live.size], sync_work[: live.size]
    return TrialBatchResult(rounds=rounds, converged=converged, aborted=aborted)


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
