"""Vectorized trial batches for the sweep harness.

Trials are stacked along a leading batch axis; every per-trial arithmetic
operation is elementwise, so results are identical to running the round
engine one trial at a time (tests pin that equality). Seeding is per trial
(seed_base + trial index), which makes results invariant to batch size and
worker count. A start batch is drawn in one vectorized pass whose row t is
np.random.default_rng(seed_base + t).random(...) bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .objectives import batch_multichannel_objective, gap_terms
from .problems import MultichannelProblem, SingleChannelProblem, check_run
from .rounds import Stop, desync_map, diverging, momentum_step, sync_map
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


# numpy's SeedSequence hash (pool of four 32-bit words) and PCG64 (XSL-RR
# output of a 128-bit LCG), whose streams numpy keeps stable across
# versions. uint64 array arithmetic wraps silently; constants stay Python
# ints or arrays, because numpy warns on overflow in scalar-by-scalar products.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 64  # draws per column block of _uniform_rows


def _powers(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# The hash constants advance once per hashmix call, whatever the data: 16
# calls while mixing the pool (INIT_A, MULT_A), 8 while generating state
# words (INIT_B, MULT_B).
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value, consts: list[int], k: int):
    value = value ^ consts[k]
    value *= consts[k + 1]
    value &= _MASK32
    value ^= value >> 16
    return value


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, np.uint64) for a uint64 array of
    seeds, as four word arrays. The entropy words are the seed's low and high
    32 bits; a zero high word hashes exactly like the zero padding of the
    pool, so one path covers every seed below 2**64."""
    entropy = (seeds & _MASK32, seeds >> 32, 0, 0)
    pool = [_hashmix(w, _HASH_A, k) for k, w in enumerate(entropy)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                y = _hashmix(pool[src], _HASH_A, k)
                k += 1
                x = pool[dst] * _MIX_L
                y *= _MIX_R
                x -= y
                x &= _MASK32
                x ^= x >> 16
                pool[dst] = x
    words = [_hashmix(pool[i % 4], _HASH_B, i) for i in range(8)]
    return [words[2 * i] | (words[2 * i + 1] << 32) for i in range(4)]


@functools.lru_cache(maxsize=None)
def _jump_constants(count: int) -> np.ndarray:
    """(4, count) uint64 rows A_hi, A_lo, B_hi, B_lo of A = MULT^(j+1) and
    B = sum_{i<=j} MULT^i mod 2**128, j = 1..count. PCG64 seeded with state
    word s and increment inc starts from (inc + s) MULT + inc, so its state
    after draw j is A (s + inc) + B inc."""
    out = np.empty((4, count), dtype=np.uint64)
    a, b = _PCG_MULT, 1
    for j in range(count):
        a = a * _PCG_MULT & (2**128 - 1)
        b = (b * _PCG_MULT + 1) & (2**128 - 1)
        out[:, j] = (a >> 64, a & (2**64 - 1), b >> 64, b & (2**64 - 1))
    out.flags.writeable = False
    return out


def _wide_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products x * y (uint64
    arrays, broadcast), from 32-bit limbs."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    hi = x1 * y1
    m1 = x0 * y1
    hi += m1 >> 32
    m1 &= _MASK32
    m2 = x1 * y0
    hi += m2 >> 32
    m2 &= _MASK32
    m1 += m2
    lo = x0 * y0
    m1 += lo >> 32
    lo &= _MASK32
    hi += m1 >> 32
    m1 <<= 32
    lo |= m1
    return hi, lo


def _uniform_rows(seed_base: int, trials: int, count: int) -> np.ndarray:
    """(trials, count) float64 array whose row t equals
    np.random.default_rng(seed_base + t).random(count) bit for bit, computed
    for all trials at once: the seeds are hashed as SeedSequence does, and
    every PCG64 state is jumped to in closed form, in column blocks of
    _BLOCK draws."""
    if seed_base < 0 or seed_base + trials > 2**64:
        raise ValueError(
            f"seed_base must be >= 0 with seed_base + trials <= 2**64, got {seed_base}"
        )
    seeds = np.arange(trials, dtype=np.uint64)
    seeds += np.array(seed_base, dtype=np.uint64)
    w0, w1, w2, w3 = _seed_words(seeds)
    # 128-bit words are high:low; inc = (w2:w3 << 1) | 1, u = w0:w1 + inc.
    inc_hi = ((w2 << 1) | (w3 >> 63))[:, None]
    inc_lo = ((w3 << 1) | 1)[:, None]
    u_lo = w1[:, None] + inc_lo
    u_hi = w0[:, None] + inc_hi + (u_lo < inc_lo)
    jump = _jump_constants(count)
    out = np.empty((trials, count))
    for c in range(0, count, _BLOCK):
        a_hi, a_lo, b_hi, b_lo = (row[None, c:c + _BLOCK] for row in jump)
        hi, lo = _wide_product(u_lo, a_lo)
        h2, l2 = _wide_product(inc_lo, b_lo)
        lo += l2
        hi += h2
        hi += lo < l2
        hi += u_hi * a_lo
        hi += u_lo * a_hi
        hi += inc_hi * b_lo
        hi += inc_lo * b_hi
        # XSL-RR: (hi ^ lo) rotated right by the top six bits of the state
        rot = hi >> 58
        hi ^= lo
        lo = hi >> rot
        rot = (64 - rot) & 63
        hi <<= rot
        hi |= lo
        hi >>= 11
        np.multiply(hi, 2.0**-53, out=out[:, c:c + _BLOCK])
    return out


def _sorted_starts(trials: int, shape: tuple, seed_base: int, resample) -> np.ndarray:
    """(trials, *shape) batch of uniform [0,1) draws, row t from seed
    seed_base + t (`_uniform_rows`), sorted along the last axis in one call.
    A trial with an exact tie is redrawn by `resample(rng)` from a fresh
    generator on its seed, so every row equals the per-trial sampler's."""
    out = _uniform_rows(seed_base, trials, math.prod(shape)).reshape(trials, *shape)
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


# module globals, read at call time: benchmark tracing wraps them by name
batch_gap_objective = gap_terms


@dataclass
class TrialBatchResult:
    rounds: np.ndarray  # per-trial rounds to convergence (= max_rounds if not converged)
    stop: np.ndarray    # per-trial rounds.Stop code, int8

    @property
    def converged(self) -> np.ndarray:
        return self.stop == int(Stop.CONVERGED)

    @property
    def aborted(self) -> np.ndarray:
        return self.stop == int(Stop.DIVERGED)

    @property
    def ok(self) -> bool:
        return bool(self.converged.all())


_ROUND_BLOCK = 8  # rounds per objective call, stop test and compaction
_SLOTS = 2 * _ROUND_BLOCK + 2  # two blocks of states, then work and mu


def _run_batch(
    phi0: np.ndarray,
    problem: SingleChannelProblem | MultichannelProblem,
    epsilon: float,
    max_rounds: int,
    fast: bool,
) -> TrialBatchResult:
    """The one batch convergence loop of `problem` over a (trials, n) array,
    or a (trials, C, n) array for a MultichannelProblem; every round is the
    Desync map on the last axis with the problem's alpha, then
    (multichannel) the consensus row at index 0 with its gamma.

    The accelerated Desync rows read the momentum vector mu; Sync coordinates
    never carry momentum, so mu[..., 0] == phi[..., 0] throughout. A trial
    stops DIVERGED by `rounds.diverging`, the round engine's rule: a
    non-finite objective, or, for momentum runs from the problem's
    closed-form onset round on, an objective grown GROWTH-fold past the
    trial's start. One still unfinished after max_rounds is CAPPED.

    Only live trials (`live`) are stepped, _ROUND_BLOCK rounds at a time,
    each round into its own slot. The objective, the stop test and the
    compaction run once per block: a trial ends at its first round that
    converges or aborts, and the states it rode on to the block's end go
    with its row. Per-trial arithmetic is elementwise, so this changes no
    result. Two alternating blocks of slots, the work buffer and mu are one
    allocation: one ring of slots gives the same bits, but makes glibc trim
    and regrow the heap after most batches. All runs under np.errstate.
    """
    check_run(epsilon, max_rounds)
    alpha = problem.alpha
    if isinstance(problem, MultichannelProblem):
        gamma, objective = problem.gamma, batch_multichannel_objective
    else:
        gamma, objective = None, batch_gap_objective
    onset = momentum_onset(problem) if fast else None
    m = phi0.shape[0]
    rounds = np.full(m, max_rounds, dtype=np.int64)
    stop = np.full(m, int(Stop.CAPPED), dtype=np.int8)  # int(): numpy is slow on an IntEnum
    with np.errstate(over="ignore", invalid="ignore"):
        start = objective(phi0)
        converged = start <= epsilon
        rounds[converged], stop[converged] = 0, int(Stop.CONVERGED)
        live = np.flatnonzero(~converged)
        start = start[live]
        phi = mu = phi0[live]
        store, slots = np.empty(_SLOTS * phi.size), None
        sync_work = np.empty(phi.shape[:-1])
        k = 0
        while live.size and k < max_rounds:
            if slots is None:  # the first block, or rows were dropped
                slots = store[:_SLOTS * phi.size].reshape(_SLOTS, *phi.shape)
                work = slots[-2]
                if fast:
                    slots[-1] = mu
                    mu = slots[-1]
            first, k0 = k // _ROUND_BLOCK % 2 * _ROUND_BLOCK, k + 1
            block = slots[first:first + min(_ROUND_BLOCK, max_rounds - k)]
            for nxt in block:
                k += 1
                desync_map(mu, alpha, out=nxt, work=work)
                if gamma is not None:
                    sync_map(phi[..., 0], gamma, out=nxt[..., 0], work=sync_work)
                if fast:
                    momentum_step(nxt, phi, k, out=mu)
                    if gamma is not None:
                        mu[..., 0] = nxt[..., 0]
                phi = nxt
                if not fast:
                    mu = phi
            v = objective(block)
            ends = diverging(v, start, np.arange(k0, k + 1)[:, None], onset)
            ends |= v <= epsilon
            keep = ~ends.any(axis=0)
            kept = np.count_nonzero(keep)
            if kept < live.size:
                gone = np.flatnonzero(~keep)
                at = ends[:, gone].argmax(axis=0)
                newly = v[at, gone] <= epsilon
                done = live[gone]
                rounds[done[newly]] = k0 + at[newly]
                stop[done[newly]] = int(Stop.CONVERGED)
                stop[done[~newly]] = int(Stop.DIVERGED)
                live, start = live.compress(keep), start.compress(keep)
                phi = phi.compress(keep, axis=0)
                mu = mu.compress(keep, axis=0) if fast else phi
                sync_work, slots = sync_work[:kept], None
    return TrialBatchResult(rounds=rounds, stop=stop)


def run_desync_batch(
    phi0: np.ndarray, alpha: float, epsilon: float, max_rounds: int
) -> TrialBatchResult:
    problem = SingleChannelProblem(phi0.shape[-1], alpha, epsilon)
    return _run_batch(phi0, problem, epsilon, max_rounds, fast=False)


def run_fast_desync_batch(
    phi0: np.ndarray, alpha: float, epsilon: float, max_rounds: int
) -> TrialBatchResult:
    problem = SingleChannelProblem(phi0.shape[-1], alpha, epsilon)
    return _run_batch(phi0, problem, epsilon, max_rounds, fast=True)


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
    problem = MultichannelProblem.uniform(*phi0.shape[1:], beta, gamma)
    return _run_batch(phi0, problem, epsilon, max_rounds, fast)
