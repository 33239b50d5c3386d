"""Bitwise oracles for the batch kernel: the vectorized uniform draws against
np.random.default_rng, the batched start samplers against the per-trial
sampler, the buffered Desync and consensus maps and the
slice-built objectives against their np.roll forms, and the compacting
batch loop against the round engine on batches that mix converged, aborted
and capped trials.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desynclab import experiments as ex
from desynclab import trials as trials_module
from desynclab.objectives import gap_residual
from desynclab.problems import wrap_bias
from desynclab.rounds import desync_map, sync_map
from desynclab.trials import (
    _seed_words,
    _uniform_rows,
    batch_multichannel_objective,
    initial_multichannel_batch,
    initial_phase_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
    sample_initial_phases,
)
from test_batch_outcomes import multichannel, single_channel
from test_experiments import rows_equal, small_spec

REAL_DEFAULT_RNG = np.random.default_rng


def reference_rows(seed_base, trials, count):
    return np.stack([REAL_DEFAULT_RNG(seed_base + t).random(count) for t in range(trials)])


def strict_uniform_rows(seed_base, trials, count):
    """_uniform_rows with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _uniform_rows(seed_base, trials, count)


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**63, 2**64 - 1]
)
def test_seed_words_equal_seed_sequence(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = _seed_words(np.array([seed], dtype=np.uint64))
    expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert np.array_equal(np.concatenate(words), expected)


# Seed ranges starting at 0, crossing 2**32 and ending at 2**64 - 1; counts
# on both sides of the column-block edges.
@pytest.mark.parametrize("seed_base", [0, 2**32 - 200, 2**64 - 400])
@pytest.mark.parametrize("count", [1, 2, 16, 63, 64, 65, 1024])
@pytest.mark.parametrize("trials", [1, 400])
def test_uniform_rows_equal_default_rng(seed_base, count, trials):
    rows = strict_uniform_rows(seed_base, trials, count)
    assert rows.shape == (trials, count)
    assert np.array_equal(rows, reference_rows(seed_base, trials, count))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    trials=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=200),
)
def test_uniform_rows_equal_default_rng_property(seed, trials, count):
    seed_base = min(seed, 2**64 - trials)
    rows = strict_uniform_rows(seed_base, trials, count)
    assert np.array_equal(rows, reference_rows(seed_base, trials, count))


@pytest.mark.parametrize("n, trials, seed_base", [(16, 40, 7000), (5, 13, 0), (2, 9, 123456)])
def test_phase_batch_equals_per_trial_sampler(n, trials, seed_base):
    loop = np.stack(
        [sample_initial_phases(REAL_DEFAULT_RNG(seed_base + t), n) for t in range(trials)]
    )
    assert np.array_equal(initial_phase_batch(n, trials, seed_base), loop)


@pytest.mark.parametrize("C, n, trials, seed_base", [(16, 4, 12, 50), (3, 5, 9, 2), (2, 2, 5, 0)])
def test_multichannel_batch_equals_per_trial_sampler(C, n, trials, seed_base):
    loop = np.empty((trials, C, n))
    for t in range(trials):
        rng = REAL_DEFAULT_RNG(seed_base + t)
        for c in range(C):
            loop[t, c] = sample_initial_phases(rng, n)
    assert np.array_equal(initial_multichannel_batch(C, n, trials, seed_base), loop)


class TieGenerator:
    """A real generator whose first draw repeats its first value once."""

    def __init__(self, seed):
        self.rng = REAL_DEFAULT_RNG(seed)
        self.first = True

    def random(self, size=None, out=None):
        x = self.rng.random(size, out=out)
        if self.first:
            x.flat[1] = x.flat[0]
            self.first = False
        return x


TIE_SEED = 3


@pytest.fixture
def tie_at_seed(monkeypatch):
    """Row TIE_SEED of the batch's uniform draw repeats its first value, as
    a TieGenerator's first draw does, and np.random.default_rng hands out a
    TieGenerator for TIE_SEED, so the redraw sees the same tie."""
    real_rows = trials_module._uniform_rows

    def tied_rows(seed_base, trials, count):
        rows = real_rows(seed_base, trials, count)
        rows[TIE_SEED - seed_base, 1] = rows[TIE_SEED - seed_base, 0]
        return rows

    monkeypatch.setattr(trials_module, "_uniform_rows", tied_rows)
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed: TieGenerator(seed) if seed == TIE_SEED else REAL_DEFAULT_RNG(seed),
    )


def test_phase_batch_tie_falls_back_to_sampler(tie_at_seed):
    n, trials = 6, 5
    batch = initial_phase_batch(n, trials, seed_base=0)
    assert np.array_equal(batch[TIE_SEED], sample_initial_phases(TieGenerator(TIE_SEED), n))
    for t in range(trials):
        assert np.all(np.diff(batch[t]) > 0.0)
        if t != TIE_SEED:
            assert np.array_equal(batch[t], sample_initial_phases(REAL_DEFAULT_RNG(t), n))


def test_multichannel_batch_tie_falls_back_to_sampler(tie_at_seed):
    C, n, trials = 3, 4, 5
    batch = initial_multichannel_batch(C, n, trials, seed_base=0)
    rng = TieGenerator(TIE_SEED)
    expected = [sample_initial_phases(rng, n) for _ in range(C)]
    assert np.array_equal(batch[TIE_SEED], expected)
    # the redraw shifts every later channel of the trial
    raw = np.sort(TieGenerator(TIE_SEED).random((C, n)), axis=-1)
    assert not np.array_equal(batch[TIE_SEED, 1:], raw[1:])
    assert np.all(np.diff(batch, axis=-1) > 0.0)


@pytest.mark.parametrize("shape", [(7, 16), (5, 3, 4), (6,), (4, 1)])
def test_buffered_desync_map_equals_roll_form(shape):
    phi = REAL_DEFAULT_RNG(3).random(shape) * 5.0
    alpha, d = 0.37, wrap_bias(shape[-1])
    rolled = (1.0 - alpha) * phi + (alpha / 2.0) * (
        np.roll(phi, 1, axis=-1) + np.roll(phi, -1, axis=-1) - d
    )
    allocating = desync_map(phi, alpha, d)
    out, work = np.full(shape, np.nan), np.full(shape, np.nan)
    buffered = desync_map(phi, alpha, d, out=out, work=work)
    assert buffered is out
    assert np.array_equal(allocating, rolled)
    assert np.array_equal(buffered, rolled)


@pytest.mark.parametrize("shape", [(7, 16), (5, 3, 4), (6,), (4, 1)])
def test_gap_residual_equals_roll_form(shape):
    phi = REAL_DEFAULT_RNG(4).random(shape) * 5.0
    rolled = np.roll(phi, -1, axis=-1) - phi
    rolled[..., -1] += 1.0
    rolled -= 1.0 / shape[-1]
    assert np.array_equal(gap_residual(phi), rolled)


@pytest.mark.parametrize("shape", [(7, 16), (5, 3), (6,), (4, 2)])
def test_buffered_sync_map_equals_roll_form(shape):
    first = REAL_DEFAULT_RNG(5).random(shape) * 5.0
    gamma = 0.6
    rolled = (1.0 - gamma) * first + gamma * np.roll(first, -1, axis=-1)
    out, work = np.full(shape, np.nan), np.full(shape, np.nan)
    buffered = sync_map(first, gamma, out=out, work=work)
    assert buffered is out
    assert np.array_equal(sync_map(first, gamma), rolled)
    assert np.array_equal(buffered, rolled)
    # the batch loop writes the consensus row into a strided view
    nxt = np.full((*shape, 3), np.nan)
    sync_map(first, gamma, out=nxt[..., 0], work=work)
    assert np.array_equal(nxt[..., 0], rolled)


@pytest.mark.parametrize("shape", [(7, 3, 4), (5, 16, 4), (4, 2, 2)])
def test_multichannel_objective_equals_roll_form(shape):
    phi = REAL_DEFAULT_RNG(6).random(shape) * 5.0
    r = gap_residual(phi)
    first = phi[:, :, 0]
    d = np.roll(first, -1, axis=1) - first
    rolled = 0.5 * (r * r).sum(axis=(1, 2)) + 0.5 * np.sum(d * d, axis=1)
    assert np.array_equal(batch_multichannel_objective(phi), rolled)


def test_batch_leaves_start_unmodified():
    phi0 = initial_phase_batch(16, 24, 11)
    keep = phi0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_fast_desync_batch(phi0, 0.8, 1e-3, 2000)
        assert res.aborted.any() and res.converged.any()
        assert np.array_equal(phi0, keep)
        phi0 = initial_multichannel_batch(3, 4, 6, 5)
        keep = phi0.copy()
        run_sync_desync_batch(phi0, 0.45, 0.6, 1e-3, 2000, fast=True)
        assert np.array_equal(phi0, keep)


def test_diverging_batches_emit_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = run_fast_desync_batch(initial_phase_batch(16, 24, 11), 0.8, 1e-3, 2000)
        multi = run_sync_desync_batch(
            initial_multichannel_batch(3, 4, 12, 5), 0.45, 0.6, 1e-3, 2000, fast=True
        )
    assert single.aborted.any() and multi.aborted.all()


# Every trial's abort round comes from the round engine's growth rule: at
# n = 16 they are 32-33 (onset 3), at C = 2, n = 4 they are 60-63 (onset 6),
# so these caps split them.
MIXED = {
    "single": (single_channel, (16, 0.8, 1e-3, 32)),
    "multi": (multichannel, (2, 4, 0.85, 1e-3, 61)),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_batch_matches_round_engine_per_trial(name):
    run, args = MIXED[name]
    with np.errstate(over="ignore", invalid="ignore"):
        batch, engine = run(*args, fast=True)
    assert batch == engine
    assert {kind for kind, _ in batch} == {"converged", "aborted", "capped"}


@pytest.mark.parametrize("mode, sampler, extra", [
    ("desync", "initial_phase_batch", {}),
    ("much", "initial_multichannel_batch", {"n": None, "channels": 3, "nodes_per_channel": 4}),
])
def test_sweep_samples_start_batch_once(monkeypatch, mode, sampler, extra):
    calls = []
    real = getattr(ex, sampler)
    monkeypatch.setattr(ex, sampler, lambda *args: calls.append(args) or real(*args))
    spec = small_spec(mode=mode, alphas=(0.3, 0.5), epsilons=(1e-3, 1e-4), trials=5, **extra)
    assert len(ex.run_sweep(spec).rows) == 8
    assert len(calls) == 1


def test_multichannel_sweep_worker_invariance():
    spec = small_spec(mode="much", n=None, channels=3, nodes_per_channel=4,
                      alphas=(0.4, 0.9), trials=4)
    serial = ex.run_sweep(spec)
    parallel = ex.run_sweep(ex.ExperimentSpec(**{**spec.__dict__, "workers": 2}))
    assert len(serial.rows) == len(parallel.rows) == 4
    for a, b in zip(serial.rows, parallel.rows):
        rows_equal(a, b)
