"""Bitwise oracles for the batch kernel: the vectorized uniform draws against
np.random.default_rng, the batched start samplers against the per-trial
sampler, the buffered Desync and consensus maps and the
slice-built objectives against their np.roll forms, the objectives on a
stack of rounds against per-round calls, and the compacting batch loop
against the round engine on batches that mix converged, aborted and capped
trials and on trials that end at the edges of its blocks of rounds. One
more test pins the batch loop's peak memory.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desynclab import DesyncState, NesterovState, SingleChannelProblem
from desynclab import experiments as ex
from desynclab import rounds as rounds_module
from desynclab import trials as trials_module
from desynclab.objectives import gap_residual
from desynclab.rounds import Stop, desync_map, sync_map
from desynclab.spectral import momentum_onset
from desynclab.trials import (
    _ROUND_BLOCK,
    _seed_words,
    _uniform_rows,
    batch_gap_objective,
    batch_multichannel_objective,
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
    sample_initial_phases,
)
from oracles import wrap_bias
from test_batch_outcomes import (
    batch_outcomes,
    engine_outcome,
    multichannel,
    single_channel,
)
from test_experiments import small_spec

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


@pytest.mark.parametrize("shape", [(7, 16), (5, 3, 4), (6,), (4, 3), (3, 2)])
def test_buffered_desync_map_equals_roll_form(shape):
    phi = REAL_DEFAULT_RNG(3).random(shape) * 5.0
    alpha, d = 0.37, wrap_bias(shape[-1])
    rolled = (1.0 - alpha) * phi + (alpha / 2.0) * (
        np.roll(phi, 1, axis=-1) + np.roll(phi, -1, axis=-1) - d
    )
    allocating = desync_map(phi, alpha)
    out, work = np.full(shape, np.nan), np.full(shape, np.nan)
    buffered = desync_map(phi, alpha, out=out, work=work)
    assert buffered is out
    assert np.array_equal(allocating, rolled)
    assert np.array_equal(buffered, rolled)


@pytest.mark.parametrize("shape", [(7, 16), (5, 3, 4), (6,), (4, 1), (3, 2), (1, 1)])
def test_gap_residual_equals_roll_form(shape):
    phi = REAL_DEFAULT_RNG(4).random(shape) * 5.0
    rolled = np.roll(phi, -1, axis=-1) - phi
    rolled[..., -1] += 1.0
    rolled -= 1.0 / shape[-1]
    assert np.array_equal(gap_residual(phi), rolled)


def test_flat_passes_on_strided_arrays():
    # desync_map and gap_residual run their neighbour passes on flattened
    # rows: a strided phi is read through a copy and a strided work buffer
    # is replaced, so both still give the roll form
    base = REAL_DEFAULT_RNG(7).random((6, 2, 16)) * 5.0
    phi = base[:, 1, :]
    alpha, d = 0.37, wrap_bias(16)
    rolled = (1.0 - alpha) * phi + (alpha / 2.0) * (
        np.roll(phi, 1, axis=-1) + np.roll(phi, -1, axis=-1) - d
    )
    out, work = np.full((6, 16), np.nan), np.full((16, 6), np.nan).T
    assert np.array_equal(desync_map(phi, alpha, out=out, work=work), rolled)
    assert np.array_equal(desync_map(phi.copy(), alpha, work=work), rolled)
    residual = np.roll(phi, -1, axis=-1) - phi
    residual[..., -1] += 1.0
    residual -= 1.0 / 16
    assert np.array_equal(gap_residual(phi), residual)
    assert np.array_equal(gap_residual(base[:, :, ::2]), gap_residual(base[:, :, ::2].copy()))


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
    assert {kind for kind, _ in batch} == {Stop.CONVERGED, Stop.DIVERGED, Stop.CAPPED}


@pytest.mark.parametrize("shape", [(8, 7, 16), (3, 5, 4), (1, 6, 9), (8, 4, 1), (2, 1, 1)])
def test_gap_objective_on_a_stack_equals_per_round_calls(shape):
    phi = REAL_DEFAULT_RNG(8).random(shape) * 5.0
    stacked = batch_gap_objective(phi)
    assert stacked.shape == shape[:2]
    for b in range(shape[0]):
        assert np.array_equal(stacked[b], batch_gap_objective(phi[b]))


@pytest.mark.parametrize("shape", [(8, 7, 3, 4), (3, 5, 16, 4), (2, 6, 1, 5), (8, 4, 3, 1),
                                   (2, 3, 1, 1)])
def test_multichannel_objective_on_a_stack_equals_per_round_calls(shape):
    phi = REAL_DEFAULT_RNG(9).random(shape) * 5.0
    stacked = batch_multichannel_objective(phi)
    assert stacked.shape == shape[:2]
    for b in range(shape[0]):
        assert np.array_equal(stacked[b], batch_multichannel_objective(phi[b]))


# Caps below, at and just past one and two blocks of rounds: the last block
# of a capped batch is a partial one.
@pytest.mark.parametrize("cap", [1, _ROUND_BLOCK - 1, _ROUND_BLOCK, _ROUND_BLOCK + 1,
                                 2 * _ROUND_BLOCK + 1])
@pytest.mark.parametrize("fast", [False, True])
def test_block_caps_match_round_engine_per_trial(cap, fast):
    for batch, engine in (single_channel(8, 0.3, 1e-3, cap, fast),
                          multichannel(3, 4, 0.4, 1e-3, cap, fast)):
        assert batch == engine
        assert all(rounds <= cap for _, rounds in batch)


def test_momentum_onset_inside_a_block_matches_round_engine():
    # The onset (round 3) is inside the first block, and the trials abort at
    # rounds 32 and 33 (see MIXED), the last round of one block and the first
    # of the next: a cap of 32 leaves the later ones capped, one of 33 not.
    assert momentum_onset(SingleChannelProblem(16, 0.8, 1e-3)) % _ROUND_BLOCK not in (0, 1)
    assert 32 % _ROUND_BLOCK == 0
    kinds = {}
    for cap in (32, 33):
        with np.errstate(over="ignore", invalid="ignore"):
            batch, engine = single_channel(16, 0.8, 1e-3, cap, fast=True)
        assert batch == engine
        kinds[cap] = {kind for kind, _ in batch}
    assert {Stop.DIVERGED, Stop.CAPPED} <= kinds[32] and Stop.CAPPED not in kinds[33]


def test_growth_abort_starts_at_the_onset_round_inside_a_block(monkeypatch):
    # With GROWTH tiny, every unfinished trial aborts at the onset round
    # itself, so a cap one round short leaves them all capped
    monkeypatch.setattr(rounds_module, "GROWTH", 1e-300)
    onset = momentum_onset(SingleChannelProblem(16, 0.8, 1e-3))
    kinds = {}
    for cap in (onset - 1, onset):
        batch, engine = single_channel(16, 0.8, 1e-3, cap, fast=True)
        assert batch == engine
        kinds[cap] = {kind for kind, _ in batch}
    assert kinds == {onset - 1: {Stop.CAPPED}, onset: {Stop.DIVERGED}}


@pytest.mark.parametrize("fast", [False, True])
def test_trials_ending_on_a_blocks_first_and_last_round_match_round_engine(fast):
    phi0 = initial_phase_batch(8, 40, seed_base=0)
    problem, epsilon, cap = SingleChannelProblem(8, 0.3, 1e-4), 1e-4, 1000
    start = NesterovState.initial if fast else DesyncState
    runner = run_fast_desync_batch if fast else run_desync_batch
    engine = [engine_outcome(start(p), problem, epsilon, cap) for p in phi0]
    assert batch_outcomes(runner(phi0, 0.3, epsilon, cap)) == engine
    ends = {rounds % _ROUND_BLOCK for kind, rounds in engine if kind == Stop.CONVERGED}
    assert {0, 1} <= ends


@pytest.mark.parametrize("shape, fast", [((400, 16), False), ((400, 4, 16), True)])
def test_batch_peak_memory_is_its_store_and_one_block_objective(shape, fast):
    # One allocation holds two blocks of states, the work buffer and mu, one
    # slot (a (trials, [C,] n) array) each, and the objective of a full block
    # adds its residual. The per-trial arrays and the previous block's
    # objective values and stop flags take under a slot at these sizes, so
    # the allowance is two slots: a further block-sized temporary fails here
    # long before it shows in RSS.
    gamma = None if len(shape) == 2 else 0.6
    objective = batch_gap_objective if gamma is None else batch_multichannel_objective
    phi0 = (initial_phase_batch(16, 400, 0) if gamma is None
            else initial_multichannel_batch(4, 16, 400, 0))
    slot, block = phi0.nbytes, np.zeros((_ROUND_BLOCK, *shape))
    tracemalloc.start()
    try:
        objective(block)
        block_objective = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if gamma is None:
            res = run_desync_batch(phi0, 0.5, 1e-6, 2 * _ROUND_BLOCK)
        else:
            res = run_sync_desync_batch(phi0, 0.25, gamma, 1e-6, 2 * _ROUND_BLOCK, fast=fast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.converged.any() and not res.aborted.any()
    design = (2 * _ROUND_BLOCK + 2) * slot + block_objective
    assert design <= peak <= design + 2 * slot, (peak / slot, design / slot)


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


