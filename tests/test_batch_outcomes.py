"""Per-trial outcomes of the batch runners against the round engine, on
diverging and capped trials, and the round engine's convergence defaults.

A batch trial stops DIVERGED where the engine raises FloatingPointError,
CAPPED (rounds equal to the cap) where the engine stops at the cap, and
CONVERGED after the same number of rounds as the engine.
"""

from collections import Counter
from functools import partial

import numpy as np
import pytest

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SingleChannelProblem,
    SpecError,
    run_until_convergence,
)
from desynclab.rounds import Stop, default_max_rounds
from desynclab.trials import (
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
)

TRIALS = 6


def batch_outcomes(res):
    assert res.stop.dtype == np.int8
    assert (res.converged == (res.stop == Stop.CONVERGED)).all()
    assert (res.aborted == (res.stop == Stop.DIVERGED)).all()
    return [(Stop(s), int(r)) for s, r in zip(res.stop, res.rounds)]


def engine_outcome(state, problem, epsilon, cap):
    try:
        rep = run_until_convergence(state, problem, epsilon=epsilon, max_rounds=cap)
    except FloatingPointError:
        return (Stop.DIVERGED, cap)
    return (Stop.CONVERGED if rep.converged else Stop.CAPPED, rep.rounds)


def single_channel(n, alpha, epsilon, cap, fast, trials=TRIALS, seed_base=40):
    phi0 = initial_phase_batch(n, trials, seed_base)
    runner = run_fast_desync_batch if fast else run_desync_batch
    start = NesterovState.initial if fast else DesyncState
    problem = SingleChannelProblem(n, alpha, epsilon)
    engine = [engine_outcome(start(p), problem, epsilon, cap) for p in phi0]
    return batch_outcomes(runner(phi0, alpha, epsilon, cap)), engine


def multichannel(C, n, alpha, epsilon, cap, fast):
    phi0 = initial_multichannel_batch(C, n, TRIALS, seed_base=40)
    beta, gamma = alpha / 2.0, 0.6
    problem = MultichannelProblem.uniform(C, n, beta, gamma)
    engine = [
        engine_outcome(MultichannelState.initial(list(p), nesterov=fast), problem, epsilon, cap)
        for p in phi0
    ]
    return batch_outcomes(run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=fast)), engine


CONVERGED, CAPPED, DIVERGED = Stop.CONVERGED, Stop.CAPPED, Stop.DIVERGED
# Caps of 617188 and 839507 are the sweep's defaults at these points.
CASES = {
    # name: (run, args, outcomes allowed, outcomes some trial must have)
    "desync-unstable": (single_channel, (16, 0.8, 1e-3, 617188), {CONVERGED}, set()),
    "fast-desync-unstable": (single_channel, (16, 0.8, 1e-3, 617188),
                             {CONVERGED, DIVERGED}, {DIVERGED}),
    "desync-capped": (single_channel, (8, 0.1, 1e-6, 40), {CAPPED}, {CAPPED}),
    "fast-desync-capped": (single_channel, (8, 0.7, 1e-6, 40), {CONVERGED, CAPPED}, {CAPPED}),
    "much-unstable": (multichannel, (3, 4, 0.9, 1e-3, 839507), {CONVERGED}, set()),
    "fast-much-unstable": (multichannel, (3, 4, 0.9, 1e-3, 839507), {DIVERGED}, {DIVERGED}),
    "much-capped": (multichannel, (3, 4, 0.4, 1e-6, 25), {CAPPED}, {CAPPED}),
    "fast-much-capped": (multichannel, (3, 4, 0.9, 1e-3, 25), {CAPPED}, {CAPPED}),
    "fast-desync-diverged-24": (partial(single_channel, trials=24, seed_base=11),
                                (16, 0.8, 1e-3, 10**6), {CONVERGED: 6, DIVERGED: 18},
                                {CONVERGED, DIVERGED}),
    "fast-desync-capped-16": (partial(single_channel, trials=16, seed_base=3),
                              (8, 0.7, 1e-6, 40), {CONVERGED: 2, CAPPED: 14},
                              {CONVERGED, CAPPED}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_outcomes_match_round_engine_per_trial(name):
    # a dict of allowed outcomes gives the exact count of each
    run, args, allowed, required = CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        batch, engine = run(*args, fast=name.startswith("fast"))
    assert batch == engine
    kinds = Counter(kind for kind, _ in batch)
    assert set(kinds) <= set(allowed) and required <= set(kinds), kinds
    if isinstance(allowed, dict):
        assert kinds == allowed
    cap = args[-1]
    for kind, rounds in batch:
        assert (rounds == cap) if kind != CONVERGED else (rounds < cap)


SINGLE = (run_desync_batch, run_fast_desync_batch)
MULTI = (partial(run_sync_desync_batch, fast=False), partial(run_sync_desync_batch, fast=True))


@pytest.mark.parametrize("runners, shape, params, cap, message", [
    (SINGLE, (4,), (0.0, 1e-3), 50, "alpha out of (0,1): 0.0"),
    (SINGLE, (4,), (1.0, 1e-3), 50, "alpha out of (0,1): 1.0"),
    (SINGLE, (4,), (1.5, 1e-3), 50, "alpha out of (0,1): 1.5"),
    (SINGLE, (4,), (0.5, 0.0), 50, "epsilon must be > 0, got 0.0"),
    (SINGLE, (4,), (0.5, -1.0), 50, "epsilon must be > 0, got -1.0"),
    (SINGLE, (1,), (0.5, 1e-3), 50, "n must be >= 2, got 1"),
    (SINGLE, (4,), (0.5, 1e-3), 0, "max_rounds must be >= 1, got 0"),
    (SINGLE, (4,), (0.5, 1e-3), -5, "max_rounds must be >= 1, got -5"),
    (MULTI, (3, 4), (0.5, 0.6, 1e-3), 50, "beta out of (0, 1/2): 0.5"),
    (MULTI, (3, 4), (0.6, 0.6, 1e-3), 50, "beta out of (0, 1/2): 0.6"),
    (MULTI, (3, 4), (0.2, 0.0, 1e-3), 50, "gamma out of (0,1): 0.0"),
    (MULTI, (3, 4), (0.2, 1.5, 1e-3), 50, "gamma out of (0,1): 1.5"),
    (MULTI, (1, 4), (0.2, 0.6, 1e-3), 50, "need at least 2 channels, got 1"),
    (MULTI, (3, 1), (0.2, 0.6, 1e-3), 50, "every channel needs >= 2 nodes, got (1, 1, 1)"),
    (MULTI, (3, 4), (0.2, 0.6, 0.0), 50, "epsilon must be > 0, got 0.0"),
    (MULTI, (3, 4), (0.2, 0.6, -1.0), 50, "epsilon must be > 0, got -1.0"),
    (MULTI, (3, 4), (0.2, 0.6, float("nan")), 50, "epsilon must be > 0, got nan"),
    (MULTI, (3, 4), (0.2, 0.6, 1e-3), 0, "max_rounds must be >= 1, got 0"),
    (MULTI, (3, 4), (0.2, 0.6, 1e-3), -5, "max_rounds must be >= 1, got -5"),
], ids=["alpha-0", "alpha-1", "alpha-1.5", "epsilon-0", "epsilon-negative", "n-1",
        "single-cap-0", "single-cap-negative", "beta-0.5", "beta-0.6", "gamma-0", "gamma-1.5",
        "channels-1", "nodes-1", "much-epsilon-0", "much-epsilon-negative", "much-epsilon-nan",
        "much-cap-0", "much-cap-negative"])
def test_plain_and_accelerated_batches_accept_the_same_inputs(runners, shape, params, cap,
                                                              message):
    # both runners build the same problem, whose class states every range,
    # and check the run's epsilon and cap with problems.check_run
    phi0 = np.zeros((TRIALS, *shape))
    for runner in runners:
        with pytest.raises(SpecError) as exc:
            runner(phi0, *params, cap)
        assert str(exc.value) == message


def mixed_state(C=3, n=4):
    rng = np.random.default_rng(2)
    return MultichannelState.initial([np.sort(rng.random(n)) * 10 for _ in range(C)])


def test_multichannel_run_requires_epsilon():
    problem = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    with pytest.raises(ValueError, match="epsilon"):
        run_until_convergence(mixed_state(), problem)


def test_default_cap_uses_the_runs_epsilon():
    # the sweep's cap at C * n = 12, alpha = 0.4, eps = 1e-3
    assert default_max_rounds(12, 0.4, 1e-3) == 314815
    problem = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    stay = lambda state, problem: state  # never converges, so the run ends at the cap
    rep = run_until_convergence(mixed_state(), problem, epsilon=1.0, round_op=stay)
    assert not rep.converged
    assert rep.rounds == default_max_rounds(12, 0.4, 1.0) == 315
