"""The spectral round counter against the batch loop, its oracle.

`trials.count_rounds` reads each trial's rounds and stop code off the ring
spectrum (G_k = sum_j w_j g_j(k)) and sends every trial that passes within
rounding of a threshold through `trials._run_batch`. No tolerance is
allowed: each count and stop code must equal the loop's exactly, for both
variants, stable and diverging. The `fallbacks` spy sees the rows that the
counter hands back to the loop, so a counter that left its work to the loop
would fail here rather than compare the loop with itself. `run_sweep` and
`compare_bounds` count through it too, so their rows are checked against
rows built from the loop.
"""

from dataclasses import replace

import numpy as np
import pytest

from desynclab import trials
from desynclab.experiments import DEFAULT_ALPHAS, ExperimentSpec, compare_bounds, run_sweep
from desynclab.objectives import desync_objective
from desynclab.problems import SingleChannelProblem
from desynclab.rounds import DesyncState, Stop, default_max_rounds, desync_round
from desynclab.trials import _run_batch, count_rounds, initial_phase_batch

TRIALS = 50


@pytest.fixture
def fallbacks(monkeypatch):
    """The start rows of each `_run_batch` call that `count_rounds` makes."""
    seen = []

    def spy(rows, *args, **kwargs):
        seen.append(rows.copy())
        return _run_batch(rows, *args, **kwargs)

    monkeypatch.setattr(trials, "_run_batch", spy)
    return seen


def fallback_rows(seen) -> int:
    return sum(len(rows) for rows in seen)


def assert_counts_equal_loop(phi0, alpha, epsilon, cap):
    """Both variants' counts equal the loop's; returns the plain and the
    accelerated result. The oracle is the module's own `_run_batch`, which
    the `fallbacks` spy does not see."""
    problem = SingleChannelProblem(phi0.shape[-1], alpha, epsilon)
    results = []
    for fast in (False, True):
        got = count_rounds(phi0, problem, epsilon, cap, fast)
        loop = _run_batch(phi0, problem, epsilon, cap, fast)
        assert np.array_equal(got.rounds, loop.rounds), (alpha, epsilon, cap, fast)
        assert np.array_equal(got.stop, loop.stop), (alpha, epsilon, cap, fast)
        assert got.rounds.dtype == loop.rounds.dtype and got.stop.dtype == loop.stop.dtype
        results.append(got)
    return results


@pytest.mark.parametrize("n", [4, 7, 16])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
def test_batch_rounds_equal_closed_form(n, alpha, epsilon, fallbacks):
    phi0 = initial_phase_batch(n, TRIALS, seed_base=0)
    plain, _ = assert_counts_equal_loop(phi0, alpha, epsilon, default_max_rounds(n, alpha, epsilon))
    assert plain.converged.all()
    assert fallback_rows(fallbacks) == 0


def test_capped_rounds_equal_closed_form(fallbacks):
    # a cap near the median plain count: capped trials read the cap on both sides
    phi0 = initial_phase_batch(16, TRIALS, seed_base=1)
    plain, _ = assert_counts_equal_loop(phi0, 0.1, 1e-4, 220)
    assert 0 < plain.converged.sum() < TRIALS
    assert fallback_rows(fallbacks) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
def test_counts_equal_the_loop_on_the_default_grid(n, fallbacks):
    phi0 = initial_phase_batch(n, 8, seed_base=n)
    diverged = 0
    for alpha in DEFAULT_ALPHAS:
        for epsilon in (1e-3, 1e-4, 1e-6):
            cap = default_max_rounds(n, alpha, epsilon)
            plain, fast = assert_counts_equal_loop(phi0, alpha, epsilon, cap)
            assert plain.converged.all()
            assert (fast.rounds[fast.aborted] == cap).all()
            diverged += fast.aborted.sum()
    assert diverged > 0  # the grid reaches the accelerated variant's unstable region
    assert fallback_rows(fallbacks) == 0


@pytest.mark.parametrize("cap", [1, 7, 8, 9, 17])
def test_counts_equal_the_loop_under_small_caps(cap, fallbacks):
    phi0 = initial_phase_batch(7, 16, seed_base=cap)
    for alpha in (0.3, 0.6, 0.95):
        assert_counts_equal_loop(phi0, alpha, 1e-3, cap)
    assert fallback_rows(fallbacks) == 0


def test_a_trial_at_its_threshold_runs_through_the_loop(fallbacks):
    # epsilon is trial 0's own objective at round 5, so its closed-form
    # objective there lies within rounding of the threshold; for this trial
    # the two differ by rounding, and a counter without the margin miscounts
    n, alpha, t = 8, 0.3, 0
    phi0 = initial_phase_batch(n, 12, seed_base=5)
    problem = SingleChannelProblem(n, alpha, 1e-3)
    state = DesyncState(phi0[t])
    for _ in range(5):
        state = desync_round(state, problem)
    epsilon = desync_objective(state.phi, problem)
    plain, _ = assert_counts_equal_loop(phi0, alpha, epsilon, 100)
    assert plain.rounds[t] <= 5 and plain.stop[t] == Stop.CONVERGED
    assert any((rows == phi0[t]).all(axis=1).any() for rows in fallbacks)
    assert fallback_rows(fallbacks) <= 2  # trial 0, and at most one more near its threshold


def test_a_start_without_a_growing_mode_runs_through_the_loop(fallbacks):
    # Gaps with only the slowest mode: the modes that momentum makes grow
    # start at rounding level, so the loop's own rounding, not the start,
    # decides when they cross GROWTH. The counter must not claim these trials.
    n, alpha, epsilon = 16, 0.8, 1e-16
    i = np.arange(n)
    phi0 = np.array([i / n + a * np.sin(2 * np.pi * i / n) for a in (0.004, 0.01, 0.02)])
    got = count_rounds(phi0, SingleChannelProblem(n, alpha, epsilon), epsilon, 2000, True)
    assert [len(rows) for rows in fallbacks] == [len(phi0)] and got.aborted.all()
    assert_counts_equal_loop(phi0, alpha, epsilon, 2000)


def test_a_non_finite_start_runs_through_the_loop(fallbacks):
    phi0 = initial_phase_batch(8, 4, seed_base=2)
    phi0[1, 3] = np.nan
    plain, fast = assert_counts_equal_loop(phi0, 0.8, 1e-3, 50)
    assert fast.stop[1] == Stop.DIVERGED and fast.rounds[1] == 50
    assert all(len(rows) == 1 and np.isnan(rows[0, 3]) for rows in fallbacks)


# plain trials capped at alpha = 0.1, converged at 0.5; fast ones diverged at 0.8
SWEEP = ExperimentSpec(mode="desync", n=8, alphas=(0.1, 0.5, 0.8), epsilons=(1e-3, 1e-4),
                       trials=24, seed_base=4, max_rounds=40)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_and_bounds_rows_equal_loop_rows(workers, fallbacks):
    spec = replace(SWEEP, workers=workers)
    phi0 = initial_phase_batch(spec.n, spec.trials, spec.seed_base)
    rows, bounds = run_sweep(spec).rows, compare_bounds(spec)
    assert len(rows) == 2 * len(bounds) == 12
    stops = set()
    for i, (alpha, epsilon) in enumerate((a, e) for a in spec.alphas for e in spec.epsilons):
        problem = SingleChannelProblem(spec.n, alpha, epsilon)
        plain, fast = (_run_batch(phi0, problem, epsilon, spec.max_rounds, f) for f in (False, True))
        means = plain.rounds.mean(), fast.rounds.mean()
        speedup = float(100.0 * (means[0] - means[1]) / means[0])
        for row, loop in zip(rows[2 * i:2 * i + 2], (plain, fast)):
            assert (row.alpha, row.epsilon) == (alpha, epsilon)
            assert (row.mean_rounds, row.max_rounds, row.std_rounds, row.speedup_pct,
                    row.failures) == (float(loop.rounds.mean()), int(loop.rounds.max()),
                                      float(loop.rounds.std()), speedup,
                                      int((~loop.converged).sum())), (row, alpha, epsilon)
            stops.update(loop.stop.tolist())
        assert (bounds[i].alpha, bounds[i].epsilon) == (alpha, epsilon)
        assert bounds[i].max_rounds_desync == plain.rounds.max()
        assert bounds[i].max_rounds_fast == fast.rounds.max()
    assert stops == {int(Stop.CONVERGED), int(Stop.CAPPED), int(Stop.DIVERGED)}
    # the counter did the work: no row reached the loop in this process, where
    # compare_bounds counts (with two workers the sweep counts in child processes)
    assert fallback_rows(fallbacks) == 0
