import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SingleChannelProblem,
    desync_objective,
    multichannel_objective,
    run_until_convergence,
    sync_desync_round,
)
from desynclab.rounds import desync_map
from desynclab.trials import batch_gap_objective, initial_phase_batch

from oracles import desync_gradient, multichannel_gradient_channel


def brute_force_objective(phi, n):
    """Independent oracle: explicit residual through hand-built matrices."""
    phi = np.asarray(phi, dtype=float)
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = -1.0
        D[i, (i + 1) % n] = 1.0
    e = np.zeros(n)
    e[-1] = 1.0
    r = D @ phi - np.ones(n) / n + e
    return 0.5 * r @ r


def finite_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def test_objective_values_from_spec_examples():
    p4 = SingleChannelProblem(4, 0.5, 1e-3)
    assert desync_objective([0, 0.25, 0.5, 0.75], p4) == pytest.approx(0.0, abs=0)
    p2 = SingleChannelProblem(2, 0.5, 1e-3)
    assert desync_objective([0.0, 0.0], p2) == pytest.approx(0.25, abs=1e-15)
    p3 = SingleChannelProblem(3, 0.5, 1e-3)
    # oracle first: brute-force residual gives 1/12
    assert brute_force_objective([0, 0.5, 0.5], 3) == pytest.approx(1 / 12, abs=1e-15)
    assert desync_objective([0, 0.5, 0.5], p3) == pytest.approx(1 / 12, abs=1e-14)


def test_objective_matches_brute_force_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        phi = rng.normal(size=n)
        p = SingleChannelProblem(n, 0.5, 1e-3)
        assert desync_objective(phi, p) == pytest.approx(
            brute_force_objective(phi, n), rel=1e-12
        )


def test_objective_dimension_mismatch():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    with pytest.raises(ValueError):
        desync_objective([0.0, 0.5], p)
    with pytest.raises(ValueError):
        desync_gradient([0.0, 0.5], p)


def test_gradient_examples():
    p4 = SingleChannelProblem(4, 0.5, 1e-3)
    assert np.allclose(desync_gradient([0, 0.25, 0.5, 0.75], p4), 0.0)
    p2 = SingleChannelProblem(2, 0.5, 1e-3)
    assert np.allclose(desync_gradient([0.0, 0.0], p2), [1.0, -1.0])


def test_gradient_matches_finite_differences():
    # 100 random instances at n, C <= 10, 1e-6 relative agreement
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        phi = rng.random(n)
        p = SingleChannelProblem(n, 0.5, 1e-3)
        g = desync_gradient(phi, p)
        fd = finite_difference_gradient(lambda x: desync_objective(x, p), phi)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_gradient_independent_of_target_term():
    # the gradient never sees the 1/n target: same value for any n via direct formula
    rng = np.random.default_rng(2)
    n = 6
    phi = rng.random(n)
    p = SingleChannelProblem(n, 0.5, 1e-3)
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = -1.0
        D[i, (i + 1) % n] = 1.0
    d = D.T @ np.eye(n)[-1]
    assert np.allclose(desync_gradient(phi, p), D.T @ D @ phi + d, atol=1e-12)


def test_multichannel_objective_examples():
    mp = MultichannelProblem.uniform(2, 2, 0.25, 0.5)
    assert multichannel_objective([[0, 0.5], [0, 0.5]], mp) == pytest.approx(0.0, abs=0)
    # equispaced channels, misaligned first nodes: both cyclic cross terms contribute
    assert multichannel_objective([[0, 0.5], [0.3, 0.8]], mp) == pytest.approx(
        0.09, abs=1e-15
    )


def brute_force_multichannel(phis, counts):
    total = 0.0
    C = len(counts)
    for p, n in zip(phis, counts):
        total += brute_force_objective(p, n)
    for c in range(C):
        nxt = (c + 1) % C
        total += 0.5 * (phis[nxt][0] - phis[c][0]) ** 2
    return total


def test_multichannel_objective_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        C = int(rng.integers(2, 5))
        counts = tuple(int(rng.integers(2, 6)) for _ in range(C))
        phis = [rng.random(n) for n in counts]
        mp = MultichannelProblem(counts, 0.2, 0.6)
        assert multichannel_objective(phis, mp) == pytest.approx(
            brute_force_multichannel(phis, counts), abs=1e-12
        )


def test_multichannel_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        C = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        counts = (n,) * C
        mp = MultichannelProblem(counts, 0.2, 0.6)
        phis = [rng.random(n) for _ in range(C)]
        for c in range(C):
            def f(x, c=c):
                trial = [p.copy() for p in phis]
                trial[c] = x
                return multichannel_objective(trial, mp)

            g = multichannel_gradient_channel(c, phis, mp)
            fd = finite_difference_gradient(f, phis[c].copy())
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_multichannel_gradient_first_component_expansion():
    # first component: 4*phi_c0 - phi_c1 - phi_c(n-1) - phi_prev0 - phi_next0 + 1
    rng = np.random.default_rng(5)
    C, n = 3, 4
    mp = MultichannelProblem.uniform(C, n, 0.2, 0.6)
    phis = [rng.random(n) for _ in range(C)]
    for c in range(C):
        g = multichannel_gradient_channel(c, phis, mp)
        expected = (
            4.0 * phis[c][0]
            - phis[c][1]
            - phis[c][n - 1]
            - phis[(c - 1) % C][0]
            - phis[(c + 1) % C][0]
            + 1.0
        )
        assert g[0] == pytest.approx(expected, abs=1e-12)


def test_multichannel_gradient_zero_at_minimizer():
    mp = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    base = 0.3
    phis = [base + np.arange(4) / 4 for _ in range(3)]
    assert multichannel_objective(phis, mp) == pytest.approx(0.0, abs=1e-28)
    for c in range(3):
        assert np.allclose(multichannel_gradient_channel(c, phis, mp), 0.0, atol=1e-14)


def test_desync_round_is_a_gradient_step():
    # the paper's central statement: Desync is gradient descent on the gap
    # objective with step alpha/2
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        alpha = float(rng.uniform(0.01, 0.99))
        p = SingleChannelProblem(n, alpha, 1e-3)
        phi = np.sort(rng.random(n))
        step = phi - (alpha / 2.0) * desync_gradient(phi, p)
        assert np.max(np.abs(desync_map(phi, alpha) - step)) <= 1e-12


def test_multichannel_desync_rows_are_gradient_steps():
    # every row but the Sync row (index 0, a consensus pull) steps by beta
    # along its channel's gradient, on ragged channel counts
    rng = np.random.default_rng(7)
    for _ in range(200):
        counts = tuple(int(c) for c in rng.integers(2, 8, size=int(rng.integers(2, 6))))
        beta = float(rng.uniform(0.01, 0.49))
        mp = MultichannelProblem(counts, beta, float(rng.uniform(0.01, 0.99)))
        phis = [np.sort(rng.random(n)) for n in counts]
        nxt = sync_desync_round(MultichannelState.initial(phis), mp).phis
        for c, row in enumerate(nxt):
            step = phis[c][1:] - beta * multichannel_gradient_channel(c, phis, mp)[1:]
            assert np.max(np.abs(row[1:] - step)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=-0.8, max_value=0.8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_objective_nonnegative_and_translation_invariant(n, shift, seed):
    rng = np.random.default_rng(seed)
    phi = rng.random(n)
    p = SingleChannelProblem(n, 0.5, 1e-3)
    v = desync_objective(phi, p)
    assert v >= 0.0
    assert desync_objective(phi + shift, p) == pytest.approx(v, abs=1e-9)


def test_objective_zero_exactly_on_translated_equispaced():
    p = SingleChannelProblem(5, 0.5, 1e-3)
    equi = np.arange(5) / 5
    assert desync_objective(equi + 0.37, p) == pytest.approx(0.0, abs=1e-28)
    bent = equi.copy()
    bent[2] += 1e-3
    assert desync_objective(bent, p) > 0.0


def test_vecdot_rows_equal_ndarray_dot():
    # gap_terms sums with np.vecdot on the strength of this: every row gets
    # the bits of its own ndarray.dot, for 1-D, stacked and strided rows. A
    # numpy that changes either loop fails here instead of shifting outputs.
    rng = np.random.default_rng(10)
    for n in range(1, 301):
        x = rng.random(n) - 0.5
        assert np.vecdot(x, x) == x.dot(x)
        stack = rng.random((3, 4, n)) - 0.5
        strided = (rng.random((4, 3, 2 * n)) - 0.5)[::2, :, ::2]
        for rows in (stack, strided):
            v = np.vecdot(rows, rows)
            assert v.shape == rows.shape[:-1]
            for i in np.ndindex(v.shape):
                assert v[i] == rows[i].dot(rows[i])


@pytest.mark.parametrize("n", [2, 4, 7, 16, 64, 257, 1024])
def test_batch_gap_objective_equals_engine_objective(n):
    # the batch loop and the engine read one arithmetic, so every trial's
    # value is the engine's to the bit, on sampled starts and on a
    # (rounds, trials, n) block of states
    problem = SingleChannelProblem(n, 0.5, 1e-3)
    starts = initial_phase_batch(n, 200, seed_base=n)
    values = batch_gap_objective(starts)
    assert all(values[t] == desync_objective(starts[t], problem) for t in range(200))
    block = np.random.default_rng(n).random((8, 25, n)) * 3.0
    values = batch_gap_objective(block)
    assert values.shape == (8, 25)
    for k, t in np.ndindex(values.shape):
        assert values[k, t] == desync_objective(block[k, t], problem)


@pytest.mark.parametrize("fast", [False, True])
def test_engine_runs_emit_no_runtime_warning(fast):
    # np.vecdot is a ufunc and reports overflow, where ndarray.dot did not:
    # converging and diverging engine runs of every variant must keep their
    # objectives inside the float range
    rng = np.random.default_rng(11)
    runs = [
        (SingleChannelProblem(16, 0.3, 1e-4), None),
        (SingleChannelProblem(16, 0.8, 1e-4), 1e-4),
        (MultichannelProblem.uniform(3, 4, 0.2, 0.6), 1e-4),
        (MultichannelProblem.uniform(3, 4, 0.45, 0.6), 1e-4),
    ]
    aborted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for problem, epsilon in runs:
            if isinstance(problem, SingleChannelProblem):
                phi0 = np.sort(rng.random(problem.n))
                state = NesterovState.initial(phi0) if fast else DesyncState(phi0)
            else:
                phis = [np.sort(rng.random(4)) for _ in range(3)]
                state = MultichannelState.initial(phis, nesterov=fast)
            try:
                run_until_convergence(state, problem, epsilon=epsilon)
            except FloatingPointError as exc:
                assert "diverged at round" in str(exc)
                aborted += 1
    assert aborted == (2 if fast else 0)  # alpha 0.8 and beta 0.45 are past the onset
