import numpy as np
import pytest

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SingleChannelProblem,
    SpecError,
    build_iteration_matrix,
    desync_objective,
    desync_round,
    fast_desync_round,
    fast_sync_desync_round,
    multichannel_objective,
    run_until_convergence,
    sync_desync_round,
)

from oracles import sync_selector


def explicit_round_matrix(n, alpha):
    """Matrix-product oracle: I - (alpha/2) D^T D and the bias -(alpha/2) d."""
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = -1.0
        D[i, (i + 1) % n] = 1.0
    d = np.zeros(n)
    d[0], d[-1] = 1.0, -1.0
    return np.eye(n) - (alpha / 2) * D.T @ D, -(alpha / 2) * d


def reference_desync_rounds(phi0, alpha, eps, max_rounds=100000):
    """Independent straightforward re-implementation: per-component update
    loops with the boundary corrections written out."""
    phi = list(map(float, phi0))
    n = len(phi)

    def g(v):
        gaps = [v[i + 1] - v[i] for i in range(n - 1)] + [v[0] + 1 - v[n - 1]]
        return 0.5 * sum((x - 1.0 / n) ** 2 for x in gaps)

    if g(phi) <= eps:
        return 0
    for k in range(1, max_rounds + 1):
        new = [0.0] * n
        new[0] = (1 - alpha) * phi[0] + alpha / 2 * (phi[1] + phi[n - 1] - 1)
        for i in range(1, n - 1):
            new[i] = (1 - alpha) * phi[i] + alpha / 2 * (phi[i - 1] + phi[i + 1])
        new[n - 1] = (1 - alpha) * phi[n - 1] + alpha / 2 * (phi[n - 2] + phi[0] + 1)
        phi = new
        if g(phi) <= eps:
            return k
    return max_rounds


def test_desync_round_fixed_point():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    st = DesyncState(np.array([0.0, 0.25, 0.5, 0.75]))
    nxt = desync_round(st, p)
    assert np.allclose(nxt.phi, st.phi, atol=1e-15)
    assert nxt.k == 1


def test_desync_round_example_and_matrix_oracle():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    phi = np.array([0.0, 0.1, 0.5, 0.9])
    nxt = desync_round(DesyncState(phi), p)
    assert np.allclose(nxt.phi, [0.0, 0.175, 0.5, 0.825], atol=1e-15)
    A, c = explicit_round_matrix(4, 0.5)
    assert np.allclose(nxt.phi, A @ phi + c, atol=1e-14)


def test_desync_round_matrix_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        alpha = float(rng.uniform(0.05, 0.95))
        phi = rng.normal(size=n)
        p = SingleChannelProblem(n, alpha, 1e-3)
        A, c = explicit_round_matrix(n, alpha)
        assert np.allclose(desync_round(DesyncState(phi), p).phi, A @ phi + c, atol=1e-12)


def test_mean_preserved_under_desync():
    rng = np.random.default_rng(1)
    p = SingleChannelProblem(6, 0.3, 1e-3)
    st = DesyncState(rng.random(6))
    total = st.phi.sum()
    for _ in range(50):
        st = desync_round(st, p)
        assert st.phi.sum() == pytest.approx(total, abs=1e-12)


def test_monotone_descent_of_plain_rounds():
    rng = np.random.default_rng(2)
    for alpha in (0.1, 0.5, 0.9):
        p = SingleChannelProblem(5, alpha, 1e-12)
        st = DesyncState(np.sort(rng.random(5)))
        prev = desync_objective(st.phi, p)
        for _ in range(60):
            st = desync_round(st, p)
            cur = desync_objective(st.phi, p)
            if prev > 1e-14:
                assert cur < prev
            prev = cur


def test_nesterov_state_invariants():
    phi = np.array([0.1, 0.6])
    st = NesterovState.initial(phi)
    assert st.k == 0
    with pytest.raises(ValueError):
        NesterovState(phi=phi, mu=phi + 0.1, k=0)


def test_fast_round_first_step_has_no_momentum():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    st = NesterovState.initial(np.array([0.0, 0.2, 0.4, 0.9]))
    nxt = fast_desync_round(st, p)
    assert nxt.k == 1
    assert np.allclose(nxt.mu, nxt.phi, atol=1e-16)
    # first accelerated step equals the plain step from the same start
    plain = desync_round(DesyncState(st.phi), p)
    assert np.allclose(nxt.phi, plain.phi, atol=1e-15)


def test_fast_round_fixed_point():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    equi = np.arange(4) / 4
    st = NesterovState.initial(equi.copy())
    for _ in range(5):
        st = fast_desync_round(st, p)
        assert np.allclose(st.phi, equi, atol=1e-15)
        assert np.allclose(st.mu, equi, atol=1e-15)


def test_fast_round_mean_preserved():
    rng = np.random.default_rng(3)
    p = SingleChannelProblem(8, 0.4, 1e-3)
    st = NesterovState.initial(rng.random(8))
    total = st.phi.sum()
    for _ in range(50):
        st = fast_desync_round(st, p)
        assert st.phi.sum() == pytest.approx(total, abs=1e-12)


def test_fast_beats_plain_on_seed_zero():
    rng = np.random.default_rng(0)
    phi0 = np.sort(rng.random(8))
    for eps in (1e-3, 1e-4):
        p = SingleChannelProblem(8, 0.3, eps)
        plain = run_until_convergence(DesyncState(phi0.copy()), p)
        fast = run_until_convergence(NesterovState.initial(phi0.copy()), p)
        assert fast.converged and plain.converged
        assert fast.rounds < plain.rounds


def test_sync_desync_round_fixed_point_and_consensus_example():
    p = MultichannelProblem.uniform(3, 4, 0.25, 0.6)
    base = [0.2 + np.arange(4) / 4 for _ in range(3)]
    st = MultichannelState.initial(base)
    nxt = sync_desync_round(st, p)
    for a, b in zip(nxt.phis, st.phis):
        assert np.allclose(a, b, atol=1e-15)
    # consensus update: 0.4*0.2 + 0.6*0.7 = 0.5
    p2 = MultichannelProblem.uniform(2, 2, 0.25, 0.6)
    st2 = MultichannelState.initial([np.array([0.2, 0.7]), np.array([0.7, 1.2])])
    nxt2 = sync_desync_round(st2, p2)
    assert nxt2.phis[0][0] == pytest.approx(0.5, abs=1e-15)


def test_sync_desync_round_equals_matrix_map():
    rng = np.random.default_rng(4)
    p = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    M, b = build_iteration_matrix(p)
    st = MultichannelState.initial([rng.random(4) for _ in range(3)])
    nxt = sync_desync_round(st, p)
    assert np.abs(nxt.stacked() - (M @ st.stacked() + b)).max() <= 1e-12


def test_sync_sum_preserved():
    rng = np.random.default_rng(5)
    p = MultichannelProblem.uniform(4, 3, 0.2, 0.5)
    u = sync_selector(p)
    st = MultichannelState.initial([rng.random(3) for _ in range(4)])
    total = u @ st.stacked()
    for _ in range(60):
        st = sync_desync_round(st, p)
        assert u @ st.stacked() == pytest.approx(total, abs=1e-12)


def test_fast_sync_desync_first_round_equals_plain():
    rng = np.random.default_rng(6)
    p = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    phis = [rng.random(4) for _ in range(3)]
    plain = sync_desync_round(MultichannelState.initial(phis), p)
    fast = fast_sync_desync_round(MultichannelState.initial(phis, nesterov=True), p)
    for a, b in zip(plain.phis, fast.phis):
        assert np.allclose(a, b, atol=1e-15)


def test_fast_sync_desync_fixed_point():
    p = MultichannelProblem.uniform(2, 3, 0.2, 0.6)
    base = [0.1 + np.arange(3) / 3 for _ in range(2)]
    st = MultichannelState.initial(base, nesterov=True)
    for _ in range(5):
        st = fast_sync_desync_round(st, p)
        for a, b in zip(st.phis, base):
            assert np.allclose(a, b, atol=1e-14)


def test_fast_sync_desync_requires_momentum_memory():
    p = MultichannelProblem.uniform(2, 3, 0.2, 0.6)
    st = MultichannelState.initial([np.zeros(3), np.zeros(3)])
    with pytest.raises(ValueError):
        fast_sync_desync_round(st, p)


def test_run_until_convergence_fixed_point_start():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    rep = run_until_convergence(DesyncState(np.arange(4) / 4), p)
    assert rep.converged and rep.rounds == 0
    assert rep.trace.size == 0


def test_run_until_convergence_against_independent_implementation():
    mine, ref = [], []
    for t in range(100):
        rng = np.random.default_rng(t)
        phi0 = np.sort(rng.random(4))
        p = SingleChannelProblem(4, 0.5, 1e-3)
        rep = run_until_convergence(DesyncState(phi0.copy()), p)
        mine.append(rep.rounds)
        ref.append(reference_desync_rounds(phi0, 0.5, 1e-3))
    assert abs(np.mean(mine) - np.mean(ref)) <= 1.0
    assert mine == ref  # identical per-trial counts, not just averages


def test_run_until_convergence_trace_and_cap():
    p = SingleChannelProblem(6, 0.1, 1e-9)
    rng = np.random.default_rng(7)
    rep = run_until_convergence(DesyncState(np.sort(rng.random(6))), p, max_rounds=5)
    assert not rep.converged
    assert rep.rounds == 5
    assert rep.trace.size == 5
    assert np.all(np.diff(rep.trace) < 0)


def test_run_until_convergence_aborts_on_nonfinite():
    p = SingleChannelProblem(4, 0.5, 1e-3)
    st = DesyncState(np.array([0.0, 0.1, 0.5, 0.9]))

    def bad_round(state, problem):
        return DesyncState(state.phi * 1e200, k=state.k + 1)

    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        run_until_convergence(st, p, round_op=bad_round, max_rounds=10)


@pytest.mark.parametrize("call, error, match", [
    (lambda p: DesyncState(np.array([0.0, 0.5, 0.6, 0.7]), k=-1),
     ValueError, "^iteration counter must be >= 0$"),
    (lambda p: run_until_convergence(DesyncState(np.array([0.0, 0.5, 0.6, 0.7])), p,
                                     max_rounds=0),
     ValueError, "^max_rounds must be >= 1, got 0$"),
    # the run's epsilon passes problems.check_run, whatever the problem carries
    (lambda p: run_until_convergence(DesyncState(np.array([0.0, 0.5, 0.6, 0.7])), p,
                                     epsilon=-1.0, max_rounds=50),
     SpecError, r"^epsilon must be > 0, got -1\.0$"),
    (lambda p: run_until_convergence(
        MultichannelState.initial([np.linspace(0.0, 0.5, 4)] * 3),
        MultichannelProblem.uniform(3, 4, 0.2, 0.6), epsilon=-1.0, max_rounds=50),
     SpecError, r"^epsilon must be > 0, got -1\.0$"),
    # finite offsets whose gaps square past the float range
    (lambda p: run_until_convergence(DesyncState(np.array([0.0, 1e200, 2e200, 3e200])), p),
     FloatingPointError, "^non-finite objective on the initial state$"),
    (lambda p: run_until_convergence(np.array([0.0, 0.5, 0.6, 0.7]), p),
     TypeError, "^no round operation known for state type <class 'numpy.ndarray'>$"),
], ids=["negative-k", "max-rounds-0", "epsilon-negative", "much-epsilon-negative",
        "nonfinite-start", "unknown-state-type"])
def test_round_engine_validation_messages(call, error, match):
    p = SingleChannelProblem(4, 0.5, 1e-3)
    with np.errstate(over="ignore"), pytest.raises(error, match=match):
        call(p)


def test_multichannel_limit_matches_direct_linear_solve():
    # iterate to the fixed point and compare with the deflated-system solve
    rng = np.random.default_rng(8)
    p = MultichannelProblem.uniform(3, 3, 0.2, 0.6)
    M, b = build_iteration_matrix(p)
    u = sync_selector(p)
    N = p.total_nodes
    phi0 = np.concatenate([rng.random(3) for _ in range(3)])
    Mbar = M - np.outer(np.ones(N), u) / (u @ np.ones(N))
    bbar = b + np.ones(N) * (u @ phi0) / (u @ np.ones(N))
    limit = np.linalg.solve(np.eye(N) - Mbar, bbar)
    st = MultichannelState.initial([phi0[0:3], phi0[3:6], phi0[6:9]])
    for _ in range(4000):
        st = sync_desync_round(st, p)
    assert np.abs(st.stacked() - limit).max() <= 1e-10


def test_converged_state_is_equispaced_with_equal_sync_offsets():
    rng = np.random.default_rng(9)
    p = MultichannelProblem.uniform(3, 4, 0.2, 0.6)
    st = MultichannelState.initial([np.sort(rng.random(4)) for _ in range(3)])
    rep = run_until_convergence(st, p, epsilon=1e-12, max_rounds=100000)
    assert rep.converged
    for _ in range(rep.rounds):
        st = sync_desync_round(st, p)
    firsts = [phi[0] for phi in st.phis]
    assert max(firsts) - min(firsts) <= 1e-5
    for phi in st.phis:
        gaps = np.diff(phi)
        assert np.allclose(gaps, 0.25, atol=1e-5)
        assert phi[0] + 1 - phi[-1] == pytest.approx(0.25, abs=1e-5)
