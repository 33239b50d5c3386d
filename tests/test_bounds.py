import numpy as np
import pytest

from desynclab import (
    SingleChannelProblem,
    desync_objective,
    desync_round_bound,
    fast_desync_round_bound,
    solution_distance,
    worst_case_distance_sq,
)


def grid_search_distance(phi0, n, zmax=3.0, points=600001):
    """Independent oracle: minimize ||equispaced + z*ones - phi0||^2 over a fine z grid."""
    ref = np.arange(n) / n
    zs = np.linspace(-zmax, zmax, points)
    r = ref + zs[:, None]  # one row per z
    r -= phi0
    r *= r
    return float(r.sum(axis=1).min())


def test_solution_distance_trivial_cases():
    p = SingleChannelProblem(8, 0.5, 1e-4)
    ref = np.arange(8) / 8
    assert solution_distance(ref, p) == pytest.approx(0.0, abs=1e-24)
    assert solution_distance(ref + 0.3, p) == pytest.approx(0.0, abs=1e-24)


def test_solution_distance_matches_grid_search_on_worst_case_vector():
    n = 8
    p = SingleChannelProblem(n, 0.5, 1e-4)
    m = (n + 1) // 2  # first index with m >= n/2
    phi0 = np.concatenate([np.ones(m), np.zeros(n - m)])
    direct = solution_distance(phi0, p)
    oracle = grid_search_distance(phi0, n)
    assert direct == pytest.approx(oracle, abs=1e-9)


def test_solution_distance_matches_grid_search_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        phi0 = rng.random(n)
        p = SingleChannelProblem(n, 0.5, 1e-4)
        assert solution_distance(phi0, p) == pytest.approx(
            grid_search_distance(phi0, n), abs=1e-9
        )


def test_worst_case_bracket_rederivation():
    # closed-form count: (2/n^2) * [m n^2 - n m(m-1) + n(n-1)(2n-1)/6]
    # maximized over the valid transition index m in [n/2, (n+1)/2]
    for n in range(2, 20):
        best = 0.0
        for m in range(1, n + 1):
            val = (2.0 / n**2) * (
                m * n**2 - n * m * (m - 1) + n * (n - 1) * (2 * n - 1) / 6.0
            )
            if n / 2 <= m <= (n + 1) / 2:
                best = max(best, val)
        assert best <= worst_case_distance_sq(n) + 1e-12


def test_desync_round_bound_spot_value():
    # n=8, alpha=0.5, eps=1e-4, 1/g0 dropped: (1/12) * 252 * 1e4 = 210000
    p = SingleChannelProblem(8, 0.5, 1e-4)
    assert 3.5 * 64 + 3 * 8 + 4 == 252.0
    assert desync_round_bound(p) == pytest.approx(210000.0, rel=1e-12)


def test_fast_bound_spot_value():
    p = SingleChannelProblem(8, 0.5, 1e-4)
    assert fast_desync_round_bound(p) == pytest.approx(2 * np.sqrt(210000.0), rel=1e-12)


def test_bound_already_converged():
    p = SingleChannelProblem(8, 0.5, 1e-4)
    assert desync_round_bound(p, g0=1e-4) == 0.0
    assert desync_round_bound(p, g0=5e-5) == 0.0


def test_bound_with_g0_term():
    p = SingleChannelProblem(8, 0.5, 1e-4)
    g0 = 0.05
    expected = 210000.0 * (1.0 / 1e-4 - 1.0 / g0) * 1e-4
    assert desync_round_bound(p, g0=g0) == pytest.approx(expected, rel=1e-12)


def test_distance_aware_bound_never_exceeds_worst_case():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        alpha = float(rng.uniform(0.05, 0.95))
        eps = 10.0 ** rng.uniform(-5, -2)
        p = SingleChannelProblem(n, alpha, eps)
        phi0 = rng.random(n)
        g0 = desync_objective(phi0, p)
        if g0 <= eps:
            continue
        dist_sq = solution_distance(phi0, p)
        tight = desync_round_bound(p, g0=g0, dist_sq=dist_sq)
        loose = desync_round_bound(p, g0=g0)
        assert tight <= loose + 1e-9
        tight_fast = fast_desync_round_bound(p, dist=np.sqrt(dist_sq)) if alpha <= 0.5 else None
        if tight_fast is not None:
            assert tight_fast <= fast_desync_round_bound(p) + 1e-9


def test_fast_bound_warns_outside_guarantee_range():
    p = SingleChannelProblem(8, 0.75, 1e-4)
    with pytest.warns(RuntimeWarning):
        value = fast_desync_round_bound(p)
    assert value > 0.0
