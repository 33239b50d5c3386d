import numpy as np
import pytest

from desynclab import (
    MultichannelProblem,
    SingleChannelProblem,
    alpha_to_beta,
    as_phase_vector,
    beta_to_alpha,
)
from desynclab.problems import SpecError, as_channel_vectors

from oracles import difference_matrix, ring_laplacian, wrap_bias


def test_phase_vector_validation():
    as_phase_vector([0.0, 0.5])
    with pytest.raises(ValueError):
        as_phase_vector([0.5])
    with pytest.raises(ValueError):
        as_phase_vector([[0.1, 0.2]])
    with pytest.raises(ValueError):
        as_phase_vector([0.1, np.nan])
    with pytest.raises(ValueError):
        as_phase_vector([0.1, 0.2, 0.3], n=4)


def test_single_channel_problem_ranges():
    SingleChannelProblem(n=2, alpha=0.5, epsilon=1e-3)
    with pytest.raises(ValueError):
        SingleChannelProblem(n=1, alpha=0.5, epsilon=1e-3)
    with pytest.raises(ValueError):
        SingleChannelProblem(n=4, alpha=0.0, epsilon=1e-3)
    with pytest.raises(ValueError):
        SingleChannelProblem(n=4, alpha=1.0, epsilon=1e-3)
    with pytest.raises(ValueError):
        SingleChannelProblem(n=4, alpha=0.5, epsilon=0.0)


def test_multichannel_problem_ranges():
    MultichannelProblem.uniform(2, 2, 0.25, 0.5)
    with pytest.raises(ValueError):
        MultichannelProblem.uniform(1, 4, 0.25, 0.5)
    with pytest.raises(ValueError):
        MultichannelProblem((4, 1), 0.25, 0.5)
    with pytest.raises(ValueError):
        MultichannelProblem.uniform(2, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        MultichannelProblem.uniform(2, 4, 0.25, 1.0)


@pytest.mark.parametrize("size", [4.5, 2.7, float("nan"), True, "4"])
def test_problem_sizes_must_be_integers(size):
    # both used to truncate or compare the value as given: (2.7, 3) became
    # (2, 3), and n = 4.5 built and returned a bound
    with pytest.raises(SpecError, match=f"^n must be an integer, got {size!r}$"):
        SingleChannelProblem(n=size, alpha=0.5, epsilon=1e-3)
    with pytest.raises(SpecError, match="^channel count must be an integer"):
        MultichannelProblem((size, 3), 0.25, 0.5)


def test_problem_sizes_read_numpy_and_integral_floats_as_int():
    single = SingleChannelProblem(n=np.int64(4), alpha=0.5, epsilon=1e-3)
    multi = MultichannelProblem((np.int64(2), 3.0), 0.25, 0.5)
    assert type(single.n) is int and single.n == 4
    assert multi.channel_counts == (2, 3)
    assert all(type(c) is int for c in multi.channel_counts)


def test_difference_matrix_structure():
    # explicit entry-by-entry oracle
    for n in (2, 3, 5, 8):
        D = difference_matrix(n)
        expected = np.zeros((n, n))
        for i in range(n):
            expected[i, i] = -1.0
            expected[i, (i + 1) % n] = 1.0
        assert np.array_equal(D, expected)
        # columns sum to zero: ones is in the left null space
        assert np.allclose(D.T @ np.ones(n), 0.0)


def test_wrap_bias_is_last_row_of_difference_matrix():
    for n in (2, 4, 7):
        D = difference_matrix(n)
        e_last = np.zeros(n)
        e_last[-1] = 1.0
        assert np.array_equal(wrap_bias(n), D.T @ e_last)


def test_ring_laplacian_eigenvalues_capped_at_four():
    # eigenvalues are 2 - 2cos(2 pi k / n); max equals 4 exactly for even n
    for n in range(2, 12):
        lam = np.linalg.eigvalsh(ring_laplacian(n))
        assert lam.max() <= 4.0 + 1e-12
        if n % 2 == 0:
            assert lam.max() == pytest.approx(4.0, abs=1e-12)
        else:
            assert lam.max() < 4.0


def test_alpha_beta_conversions():
    assert alpha_to_beta(0.5) == 0.25
    assert beta_to_alpha(0.25) == 0.5
    assert beta_to_alpha(alpha_to_beta(0.37)) == pytest.approx(0.37, abs=0)


def test_problem_accessors():
    p = SingleChannelProblem(n=4, alpha=0.5, epsilon=1e-4)
    assert p.beta == 0.25
    assert np.array_equal(p.reference_solution(), np.array([0.0, 0.25, 0.5, 0.75]))
    mp = MultichannelProblem((2, 3, 4), 0.2, 0.6)
    assert mp.num_channels == 3
    assert mp.total_nodes == 9
    assert np.array_equal(mp.offsets(), np.array([0, 2, 5]))
    assert mp.alpha == pytest.approx(0.4)


@pytest.mark.parametrize("count", [1, 3])
def test_channel_vectors_need_one_vector_per_channel(count):
    mp = MultichannelProblem.uniform(2, 3, 0.2, 0.6)
    with pytest.raises(ValueError, match=f"^expected 2 channel vectors, got {count}$"):
        as_channel_vectors([np.arange(3) / 3] * count, mp)
