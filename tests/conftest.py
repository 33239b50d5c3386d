import numpy as np
import pytest

from desynclab import build_iteration_matrix, sync_selector


def _dense_spectrum(problem):
    """Brute-force oracle for `spectral_report`: the eigenvalues of the dense
    M and the spectral radius of M deflated along its eigenpair (ones, u).
    u must be scaled so that u.ones = 1, otherwise the rank-one correction
    shifts the eigenvalue 1 to 1 - C instead of 0."""
    M, _ = build_iteration_matrix(problem)
    u = sync_selector(problem)
    deflated = M - np.outer(np.ones(len(u)), u) / u.sum()
    return np.linalg.eigvals(M), float(np.max(np.abs(np.linalg.eigvals(deflated))))


@pytest.fixture
def dense_spectrum():
    return _dense_spectrum
