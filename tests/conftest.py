import numpy as np
import pytest

from desynclab import build_iteration_matrix

from oracles import sync_selector


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


def _dense_desync_spectrum(problem):
    """Brute-force oracle for the eigenvalues momentum acts on: the dense M
    restricted to the Desync coordinates (every index but each channel's
    first). Sync rows read only Sync coordinates, so this block's spectrum
    is that of the Desync blocks together."""
    M, _ = build_iteration_matrix(problem)
    desync = np.flatnonzero(sync_selector(problem) == 0.0)
    return np.linalg.eigvals(M[np.ix_(desync, desync)]).real


@pytest.fixture
def dense_desync_spectrum():
    return _dense_desync_spectrum
