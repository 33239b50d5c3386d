import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import desynclab
from desynclab import (
    MultichannelProblem,
    MultichannelState,
    build_iteration_matrix,
    certify_spectra,
    consensus_block_eigenvalues,
    desync_block_eigenvalues,
    spectral_report,
    sync_desync_round,
)
from desynclab.spectral import _match_spectra

from oracles import sync_selector


def test_small_matrix_by_unit_basis_oracle():
    # M's columns are exactly the joint round applied to unit basis vectors
    # (minus the constant part); cross-checks the hand construction
    p = MultichannelProblem.uniform(2, 2, 0.25, 0.5)
    M, b = build_iteration_matrix(p)
    zero = MultichannelState.initial([np.zeros(2), np.zeros(2)])
    b_oracle = sync_desync_round(zero, p).stacked()
    assert np.allclose(b, b_oracle, atol=1e-15)
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        st = MultichannelState.initial([e[:2], e[2:]])
        col = sync_desync_round(st, p).stacked() - b_oracle
        assert np.allclose(M[:, j], col, atol=1e-15)
    # hand-checked rows: Sync rows couple to the next channel's first node;
    # the n=2 Desync row's two neighbour terms collapse onto the Sync column
    assert np.allclose(M[0], [0.5, 0.0, 0.5, 0.0])
    assert np.allclose(M[1], [0.5, 0.5, 0.0, 0.0])
    assert np.allclose(M[2], [0.5, 0.0, 0.5, 0.0])
    assert np.allclose(M[3], [0.0, 0.0, 0.5, 0.5])
    assert np.allclose(b, [0.0, 0.25, 0.0, 0.25])


def test_rows_sum_to_one_and_left_eigenvector():
    for counts, beta, gamma in [((4, 4, 4), 0.2, 0.6), ((2, 3, 5), 0.3, 0.4)]:
        p = MultichannelProblem(counts, beta, gamma)
        M, b = build_iteration_matrix(p)
        assert np.allclose(M @ np.ones(p.total_nodes), 1.0, atol=1e-14)
        u = sync_selector(p)
        assert np.allclose(u @ M, u, atol=1e-14)
        assert u @ b == pytest.approx(0.0, abs=0)


def test_desync_block_eigenvalues_against_dense_solver():
    # explicit tridiagonal block for n=4: oracle via a dense eigensolver
    n, beta = 4, 0.25
    T = np.zeros((3, 3))
    for i in range(3):
        T[i, i] = 1 - 2 * beta
        if i > 0:
            T[i, i - 1] = beta
        if i < 2:
            T[i, i + 1] = beta
    numeric = np.sort(np.linalg.eigvalsh(T))
    analytic = np.sort(desync_block_eigenvalues(n, beta))
    assert np.allclose(numeric, analytic, atol=1e-12)
    assert np.allclose(
        analytic, np.sort([0.5 + 0.5 * np.cos(np.pi * j / 4) for j in (1, 2, 3)])
    )
    expected = sorted([0.85355339, 0.5, 0.14644661])
    assert np.allclose(analytic, expected, atol=1e-8)


def test_consensus_block_eigenvalues_against_dft_oracle():
    C, gamma = 4, 0.6
    # circulant generated by (1-gamma, gamma, 0, 0): DFT of the generator row
    row = np.zeros(C)
    row[0] = 1 - gamma
    row[1] = gamma
    dft = np.array([
        sum(row[k] * np.exp(2j * np.pi * j * k / C) for k in range(C))
        for j in range(C)
    ])
    analytic = consensus_block_eigenvalues(C, gamma)
    assert np.allclose(np.sort_complex(dft), np.sort_complex(analytic), atol=1e-12)
    ones = np.isclose(np.abs(analytic - 1.0), 0.0, atol=1e-12)
    assert ones.sum() == 1
    assert any(np.isclose(analytic, 0.4 + 0.6j, atol=1e-12))
    assert any(np.isclose(analytic, -0.2, atol=1e-12))


def check_against_dense_oracle(p, dense_spectrum):
    rep = spectral_report(p)
    eig, rho = dense_spectrum(p)
    assert len(rep.eigenvalues_M) == p.total_nodes
    assert _match_spectra(rep.eigenvalues_M, eig) <= 1e-9
    assert abs(rep.spectral_radius_deflated - rho) <= 1e-12
    assert rep.eigenvalue_one_multiplicity == 1
    assert rep.converges


def test_spectral_report_uniform(dense_spectrum):
    check_against_dense_oracle(MultichannelProblem.uniform(4, 4, 0.25, 0.6), dense_spectrum)
    check_against_dense_oracle(MultichannelProblem((2, 2), 0.25, 0.5), dense_spectrum)


def test_spectral_report_nonuniform(dense_spectrum):
    check_against_dense_oracle(MultichannelProblem((3, 5, 7, 4), 0.2, 0.6), dense_spectrum)
    check_against_dense_oracle(MultichannelProblem((2, 3, 4), 0.2, 0.6), dense_spectrum)


def test_certificate_above_dense_cap():
    # N = 8192 is above the dense oracle's cap; the closed form needs no matrix
    rows = certify_spectra(ns=(64,), cs=(128,), betas=(0.2,), gammas=(0.6,))
    assert len(rows) == 1 and rows[0].passed
    assert rows[0].eigenvalue_one_multiplicity == 1
    assert rows[0].spectral_radius_deflated < 1.0


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency: the dense oracle matches spectra with it
    src = str(Path(desynclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, desynclab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_deflated_radius_below_one_on_parameter_grid():
    for beta in (0.05, 0.2, 0.35, 0.49):
        for gamma in (0.05, 0.4, 0.8, 0.95):
            p = MultichannelProblem.uniform(3, 4, beta, gamma)
            rep = spectral_report(p)
            assert rep.converges, (beta, gamma, rep.spectral_radius_deflated)


def test_matrix_size_cap():
    p = MultichannelProblem.uniform(128, 64, 0.2, 0.6)  # 8192 > cap
    with pytest.raises(ValueError):
        build_iteration_matrix(p)
