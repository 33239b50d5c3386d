"""Matrix and gradient forms of the desynchronization maths, kept as test
oracles: the package runs the rounds and objectives directly, and the tests
check them against these.

The single-channel objective is 0.5 ||D phi - 1/n + e_last||^2 with D the
cyclic forward-difference matrix; its gradient is D^T D phi + d, where d is
the wrap bias D^T e_last = (1, 0, ..., 0, -1). One Desync round is the
gradient step phi - (alpha/2) grad.
"""

import numpy as np

from desynclab.problems import (
    MultichannelProblem,
    SingleChannelProblem,
    as_channel_vectors,
    as_phase_vector,
)


def difference_matrix(n: int) -> np.ndarray:
    """Cyclic forward-difference matrix: (D @ phi)[i] = phi[i+1] - phi[i], wrapping."""
    D = -np.eye(n)
    D += np.eye(n, k=1)
    D[n - 1, 0] = 1.0
    return D


def wrap_bias(n: int) -> np.ndarray:
    """Constant gradient term (1, 0, ..., 0, -1) from the ring's wrap-around gap."""
    d = np.zeros(n)
    d[0] = 1.0
    d[-1] = -1.0
    return d


def ring_laplacian(n: int) -> np.ndarray:
    """D^T D: the Laplacian of the n-cycle."""
    D = difference_matrix(n)
    return D.T @ D


def desync_gradient(phi, problem: SingleChannelProblem) -> np.ndarray:
    """Gradient of the single-channel objective: Laplacian term plus wrap bias.

    Independent of the 1/n target term, which lies in the difference
    matrix's left null space.
    """
    phi = as_phase_vector(phi, problem.n)
    lap = 2.0 * phi - np.roll(phi, 1) - np.roll(phi, -1)
    return lap + wrap_bias(problem.n)


def multichannel_gradient_channel(c: int, phis, problem: MultichannelProblem) -> np.ndarray:
    """Gradient of the multichannel objective with respect to channel c's block."""
    phis = as_channel_vectors(phis, problem)
    C = problem.num_channels
    p = phis[c]
    grad = 2.0 * p - np.roll(p, 1) - np.roll(p, -1) + wrap_bias(p.size)
    first = [q[0] for q in phis]
    grad[0] += 2.0 * first[c] - first[(c - 1) % C] - first[(c + 1) % C]
    return grad


def sync_selector(problem: MultichannelProblem) -> np.ndarray:
    """Indicator of the first node of every channel; a left eigenvector of
    the iteration matrix M for the eigenvalue 1."""
    u = np.zeros(problem.total_nodes)
    u[problem.offsets()] = 1.0
    return u


def balance_by_restart(members, sync_of):
    """Greedy channel balancing, restarting its scan at channel 0 after
    every move: the smallest member of the first channel c with
    n_c - n_{c+1} >= 1 (>= 2 at the wrap edge) moves to c+1. Every channel
    a move touched then elects its smallest member (None when empty); the
    others keep their Sync. Takes and returns the member lists by channel
    and the Sync ids."""
    members = [sorted(m) for m in members]
    sync_of = list(sync_of)
    C = len(members)
    touched = set()
    while True:
        for c in range(C):
            nxt = (c + 1) % C
            if len(members[c]) - len(members[nxt]) >= (2 if nxt == 0 else 1):
                members[nxt] = sorted(members[nxt] + [members[c].pop(0)])
                touched.update((c, nxt))
                break
        else:
            break
    for c in touched:
        sync_of[c] = min(members[c], default=None)
    return members, sync_of
