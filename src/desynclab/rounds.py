"""Synchronous per-firing-round iterations and a convergence-driven runner.

All round operations are pure: they take a state and return a new one.
Phase offsets are deliberately NOT reduced modulo 1 here; the iterations
are affine maps on R^n and the convergence theory lives there. Reduction
into [0,1) happens only at the event-simulator boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import desync_round_bound
from .objectives import desync_objective, multichannel_objective
from .problems import (
    MultichannelProblem,
    SingleChannelProblem,
    as_channel_vectors,
    as_phase_vector,
    check_run,
)
from .spectral import momentum_onset

GROWTH = 1e6
"""Factor over its start objective past which an accelerated trial counts as
diverged, once its round reaches the momentum onset. Past the onset an
unstable mode grows geometrically and carries the objective on to float
overflow, so the trials this aborts are exactly the ones that would
overflow, hundreds of rounds earlier. Stable runs have no onset; trials of
an unstable run that converge never rise above their start value, and
Nesterov's (k-1)/(k+2) momentum keeps stable modes free of large transient
growth (Su, Boyd and Candes, JMLR 2016), so six orders of magnitude sit far
above any transient and far below overflow."""


class Stop(enum.IntEnum):
    """How a run ended, in all three loops (the engine raises where a batch
    trial is DIVERGED). Write a member by .name or int(): str() varies by Python."""

    CONVERGED = 0  # objective at or below epsilon
    CAPPED = 1     # max_rounds completed first
    DIVERGED = 2   # aborted by `diverging`
    STEADY = 3     # simulator: offsets settled above epsilon (eventsim.STEADY_ROUNDS)
    ZENO = 4       # simulator: a Zeno exchange that would complete no further round


@dataclass(frozen=True)
class DesyncState:
    phi: np.ndarray
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phi", as_phase_vector(self.phi))
        if self.k < 0:
            raise ValueError("iteration counter must be >= 0")


@dataclass(frozen=True)
class NesterovState:
    """Accelerated-iteration state; at k=0 the momentum vector equals phi."""

    phi: np.ndarray
    mu: np.ndarray
    k: int = 0

    def __post_init__(self):
        phi = as_phase_vector(self.phi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mu", as_phase_vector(self.mu, phi.size))
        if self.k == 0 and not np.array_equal(self.phi, self.mu):
            raise ValueError("at k=0 the momentum vector must equal phi")

    @classmethod
    def initial(cls, phi0) -> "NesterovState":
        phi0 = as_phase_vector(phi0)
        return cls(phi=phi0.copy(), mu=phi0.copy(), k=0)


@dataclass(frozen=True)
class MultichannelState:
    """Per-channel phase vectors; momentum memory covers Desync coordinates only
    (each mu vector mirrors phi at index 0, which carries no momentum)."""

    phis: tuple[np.ndarray, ...]
    mus: tuple[np.ndarray, ...] | None = None
    k: int = 0

    @classmethod
    def initial(cls, phis: Sequence, nesterov: bool = False) -> "MultichannelState":
        phis = tuple(as_phase_vector(p).copy() for p in phis)
        mus = tuple(p.copy() for p in phis) if nesterov else None
        return cls(phis=phis, mus=mus, k=0)

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.phis)


@dataclass
class ConvergenceReport:
    rounds: int
    final_objective: float
    trace: np.ndarray
    converged: bool
    initial_objective: float


def desync_map(
    phi: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One synchronous Desync round along the last axis (n >= 2 nodes),
    (1-alpha) phi + (alpha/2) (roll(phi, 1) + roll(phi, -1) - d): midpoint
    pull toward both phase neighbours, with the wrap-around +-1 corrections
    carried by the ring's wrap bias d = (1, 0, ..., 0, -1), which is fixed.
    Multichannel rounds use it with alpha = 2*beta on every channel.

    `out` receives the result and `work` is scratch, both shaped like phi
    and neither aliasing it; each is allocated when not given, `work` also
    when it is not C-contiguous. The neighbour sum runs once over the
    flattened arrays, one contiguous pass instead of a short one per row;
    it is wrong only in the end columns, which are then computed on their
    own. Every addition is the roll form's, in the same order, so results
    are bit-identical to it and do not depend on whether buffers are
    passed. d is zero except at its ends, so only its end columns are
    subtracted (x - 0.0 is x)."""
    if out is None:
        out = np.empty(phi.shape)
    if work is None or not work.flags.c_contiguous:
        work = np.empty(phi.shape)
    flat, first, last = phi.reshape(-1), work[..., 0], work[..., -1]
    # roll(phi, 1) + roll(phi, -1), right but for the end columns
    np.add(flat[:-2], flat[2:], out=work.reshape(-1)[1:-1])
    np.add(phi[..., -1], phi[..., 1], out=first)
    np.add(phi[..., -2], phi[..., 0], out=last)
    np.subtract(first, 1.0, out=first)
    np.subtract(last, -1.0, out=last)
    np.multiply(work, alpha / 2.0, out=work)
    np.multiply(phi, 1.0 - alpha, out=out)
    return np.add(out, work, out=out)


def sync_map(
    first: np.ndarray,
    gamma: float,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Consensus row along the last (channel) axis,
    (1-gamma) first + gamma roll(first, -1): each channel's first node moves
    toward the next channel's first node.

    `out` and `work` are as in `desync_map`, shaped like first; the roll is
    a slice copy, in the same operation order."""
    if out is None:
        out = np.empty(first.shape)
    if work is None:
        work = np.empty(first.shape)
    work[..., :-1] = first[..., 1:]        # roll(first, -1)
    work[..., -1] = first[..., 0]
    np.multiply(work, gamma, out=work)
    np.multiply(first, 1.0 - gamma, out=out)
    return np.add(out, work, out=out)


def momentum_coefficient(k: int) -> float:
    """(k-1)/(k+2): zero at the first iteration, approaching 1."""
    return (k - 1) / (k + 2)


def momentum_step(nxt: np.ndarray, old: np.ndarray, k: int, out=None) -> np.ndarray:
    """Round k's momentum vector (nxt - old) * m_k + nxt, into `out` if given:
    the bits of nxt + m_k (nxt - old), as + and * commute exactly."""
    out = np.subtract(nxt, old, out=out)
    np.multiply(out, momentum_coefficient(k), out=out)
    return np.add(out, nxt, out=out)


def _joint_round(phis: list, mus: list | None, k: int, alpha: float,
                 gamma: float | None = None) -> tuple[list, list | None]:
    """Round k on per-channel vectors, the one iteration of all four round
    variants (a single channel is one vector with no gamma). Desync rows read
    the momentum vectors when `mus` is given, phi otherwise. With `gamma`,
    each channel's index 0 becomes the consensus row of the current first
    nodes. With momentum, the new momentum vectors extrapolate by
    (k-1)/(k+2) and mirror phi at the consensus row, which carries none."""
    sources = phis if mus is None else mus
    phi_new = [desync_map(src, alpha) for src in sources]
    if gamma is not None:
        first = sync_map(np.array([p[0] for p in phis]), gamma)
        for c, nxt in enumerate(phi_new):
            nxt[0] = first[c]
    if mus is None:
        return phi_new, None
    mu_new = [momentum_step(nxt, old, k) for nxt, old in zip(phi_new, phis)]
    if gamma is not None:
        for m, nxt in zip(mu_new, phi_new):
            m[0] = nxt[0]
    return phi_new, mu_new


def desync_round(state: DesyncState, problem: SingleChannelProblem) -> DesyncState:
    phi = as_phase_vector(state.phi, problem.n)
    (nxt,), _ = _joint_round([phi], None, state.k + 1, problem.alpha)
    return DesyncState(phi=nxt, k=state.k + 1)


def fast_desync_round(state: NesterovState, problem: SingleChannelProblem) -> NesterovState:
    """Accelerated round: Desync map applied to the momentum vector, then the
    momentum extrapolation with coefficient (k-1)/(k+2)."""
    phi, mu = (as_phase_vector(v, problem.n) for v in (state.phi, state.mu))
    k = state.k + 1
    (phi_new,), (mu_new,) = _joint_round([phi], [mu], k, problem.alpha)
    return NesterovState(phi=phi_new, mu=mu_new, k=k)


def sync_desync_round(state: MultichannelState, problem: MultichannelProblem) -> MultichannelState:
    """One joint round: first nodes average with the next channel's first node;
    every other node performs the in-channel Desync update."""
    phis = as_channel_vectors(state.phis, problem)
    nxt, _ = _joint_round(phis, None, state.k + 1, problem.alpha, problem.gamma)
    return MultichannelState(phis=tuple(nxt), mus=None, k=state.k + 1)


def fast_sync_desync_round(state: MultichannelState,
                           problem: MultichannelProblem) -> MultichannelState:
    """Joint round with in-channel acceleration: Desync coordinates run the
    momentum scheme, Sync coordinates keep the plain consensus update."""
    if state.mus is None:
        raise ValueError("state has no momentum memory; build it with nesterov=True")
    phis, mus = (as_channel_vectors(v, problem) for v in (state.phis, state.mus))
    k = state.k + 1
    phi_new, mu_new = _joint_round(phis, mus, k, problem.alpha, problem.gamma)
    return MultichannelState(phis=tuple(phi_new), mus=tuple(mu_new), k=k)


def default_max_rounds(nodes: int, alpha: float, epsilon: float) -> int:
    """10x the worst-case plain bound for `nodes` nodes, so runs always
    terminate. Multichannel runs pass the total node count and alpha = 2*beta."""
    problem = SingleChannelProblem(n=nodes, alpha=alpha, epsilon=epsilon)
    return int(math.ceil(10.0 * desync_round_bound(problem)))


def diverging(value, start, k, onset: int | None):
    """The abort rule of both convergence loops, elementwise over objective
    values: non-finite, or, at a round k at or after the momentum onset
    (`spectral.momentum_onset`), above GROWTH times the start objective.
    The round k is an int or an array of rounds that broadcasts against the
    values, as the batch loop's block of rounds does. Plain runs pass onset
    None and abort on non-finite values only."""
    out = ~np.isfinite(value)
    if onset is not None:
        out |= (value > GROWTH * start) & (k >= onset)
    return out


def _variant(state) -> tuple[Callable, bool]:
    """The state's default round operation and whether it carries momentum."""
    if isinstance(state, DesyncState):
        return desync_round, False
    if isinstance(state, NesterovState):
        return fast_desync_round, True
    if isinstance(state, MultichannelState):
        fast = state.mus is not None
        return (fast_sync_desync_round if fast else sync_desync_round), fast
    raise TypeError(f"no round operation known for state type {type(state)!r}")


def _objective(state, problem) -> float:
    if isinstance(state, MultichannelState):
        return multichannel_objective(state.phis, problem)
    return desync_objective(state.phi, problem)


def run_until_convergence(
    state,
    problem,
    epsilon: float | None = None,
    max_rounds: int | None = None,
    round_op: Callable | None = None,
) -> ConvergenceReport:
    """Iterate a round operation until the objective drops to epsilon.

    The objective is evaluated once per completed round (and once on the
    initial state, so a fixed-point start reports zero rounds). Raises
    FloatingPointError when the objective diverges by `diverging`'s rule,
    the one the batch loop applies. Multichannel problems carry no
    threshold, so their runs must pass `epsilon`.
    """
    multichannel = isinstance(problem, MultichannelProblem)
    if epsilon is None:
        if multichannel:
            raise ValueError("epsilon is required for a MultichannelProblem")
        epsilon = problem.epsilon
    if max_rounds is None:
        nodes = problem.total_nodes if multichannel else problem.n
        max_rounds = default_max_rounds(nodes, problem.alpha, epsilon)
    check_run(epsilon, max_rounds)
    default_op, momentum = _variant(state)
    round_op = round_op or default_op

    initial = float(_objective(state, problem))
    if not np.isfinite(initial):
        raise FloatingPointError("non-finite objective on the initial state")
    onset = momentum_onset(problem) if momentum else None
    trace = []
    value, k = initial, 0
    while value > epsilon and k < max_rounds:
        k += 1
        state = round_op(state, problem)
        value = float(_objective(state, problem))
        if diverging(value, initial, k, onset):
            raise FloatingPointError(
                f"objective diverged at round {k}: {value!r} from {initial!r} "
                f"(momentum onset {onset}; alpha/beta too aggressive?)"
            )
        trace.append(value)
    return ConvergenceReport(
        rounds=k,
        final_objective=value,
        trace=np.asarray(trace),
        converged=value <= epsilon,
        initial_objective=initial,
    )
