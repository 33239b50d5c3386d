"""Problem instances, their parameter conversions and input validation.

The single-channel problem is a least-squares fit of consecutive phase gaps
to 1/n on a ring; the multichannel problem adds a consensus penalty tying
the first node of each channel to the first node of the next one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SpecError(ValueError):
    """Invalid problem or experiment configuration."""


def alpha_to_beta(alpha: float) -> float:
    """Jump-phase parameter -> gradient step size (beta = alpha/2)."""
    return alpha / 2.0


def beta_to_alpha(beta: float) -> float:
    """Gradient step size -> jump-phase parameter (alpha = 2*beta)."""
    return 2.0 * beta


def _as_int(value, name: str) -> int:
    """A non-bool integer (numpy's included) or an integral float. Bools,
    fractions, NaN and other types are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_run(epsilon: float, max_rounds: int | None = None) -> None:
    """What may bound a run in any loop: epsilon > 0 (NaN fails), a cap >= 1."""
    if not epsilon > 0.0:
        raise SpecError(f"epsilon must be > 0, got {epsilon}")
    if max_rounds is not None and max_rounds < 1:
        raise SpecError(f"max_rounds must be >= 1, got {max_rounds}")


def check_open_unit(value: float, name: str) -> None:
    """The range (0, 1) of alpha and gamma wherever they are given (NaN fails)."""
    if not 0.0 < value < 1.0:
        raise SpecError(f"{name} out of (0,1): {value}")


def as_phase_vector(values, n: int | None = None) -> np.ndarray:
    """Validate a phase-offset vector: 1-D, length >= 2, all finite.

    Offsets are nominally in [0,1) but may leave that range during
    iteration; only finiteness is enforced here.
    """
    phi = np.asarray(values, dtype=np.float64)
    if phi.ndim != 1:
        raise ValueError(f"phase vector must be 1-D, got shape {phi.shape}")
    if phi.size < 2:
        raise ValueError(f"phase vector needs at least 2 entries, got {phi.size}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phase vector contains non-finite entries")
    if n is not None and phi.size != n:
        raise ValueError(f"phase vector has length {phi.size}, expected {n}")
    return phi


@dataclass(frozen=True)
class SingleChannelProblem:
    """Single-channel instance: n nodes, jump parameter alpha, threshold epsilon."""

    n: int
    alpha: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        if self.n < 2:
            raise SpecError(f"n must be >= 2, got {self.n}")
        check_open_unit(self.alpha, "alpha")
        check_run(self.epsilon)

    @property
    def beta(self) -> float:
        return alpha_to_beta(self.alpha)

    def reference_solution(self) -> np.ndarray:
        """The equispaced representative (0, 1/n, ..., (n-1)/n) of the solution set."""
        return np.arange(self.n) / self.n


@dataclass(frozen=True)
class MultichannelProblem:
    """Multichannel instance: per-channel node counts, Desync step beta, Sync step gamma."""

    channel_counts: tuple[int, ...]
    beta: float
    gamma: float

    def __post_init__(self):
        counts = tuple(_as_int(c, "channel count") for c in self.channel_counts)
        object.__setattr__(self, "channel_counts", counts)
        if len(counts) < 2:
            raise SpecError(f"need at least 2 channels, got {len(counts)}")
        if any(c < 2 for c in counts):
            raise SpecError(f"every channel needs >= 2 nodes, got {counts}")
        if not 0.0 < self.beta < 0.5:
            raise SpecError(f"beta out of (0, 1/2): {self.beta}")
        check_open_unit(self.gamma, "gamma")

    @classmethod
    def uniform(cls, channels: int, nodes_per_channel: int, beta: float, gamma: float) -> "MultichannelProblem":
        return cls((nodes_per_channel,) * channels, beta, gamma)

    @property
    def num_channels(self) -> int:
        return len(self.channel_counts)

    @property
    def total_nodes(self) -> int:
        return sum(self.channel_counts)

    @property
    def alpha(self) -> float:
        return beta_to_alpha(self.beta)

    def offsets(self) -> np.ndarray:
        """Start index of each channel's block in the stacked vector."""
        return np.concatenate(([0], np.cumsum(self.channel_counts)[:-1])).astype(int)


def as_channel_vectors(phis: Sequence, problem: MultichannelProblem) -> list[np.ndarray]:
    """Validate a per-channel sequence of phase vectors against the problem sizes."""
    if len(phis) != problem.num_channels:
        raise ValueError(
            f"expected {problem.num_channels} channel vectors, got {len(phis)}"
        )
    return [
        as_phase_vector(p, n) for p, n in zip(phis, problem.channel_counts)
    ]
