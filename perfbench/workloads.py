"""The four benchmark workloads.

A workload is a list of *passes*. Pass ``k`` of seed ``s`` is one complete
study on inputs derived from ``(s, k)``: a fixed list of ops (an op is one
grid point, bounds row, certificate or simulation) followed by the output
writers. ``study_s`` is the time of one pass; a run repeats passes on fresh
inputs until its time is used up.

Every call goes through the package's public entry points, looked up on the
module at call time, so the traced run can wrap them from outside.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from desynclab import experiments as ex
from desynclab.eventsim import SimConfig, Simulation
from desynclab.problems import MultichannelProblem
from desynclab.spectral import spectral_report

SIM_ALPHA = SIM_GAMMA = 0.6
SCALE_CHANNELS = 16
SCALE_ROUNDS = 10
SCALE_BETA = 0.3
HIDDEN_N, HIDDEN_CHANNELS = 64, 16


@dataclass(frozen=True)
class Size:
    trials: int
    alphas: tuple
    scale_ns: tuple
    hidden_pairs: int


FULL = Size(trials=400, alphas=ex.DEFAULT_ALPHAS, scale_ns=(128, 256, 512, 1024),
            hidden_pairs=20)
# Reduced size for the smoke test: one stable and one unstable alpha.
SMOKE = Size(trials=16, alphas=(0.3, 0.8), scale_ns=(64, 128), hidden_pairs=2)


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k; passes of one run and runs of different seeds never
    share inputs."""
    return seed * 1000 + k


def hidden_adjacency(n: int, seed: int, nodes: int = 20, links: int = 4) -> np.ndarray:
    """Full connectivity except that `nodes` random listeners each lose
    `links` random firers (the acceptance suite's criterion-9 topology)."""
    rng = np.random.default_rng(seed)
    adj = np.ones((n, n), dtype=bool)
    for u in rng.choice(n, size=nodes, replace=False):
        others = np.array([w for w in range(n) if w != u])
        adj[u, rng.choice(others, size=links, replace=False)] = False
    return adj


@dataclass
class Op:
    kind: str            # "sweep", "bounds", "cert" or "sim"
    arg: object          # one-point spec, (n, C, beta, gamma) or SimConfig
    fn: Callable
    value: object = None
    seconds: float = 0.0
    error: str | None = None
    failed_checks: list = field(default_factory=list)

    def call(self):
        return self.fn(self.arg)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks)


def simulate(cfg: SimConfig):
    """What run_simulation does, keeping the Simulation for the checks."""
    sim = Simulation(cfg)
    return sim, sim.run()


def certify(key):
    n, C, beta, gamma = key
    return ex.certify_spectra([n], [C], [beta], [gamma])


# The op functions look the entry points up on the module at call time, so
# the tracer's wrappers are used once installed.
def sweep(spec):
    return ex.run_sweep(spec)


def bounds(spec):
    return ex.compare_bounds(spec)


def _sweep_ops(spec: ex.ExperimentSpec, with_bounds: bool) -> list[Op]:
    ops = []
    for alpha in spec.alphas:
        for eps in spec.epsilons:
            point = replace(spec, alphas=(alpha,), epsilons=(eps,))
            ops.append(Op("sweep", point, sweep))
            if with_bounds:
                ops.append(Op("bounds", point, bounds))
    return ops


def _sweep_result(spec, ops) -> ex.SweepResult:
    rows = [row for op in ops if op.kind == "sweep" and op.value for row in op.value.rows]
    return ex.SweepResult(spec=spec, rows=rows)


def _rows(ops, kind) -> list:
    return [row for op in ops if op.kind == kind and op.value for row in op.value]


class Workload:
    name: str
    exact_rounds: int | None = None       # simulations must run exactly this many rounds
    connected_runs_settle = False         # fully connected simulations must settle
    recompute_trials: int | None = None   # trials the recompute check re-runs (None: all)

    def __init__(self, size: Size = FULL):
        self.size = size

    def ops(self, seed: int, k: int) -> list[Op]:
        raise NotImplementedError

    def writers(self, seed: int, k: int, ops: list[Op], out_dir: str) -> list[tuple[str, Callable]]:
        raise NotImplementedError


class SweepSingle(Workload):
    """desync, n = 16, default alpha x eps grid: the single-channel kernels on
    small 400 x 16 arrays, compare_bounds re-running the sweep's batches, and
    the diverging fast-desync points at alpha >= 0.75."""

    name = "sweep-single"

    def spec(self, seed, k):
        return ex.ExperimentSpec(
            mode="desync", n=16, alphas=self.size.alphas,
            epsilons=ex.DEFAULT_EPSILONS, trials=self.size.trials,
            seed_base=pass_seed(seed, k) * self.size.trials,
        )

    def ops(self, seed, k):
        return _sweep_ops(self.spec(seed, k), with_bounds=True)

    def writers(self, seed, k, ops, out_dir):
        result = _sweep_result(self.spec(seed, k), ops)
        bound_rows = _rows(ops, "bounds")
        return [
            ("sweep.csv", lambda: ex.write_sweep_csv(result, os.path.join(out_dir, "sweep.csv"))),
            ("plotdata", lambda: ex.emit_plotdata(result, out_dir)),
            ("bounds.csv", lambda: ex.write_bounds_csv(bound_rows, os.path.join(out_dir, "bounds.csv"))),
        ]


class SweepMulti(Workload):
    """much, C = 16 x 4 nodes, default alpha grid, then 19 certificates at
    N = 64: the joint kernel (which keeps stepping finished trials), the
    per-trial x per-channel initial-phase loop and the unstable fast-much
    points."""

    name = "sweep-multi"
    # The round engine needs ~0.75 ms per round at C = 16, so re-running all
    # 400 trials of a point would take minutes; the first 8 are re-run.
    recompute_trials = 8
    channels, nodes_per_channel, gamma = 16, 4, 0.6

    def spec(self, seed, k):
        return ex.ExperimentSpec(
            mode="much", channels=self.channels, nodes_per_channel=self.nodes_per_channel,
            alphas=self.size.alphas, gammas=(self.gamma,), epsilons=ex.DEFAULT_EPSILONS,
            trials=self.size.trials, seed_base=pass_seed(seed, k) * self.size.trials,
        )

    def ops(self, seed, k):
        spec = self.spec(seed, k)
        ops = _sweep_ops(spec, with_bounds=False)
        for alpha in spec.alphas:
            key = (self.nodes_per_channel, self.channels, alpha / 2.0, self.gamma)
            ops.append(Op("cert", key, certify))
        return ops

    def writers(self, seed, k, ops, out_dir):
        result = _sweep_result(self.spec(seed, k), ops)
        spectra = _rows(ops, "cert")
        return [
            ("sweep.csv", lambda: ex.write_sweep_csv(result, os.path.join(out_dir, "sweep.csv"))),
            ("plotdata", lambda: ex.emit_plotdata(result, out_dir)),
            ("spectra.csv", lambda: ex.write_spectra_csv(spectra, os.path.join(out_dir, "spectra.csv"))),
        ]


class SimScale(Workload):
    """Live simulations of exactly 10 rounds at n = 128..1024 (C = 16), each
    followed by its dense certificate at N = n: per-fire scans are O(n) and
    the eigensolves O(N^3)."""

    name = "sim-scale"
    exact_rounds = SCALE_ROUNDS

    def ops(self, seed, k):
        ops = []
        for j, n in enumerate(self.size.scale_ns):
            cfg = SimConfig(
                n=n, channels=SCALE_CHANNELS, alpha=SIM_ALPHA, gamma=SIM_GAMMA,
                epsilon=1e-300, rng_seed=pass_seed(seed, k) * 100 + j,
                max_rounds=SCALE_ROUNDS,
            )
            ops.append(Op("sim", cfg, simulate))
            key = (n // SCALE_CHANNELS, SCALE_CHANNELS, SCALE_BETA, SIM_GAMMA)
            ops.append(Op("cert", key, certify))
        return ops

    def writers(self, seed, k, ops, out_dir):
        spectra = _rows(ops, "cert")
        return [
            ("spectra.csv", lambda: ex.write_spectra_csv(spectra, os.path.join(out_dir, "spectra.csv"))),
        ]


class SimHidden(Workload):
    """Acceptance criterion 9: per seed a fully connected and a hidden-node
    run at n = 64, C = 16, to convergence or steady state. Many medium
    networks, dominated by constant per-fire cost."""

    name = "sim-hidden"
    connected_runs_settle = True

    def ops(self, seed, k):
        ops = []
        base_seed = pass_seed(seed, k) * 100
        for j in range(self.size.hidden_pairs):
            cfg = SimConfig(
                n=HIDDEN_N, channels=HIDDEN_CHANNELS, alpha=SIM_ALPHA, gamma=SIM_GAMMA,
                epsilon=1e-3, rng_seed=base_seed + j, max_rounds=2500,
            )
            hidden = replace(cfg, adjacency=hidden_adjacency(HIDDEN_N, 10**9 + base_seed + j))
            ops.append(Op("sim", cfg, simulate))
            ops.append(Op("sim", hidden, simulate))
        return ops

    def writers(self, seed, k, ops, out_dir):
        return []


WORKLOADS = {w.name: w for w in (SweepSingle, SweepMulti, SimScale, SimHidden)}


def warm_up():
    """First dense eigensolve of the process (N = 128), so that LAPACK's
    one-time set-up is paid before the first timed call."""
    spectral_report(MultichannelProblem.uniform(16, 8, 0.3, 0.6))
