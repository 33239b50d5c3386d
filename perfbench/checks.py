"""Correctness checks on the benchmark's outputs, independent of the code
under test where that is affordable.

Each check returns a list of failure messages (empty when it holds); the
caller marks the op failed. Divergence outside the guarantee range
(alpha > 1/2) is counted elsewhere, never failed here.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from desynclab import experiments as ex
from desynclab.bounds import FAST_GUARANTEE_ALPHA_MAX, desync_round_bound
from desynclab.problems import MultichannelProblem, SingleChannelProblem
from desynclab.rounds import (
    DesyncState,
    MultichannelState,
    NesterovState,
    run_until_convergence,
)
from desynclab.spectral import consensus_block_eigenvalues, desync_block_eigenvalues
from desynclab.trials import initial_multichannel_batch, initial_phase_batch

RADIUS_TOL = 1e-9


def sweep_rows(op) -> list[str]:
    """No failed trial inside the guarantee range."""
    alpha = op.arg.alphas[0]
    if alpha > FAST_GUARANTEE_ALPHA_MAX:
        return []
    return [f"{r.mode} alpha={alpha} eps={r.epsilon}: {r.failures} failed trials"
            for r in op.value.rows if r.failures]


def bounds_rows(op, sweep_op) -> list[str]:
    """Bounds maxima equal the sweep's at the same point; no violation inside
    the guarantee range (failed trials there fail the sweep op itself)."""
    errs = []
    by_mode = {r.mode: r for r in sweep_op.value.rows}
    for b in op.value:
        if b.max_rounds_desync != by_mode["desync"].max_rounds:
            errs.append(f"alpha={b.alpha} eps={b.epsilon}: max_rounds_desync "
                        f"{b.max_rounds_desync} != sweep {by_mode['desync'].max_rounds}")
        if b.max_rounds_fast != by_mode["fast-desync"].max_rounds:
            errs.append(f"alpha={b.alpha} eps={b.epsilon}: max_rounds_fast "
                        f"{b.max_rounds_fast} != sweep {by_mode['fast-desync'].max_rounds}")
        if b.alpha <= FAST_GUARANTEE_ALPHA_MAX and b.violated:
            errs.append(f"alpha={b.alpha} eps={b.epsilon}: bound violated")
    return errs


def certificate(op) -> list[str]:
    """Deflated radius equals the largest analytic eigenvalue modulus once the
    single eigenvalue 1 is dropped (deflation moves exactly that one to 0)."""
    n, C, beta, gamma = op.arg
    analytic = np.concatenate([
        np.tile(desync_block_eigenvalues(n, beta).astype(complex), C),
        consensus_block_eigenvalues(C, gamma),
    ])
    analytic = np.delete(analytic, np.argmin(np.abs(analytic - 1.0)))
    expected = float(np.max(np.abs(analytic)))
    errs = []
    for row in op.value:
        if abs(row.spectral_radius_deflated - expected) > RADIUS_TOL:
            errs.append(f"N={n * C} beta={beta}: deflated radius "
                        f"{row.spectral_radius_deflated!r} != analytic {expected!r}")
        if not row.passed:
            errs.append(f"N={n * C} beta={beta}: certificate not passed")
    return errs


def fire_lead(op) -> int:
    """Largest number of fires by which a node is ahead of the completed
    rounds (a round completes when every node has fired once more)."""
    sim, _ = op.value
    return max(nd.fire_count for nd in sim.nodes) - sim.completed_rounds


def simulation(op, must_settle: bool, exact_rounds: int | None) -> list[str]:
    """Balanced occupancy, finite objectives, settling where required.

    "Fire counts equal completed rounds +-1" is counted by the caller
    (fire_lead) instead of failed: with C = 16 some node is two fires ahead
    in a third to a half of all runs. Sync nodes are pulled by up to half a
    period per update and, along the channel chain, inherit the displacement
    of every channel downstream, so leads of a full period are expected.
    """
    sim, res = op.value
    cfg = sim.config
    tag = f"n={cfg.n} seed={cfg.rng_seed} hidden={cfg.adjacency is not None}"
    errs = []
    lo, hi = cfg.n // cfg.channels, -(-cfg.n // cfg.channels)
    if any(not lo <= occ <= hi for occ in res.occupancy):
        errs.append(f"{tag}: unbalanced occupancy {res.occupancy}")
    if not all(math.isfinite(rec.objective) for rec in res.trace):
        errs.append(f"{tag}: non-finite objective")
    if must_settle and not (res.report.converged or res.steady_round is not None):
        errs.append(f"{tag}: fully connected run did not settle")
    if exact_rounds is not None and sim.completed_rounds != exact_rounds:
        errs.append(f"{tag}: {sim.completed_rounds} rounds, expected {exact_rounds}")
    return errs


def same_trace(a, b) -> bool:
    """Bit-identical traces: every record's time, offsets and objective."""
    if len(a.trace) != len(b.trace):
        return False
    return all(
        ra.round_index == rb.round_index
        and ra.sim_time == rb.sim_time
        and ra.objective == rb.objective
        and np.array_equal(ra.offsets_by_node, rb.offsets_by_node)
        for ra, rb in zip(a.trace, b.trace)
    )


def _cap(n_total: int, alpha: float, eps: float) -> int:
    """The sweep's default round cap: 10x the plain worst-case bound."""
    return int(math.ceil(10.0 * desync_round_bound(SingleChannelProblem(n_total, alpha, eps))))


def recompute(spec, rows, trials: int) -> list[str]:
    """Re-run the first `trials` trials of a one-point spec one at a time
    with the round engine (`rounds.run_until_convergence`) and require the
    rows' mean_rounds and max_rounds to match exactly. `rows` must come from
    a sweep of exactly `trials` trials on the same spec."""
    alpha, eps = spec.alphas[0], spec.epsilons[0]
    if spec.mode in ("desync", "fast-desync"):
        problem = SingleChannelProblem(spec.n, alpha, eps)
        cap = _cap(spec.n, alpha, eps)
        phi0 = initial_phase_batch(spec.n, trials, spec.seed_base)
        starts = {
            "desync": lambda p: DesyncState(p),
            "fast-desync": NesterovState.initial,
        }
    else:
        C, n = spec.channels, spec.nodes_per_channel
        problem = MultichannelProblem.uniform(C, n, alpha / 2.0, spec.gammas[0])
        cap = _cap(C * n, alpha, eps)
        phi0 = initial_multichannel_batch(C, n, trials, spec.seed_base)
        starts = {
            "much": lambda p: MultichannelState.initial(list(p)),
            "fast-much": lambda p: MultichannelState.initial(list(p), nesterov=True),
        }
    errs = []
    for row in rows:
        rounds = np.array([
            run_until_convergence(starts[row.mode](p), problem, epsilon=eps, max_rounds=cap).rounds
            for p in phi0
        ])
        if float(rounds.mean()) != row.mean_rounds or int(rounds.max()) != row.max_rounds:
            errs.append(
                f"{row.mode} alpha={alpha} eps={eps}: row mean/max "
                f"{row.mean_rounds}/{row.max_rounds}, round engine "
                f"{float(rounds.mean())}/{int(rounds.max())} over {trials} trials"
            )
    return errs


def recompute_sweep_op(op, trial_limit: int | None) -> list[str]:
    """Recompute a timed sweep point. With a trial limit below the spec's
    trial count, a fresh sweep of the first `trial_limit` trials (same
    seeds) is checked instead of the timed row."""
    spec = op.arg
    if trial_limit is None or trial_limit >= spec.trials:
        return recompute(spec, op.value.rows, spec.trials)
    small = replace(spec, trials=trial_limit)
    return recompute(small, ex.run_sweep(small).rows, trial_limit)


def audit_outputs(out_dir: str) -> tuple[int, int]:
    """Parse every written CSV and .dat file; return (non-numeric fields,
    bytes written). The sweep CSV's mode column is text by schema."""
    bad = size = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                rows = [line.strip().split(",") for line in fh if line.strip()]
            text_cols = {header.index("mode")} if "mode" in header else set()
            bad += sum(
                not _numeric(v) for row in rows for i, v in enumerate(row) if i not in text_cols
            )
        elif name.endswith(".dat"):
            with open(path) as fh:
                bad += sum(
                    not _numeric(v)
                    for line in fh if line.strip() and not line.startswith("#")
                    for v in line.split()
                )
    return bad, size


def _numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
