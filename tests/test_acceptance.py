"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Three band assertions are expected to fail and are left failing on purpose;
they encode targets that the implemented dynamics provably cannot meet (the
printed diagnostics carry the measured values):

* criterion 1 speed-up band: the accelerated variant's measured gain at
  small alpha is 60-85%, far above the 35% cap, under both the synchronous
  engine and live event dynamics;
* criterion 3 overhead band: multichannel convergence costs several times
  the single-channel rounds (anchored-chain spectral gap plus cross-channel
  consensus settling), not 5-35%.
"""

import time

import numpy as np
import pytest

from desynclab import (
    DesyncState,
    MultichannelProblem,
    MultichannelState,
    NesterovState,
    SimConfig,
    Simulation,
    SingleChannelProblem,
    desync_round,
    desync_round_bound,
    fast_desync_round,
    fast_desync_round_bound,
    run_simulation,
    run_until_convergence,
    spectral_report,
    sync_desync_round,
)
from desynclab.experiments import DEFAULT_ALPHAS, DEFAULT_ALPHAS_PAIRED
from desynclab.spectral import _match_spectra
from desynclab.trials import (
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
)

from oracles import sync_selector

TRIALS = 400
SEED_BASE = 0
EPSILONS = (1e-3, 1e-4)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def circdiff(x):
    return (np.asarray(x) + 0.5) % 1.0 - 0.5


@pytest.fixture(scope="module")
def paired_sweep():
    """400-trial paired sweep over the default comparison grid, n in {4, 8}."""
    t0 = time.time()
    out = {}
    for n in (4, 8):
        phi0 = initial_phase_batch(n, TRIALS, SEED_BASE)
        for alpha in DEFAULT_ALPHAS_PAIRED:
            for eps in EPSILONS:
                plain = run_desync_batch(phi0, alpha, eps, max_rounds=100000)
                fast = run_fast_desync_batch(phi0, alpha, eps, max_rounds=100000)
                assert plain.ok and fast.ok
                out[(n, alpha, eps)] = (plain, fast)
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_1_fast_never_slower(paired_sweep):
    worst = None
    for n in (4, 8):
        for alpha in DEFAULT_ALPHAS_PAIRED:
            for eps in EPSILONS:
                plain, fast = paired_sweep[(n, alpha, eps)]
                margin = plain.rounds.mean() - fast.rounds.mean()
                if worst is None or margin < worst[0]:
                    worst = (margin, n, alpha, eps)
    ok = worst[0] >= 0.0
    assert report(
        "1 (ordering)", ok,
        f"Fast mean <= Desync mean at every grid point; tightest margin "
        f"{worst[0]:+.2f} rounds at n={worst[1]}, alpha={worst[2]}, eps={worst[3]}; "
        f"sweep took {paired_sweep['elapsed']:.1f}s",
    )


def test_criterion_1_speedup_band(paired_sweep):
    """Expected red: the measured acceleration far exceeds the 35% cap."""
    details = []
    ok = True
    for n in (4, 8):
        best = 0.0
        for alpha in DEFAULT_ALPHAS_PAIRED:
            for eps in EPSILONS:
                plain, fast = paired_sweep[(n, alpha, eps)]
                m = plain.rounds.mean()
                speedup = 100.0 * (m - fast.rounds.mean()) / m
                best = max(best, speedup)
        details.append(f"n={n}: max speed-up {best:.1f}%")
        ok = ok and 2.0 <= best <= 35.0
    assert report("1 (speed-up band [2%,35%])", ok, "; ".join(details))


def test_criterion_2_bound_compliance(paired_sweep):
    n = 8
    worst_ratio = 0.0
    ok = True
    for alpha in DEFAULT_ALPHAS_PAIRED:
        for eps in EPSILONS:
            plain, fast = paired_sweep[(n, alpha, eps)]
            problem = SingleChannelProblem(n, alpha, eps)
            bd = desync_round_bound(problem)
            bf = fast_desync_round_bound(problem)
            ok = ok and plain.rounds.max() <= bd and fast.rounds.max() <= bf
            worst_ratio = max(worst_ratio, fast.rounds.max() / bf)
    assert report(
        "2 (bound compliance)", ok,
        f"observed max rounds below both worst-case bounds at every grid point "
        f"(largest observed/bound ratio for Fast: {worst_ratio:.3f})",
    )


def test_criterion_2_spot_values():
    problem = SingleChannelProblem(8, 0.5, 1e-4)
    bd = desync_round_bound(problem)
    bf = fast_desync_round_bound(problem)
    ok = abs(bd - 210000.0) <= 0.001 * 210000.0 and abs(bf - 916.5151389911681) <= 0.001 * 916.5
    assert report(
        "2 (spot values)", ok,
        f"bound(n=8, a=0.5, eps=1e-4): plain {bd:.1f} (target 210000), "
        f"fast {bf:.1f} (target ~916.5)",
    )


def test_criterion_2_fast_bound_tightness(paired_sweep):
    n = 8
    worst = 0.0
    at = None
    for alpha in DEFAULT_ALPHAS_PAIRED:
        for eps in EPSILONS:
            _, fast = paired_sweep[(n, alpha, eps)]
            problem = SingleChannelProblem(n, alpha, eps)
            ratio = fast_desync_round_bound(problem) / max(int(fast.rounds.max()), 1)
            if ratio > worst:
                worst, at = ratio, (alpha, eps)
    ok = worst <= 100.0
    assert report(
        "2 (fast bound within two orders of magnitude)", ok,
        f"largest bound/observed-max ratio {worst:.1f} at alpha={at[0]}, eps={at[1]}",
    )


@pytest.fixture(scope="module")
def multichannel_sweep():
    t0 = time.time()
    plain = {}
    fast = {}
    gamma = 0.6
    for C in (6, 16):
        phi0 = initial_multichannel_batch(C, 4, TRIALS, SEED_BASE)
        for alpha in DEFAULT_ALPHAS:
            beta = alpha / 2.0
            for eps in EPSILONS:
                plain[(C, alpha, eps)] = run_sync_desync_batch(
                    phi0, beta, gamma, eps, max_rounds=100000
                )
                if alpha in DEFAULT_ALPHAS_PAIRED:
                    fast[(C, alpha, eps)] = run_sync_desync_batch(
                        phi0, beta, gamma, eps, max_rounds=100000, fast=True
                    )
    single = {}
    phi0 = initial_phase_batch(4, TRIALS, SEED_BASE)
    for alpha in DEFAULT_ALPHAS:
        for eps in EPSILONS:
            single[(alpha, eps)] = run_desync_batch(phi0, alpha, eps, max_rounds=100000)
    return {"plain": plain, "fast": fast, "single": single, "elapsed": time.time() - t0}


def test_criterion_3_converges_on_full_grid(multichannel_sweep):
    bad = [key for key, res in multichannel_sweep["plain"].items() if not res.ok]
    assert report(
        "3 (multichannel convergence over the full beta grid)", not bad,
        f"{len(multichannel_sweep['plain'])} grid points, all trials converged "
        f"(sweep took {multichannel_sweep['elapsed']:.1f}s)"
        + (f"; failures at {bad[:3]}" if bad else ""),
    )


def test_criterion_3_overhead_band(multichannel_sweep):
    """Expected red: measured overhead is several hundred percent, not 5-35%."""
    details = []
    ok = True
    for C in (6, 16):
        for eps in EPSILONS:
            ratios = []
            for alpha in DEFAULT_ALPHAS:
                much = multichannel_sweep["plain"][(C, alpha, eps)].rounds.mean()
                base = multichannel_sweep["single"][(alpha, eps)].rounds.mean()
                ratios.append(100.0 * (much - base) / base)
            overhead = float(np.mean(ratios))
            details.append(f"C={C}, eps={eps}: {overhead:.0f}%")
            ok = ok and 5.0 <= overhead <= 35.0
    assert report("3 (overhead band [5%,35%])", ok, "mean overhead " + "; ".join(details))


def test_criterion_3_fast_much_speedup(multichannel_sweep):
    best = (0.0, None)
    for key, fast in multichannel_sweep["fast"].items():
        plain = multichannel_sweep["plain"][key]
        m = plain.rounds.mean()
        speedup = 100.0 * (m - fast.rounds.mean()) / m
        if speedup > best[0]:
            best = (speedup, key)
    ok = best[0] >= 5.0
    assert report(
        "3 (accelerated multichannel speed-up)", ok,
        f"best mean speed-up {best[0]:.1f}% at (C, alpha, eps)={best[1]}",
    )


def test_criterion_4_spectral_certification(dense_spectrum):
    betas = (0.05, 0.15, 0.25, 0.35, 0.45)
    gammas = (0.1, 0.3, 0.5, 0.7, 0.9)
    ns = (3, 4, 6)
    cs = (2, 3, 4)
    worst_mismatch = 0.0
    worst_rho_error = 0.0
    worst_rho = 0.0
    ok = True
    for beta in betas:
        for gamma in gammas:
            for n in ns:
                for C in cs:
                    problem = MultichannelProblem.uniform(C, n, beta, gamma)
                    rep = spectral_report(problem)
                    eig, rho = dense_spectrum(problem)
                    mismatch = _match_spectra(rep.eigenvalues_M, eig)
                    rho_error = abs(rep.spectral_radius_deflated - rho)
                    worst_mismatch = max(worst_mismatch, mismatch)
                    worst_rho_error = max(worst_rho_error, rho_error)
                    worst_rho = max(worst_rho, rep.spectral_radius_deflated)
                    ok = ok and (
                        mismatch <= 1e-9
                        and rho_error <= 1e-12
                        and rep.eigenvalue_one_multiplicity == 1
                        and rep.spectral_radius_deflated < 1.0
                    )
    assert report(
        "4 (spectral certification)", ok,
        f"5x5x3x3 grid: worst closed-form/dense mismatch {worst_mismatch:.2e}, "
        f"worst deflated-radius error {worst_rho_error:.2e}, "
        f"eigenvalue 1 simple everywhere, worst deflated radius {worst_rho:.6f}",
    )


def test_criterion_5_fixed_point_characterization():
    rng = np.random.default_rng(10)
    ok = True
    worst_gap = 0.0
    worst_sync = 0.0
    for C, n in ((2, 3), (3, 4), (4, 2)):
        problem = MultichannelProblem.uniform(C, n, 0.2, 0.6)
        st = MultichannelState.initial([np.sort(rng.random(n)) for _ in range(C)])
        rep = run_until_convergence(st, problem, epsilon=1e-13, max_rounds=200000)
        assert rep.converged and rep.final_objective < 1e-10
        for _ in range(rep.rounds):
            st = sync_desync_round(st, problem)
        firsts = [phi[0] for phi in st.phis]
        worst_sync = max(worst_sync, max(firsts) - min(firsts))
        for phi in st.phis:
            gaps = np.concatenate([np.diff(phi), [phi[0] + 1 - phi[-1]]])
            worst_gap = max(worst_gap, np.abs(gaps - 1.0 / n).max())
    ok = worst_gap <= 1e-6 and worst_sync <= 1e-6
    assert report(
        "5 (fixed-point characterization)", ok,
        f"converged states: worst spacing error {worst_gap:.2e}, "
        f"worst cross-channel offset spread {worst_sync:.2e}",
    )


def test_criterion_6_engine_simulator_equivalence():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(2, 11))
        alpha = float(rng.uniform(0.05, 0.95))
        phi0 = np.sort(rng.random(n))
        cfg = SimConfig(
            n=n, channels=1, alpha=alpha, epsilon=1e-300,
            staleness_mode="assumption1", initial_phases=phi0,
            initial_channels=np.zeros(n, dtype=int), max_rounds=40,
        )
        res = Simulation(cfg).run()
        problem = SingleChannelProblem(n, alpha, 1e-300)
        st = DesyncState(phi0.copy())
        iterates = [phi0.copy()]
        for _ in range(40):
            st = desync_round(st, problem)
            iterates.append(st.phi.copy())
        for rec in res.trace:
            if rec.round_index == 0:
                continue
            engine = iterates[rec.round_index - 1] % 1.0
            worst = max(worst, np.abs(circdiff(rec.offsets_by_node - engine)).max())
    ok = worst <= 1e-9
    assert report(
        "6 (engine-simulator equivalence)", ok,
        f"50 instances, 40 rounds each: worst per-component circular "
        f"difference {worst:.2e} (tolerance 1e-9)",
    )


def test_criterion_7_conservation_invariants():
    rng = np.random.default_rng(11)
    worst_mean = 0.0
    p = SingleChannelProblem(6, 0.4, 1e-3)
    st = DesyncState(rng.random(6))
    total = st.phi.sum()
    for _ in range(500):
        st = desync_round(st, p)
        worst_mean = max(worst_mean, abs(st.phi.sum() - total))
    stf = NesterovState.initial(rng.random(6))
    totalf = stf.phi.sum()
    for _ in range(500):
        stf = fast_desync_round(stf, p)
        worst_mean = max(worst_mean, abs(stf.phi.sum() - totalf))
    mp = MultichannelProblem.uniform(4, 3, 0.2, 0.5)
    u = sync_selector(mp)
    stm = MultichannelState.initial([rng.random(3) for _ in range(4)])
    total_u = u @ stm.stacked()
    worst_u = 0.0
    for _ in range(1000):
        stm = sync_desync_round(stm, mp)
        worst_u = max(worst_u, abs(u @ stm.stacked() - total_u))
    ok = worst_mean <= 1e-12 and worst_u <= 1e-12
    assert report(
        "7 (conservation invariants)", ok,
        f"1000 rounds each: worst mean drift {worst_mean:.2e}, "
        f"worst Sync-sum drift {worst_u:.2e} (tolerance 1e-12)",
    )


def test_criterion_8_channel_balancing():
    rng = np.random.default_rng(12)
    ok = True
    saw_3344 = False
    for trial in range(100):
        n = int(rng.integers(13, 21))
        cfg = SimConfig(n=n, channels=4, rng_seed=int(rng.integers(1 << 31)))
        counts = Simulation(cfg).occupancy()
        lo, hi = n // 4, -(-n // 4)
        ok = ok and all(c in (lo, hi) for c in counts) and sum(counts) == n
        if n == 14 and sorted(counts) == [3, 3, 4, 4]:
            saw_3344 = True
    if not saw_3344:
        counts = Simulation(SimConfig(n=14, channels=4, rng_seed=1)).occupancy()
        saw_3344 = sorted(counts) == [3, 3, 4, 4]
    ok = ok and saw_3344
    assert report(
        "8 (channel balancing)", ok,
        "100 random placements: every terminal occupancy in {floor(n/4), ceil(n/4)}; "
        "n=14 reaches the 3,3,4,4 split",
    )


def hidden_adjacency(n, seed):
    rng = np.random.default_rng(seed)
    adj = np.ones((n, n), dtype=bool)
    for u in rng.choice(n, size=20, replace=False):
        others = np.array([w for w in range(n) if w != u])
        adj[u, rng.choice(others, size=4, replace=False)] = False
    return adj


def test_criterion_9_hidden_nodes_qualitative():
    t0 = time.time()
    settled_hidden = 0
    rounds_hidden, rounds_base = [], []
    runs = 100
    for seed in range(runs):
        base = run_simulation(
            SimConfig(n=64, channels=16, alpha=0.6, gamma=0.6, epsilon=1e-3,
                      rng_seed=seed, max_rounds=2500)
        )
        rounds_base.append(
            base.steady_round if base.steady_round is not None else base.report.rounds
        )
        hid = run_simulation(
            SimConfig(n=64, channels=16, alpha=0.6, gamma=0.6, epsilon=1e-3,
                      rng_seed=seed, max_rounds=2500,
                      adjacency=hidden_adjacency(64, 10_000 + seed))
        )
        settled = hid.report.converged or hid.steady_round is not None
        settled_hidden += settled
        rounds_hidden.append(
            hid.steady_round if hid.steady_round is not None else 2500
        )
    ok = settled_hidden >= 95 and np.mean(rounds_hidden) > np.mean(rounds_base)
    assert report(
        "9 (hidden nodes, qualitative)", ok,
        f"{settled_hidden}/{runs} hidden-node runs settle; mean settling rounds "
        f"{np.mean(rounds_hidden):.0f} vs fully-connected {np.mean(rounds_base):.0f} "
        f"({time.time() - t0:.0f}s)",
    )


def test_criterion_10_steady_state_swaps():
    cfg = SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-12,
                    rng_seed=11, max_rounds=60000)
    sim = Simulation(cfg)
    res = sim.run()
    assert res.report.converged
    for _ in range(60):
        sim.step()
    eps = cfg.epsilon
    rng = np.random.default_rng(13)
    worst_change = 0.0
    worst_obj = 0.0
    swaps = 0
    while swaps < 100:
        while sim.next_fire.min() - sim.time < cfg.guard_time:
            sim.step()
        pairs = [
            (a, b)
            for a in sim.channel_members[0]
            for b in sim.channel_members[1]
            if abs(sim.next_fire[a] - sim.next_fire[b]) < 1e-5 * cfg.period
            and sim.nodes[a].role == sim.nodes[b].role
        ]
        a, b = pairs[rng.integers(len(pairs))]
        before = sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
        sim.swap_channels(a, b, tol=1e-5)
        after = sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
        worst_change = max(worst_change, abs(after - before))
        swaps += 1
        for _ in range(6):
            sim.step()
        worst_obj = max(
            worst_obj, sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
        )
    ok = worst_change <= 1e-12 and worst_obj <= eps
    assert report(
        "10 (steady-state swaps)", ok,
        f"100 swaps: worst objective change {worst_change:.2e} (tolerance 1e-12); "
        f"objective never exceeded {worst_obj:.2e} afterwards (epsilon {eps})",
    )
