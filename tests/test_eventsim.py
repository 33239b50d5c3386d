import gc
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import desynclab
from desynclab import (
    DesyncState,
    SimConfig,
    Simulation,
    SingleChannelProblem,
    SpecError,
    SwapError,
    desync_objective,
    desync_round,
    elect_sync_node,
    multichannel_objective,
    MultichannelProblem,
    run_simulation,
)
from desynclab.eventsim import desync_midpoint, momentum_shift, sync_pull
from desynclab.rounds import Stop, momentum_coefficient
from desynclab.spectral import desync_block_eigenvalues


def circdiff(x):
    return (np.asarray(x) + 0.5) % 1.0 - 0.5


def single_channel_config(**kw):
    base = dict(n=4, channels=1, period=0.1, alpha=0.5, epsilon=1e-3, rng_seed=0)
    base.update(kw)
    return SimConfig(**base)


# ---------------- fire scheduling ----------------

def test_single_node_fires_at_phase_one():
    cfg = single_channel_config(n=1, initial_phases=np.array([0.4]),
                                initial_channels=np.array([0]))
    sim = Simulation(cfg)
    ev = sim.advance_to_next_fire()
    assert ev.time == pytest.approx(0.006 * 10, abs=1e-15)  # T*(1-0.4) = 0.06
    assert ev.node_id == 0
    # next fire exactly one period later
    ev2 = sim.advance_to_next_fire()
    assert ev2.time == pytest.approx(0.16, abs=1e-12)


def test_two_node_fire_order():
    cfg = single_channel_config(
        n=2, initial_phases=np.array([0.2, 0.7]), initial_channels=np.array([0, 0])
    )
    sim = Simulation(cfg)
    ev = sim.advance_to_next_fire()
    assert ev.node_id == 1
    assert ev.time == pytest.approx(0.03, abs=1e-15)


@pytest.mark.parametrize("kw, match", [
    (dict(n=0), r"^n must be >= 1, got 0$"),
    (dict(channels=0), r"^channels must be >= 1, got 0$"),
    (dict(period=0.0), r"^period must be > 0, got 0\.0$"),
    (dict(alpha=1.0), r"^alpha out of \(0,1\): 1\.0$"),
    (dict(gamma=0.0), r"^gamma out of \(0,1\): 0\.0$"),
    (dict(loss_probability=1.0), r"^loss_probability out of \[0,1\): 1\.0$"),
    (dict(epsilon=0.0), r"^epsilon must be > 0, got 0\.0$"),
    (dict(staleness_mode="stale"), r"^unknown staleness_mode: 'stale'$"),
    (dict(adjacency=np.ones((3, 3))), r"^adjacency must be \(4,4\), got \(3, 3\)$"),
    (dict(initial_phases=np.zeros(3)), r"^initial_phases must have shape \(4,\)$"),
    (dict(channels=2, initial_channels=np.array([0, 1, 2, 0])),
     "^initial_channels out of range$"),
    (dict(channels=2, initial_channels=np.array([0, -1, 1, 0])),
     "^initial_channels out of range$"),
    (dict(channels=2, initial_channels=np.array([0.5, 1.7, 0.0, 1.0])),
     "^initial_channels must be integers$"),
    (dict(initial_phases=np.array([0.1, np.nan, 0.3, 0.4])), "^initial_phases must be finite$"),
    (dict(initial_phases=np.array([0.1, 0.2, np.inf, 0.4])), "^initial_phases must be finite$"),
    (dict(max_rounds=0), "^max_rounds must be >= 1, got 0$"),
    (dict(max_rounds=-3), "^max_rounds must be >= 1, got -3$"),
    (dict(guard_time=-0.001), r"^guard_time must be >= 0, got -0\.001$"),
    (dict(steady_tol=-1e-7), "^steady_tol must be >= 0, got -1e-07$"),
], ids=["n", "channels", "period", "alpha", "gamma", "loss", "epsilon",
        "staleness", "adjacency", "initial-phases", "channel-too-high",
        "channel-negative", "channel-fractional", "phase-nan", "phase-inf",
        "max-rounds-0", "max-rounds-negative", "guard-time", "steady-tol"])
def test_config_validation_messages(kw, match):
    # every rule raises SpecError, as the problems and ExperimentSpec do
    with pytest.raises(SpecError, match=match):
        Simulation(single_channel_config(**kw))


@pytest.mark.parametrize("kw, match", [
    (dict(period=np.nan), "^period must be > 0, got nan$"),
    (dict(epsilon=np.nan), "^epsilon must be > 0, got nan$"),
    (dict(steady_tol=np.nan), "^steady_tol must be >= 0, got nan$"),
    (dict(guard_time=np.nan), "^guard_time must be >= 0, got nan$"),
    (dict(alpha=np.nan), r"^alpha out of \(0,1\): nan$"),
    (dict(n=4.5), "^n must be an integer, got 4.5$"),
    (dict(n=True), "^n must be an integer, got True$"),
    (dict(max_rounds=2.5), "^max_rounds must be an integer, got 2.5$"),
    (dict(period=np.inf), "^period must be finite, got inf$"),
    (dict(guard_time=np.inf), "^guard_time must be finite, got inf$"),
], ids=["period-nan", "epsilon-nan", "steady-tol-nan", "guard-time-nan", "alpha-nan",
        "n-fraction", "n-bool", "max-rounds-fraction", "period-inf", "guard-time-inf"])
def test_config_rejects_nan_and_non_integers(kw, match):
    # built, a NaN period fails inside run() with an IndexError from the
    # fire queue, and a NaN epsilon runs to the cap without converging
    with pytest.raises(ValueError, match=match):
        single_channel_config(**kw)


@pytest.mark.parametrize("kw", [
    dict(channels=2.0), dict(n=np.int64(4)), dict(max_rounds=np.int32(7)),
], ids=["channels-float", "n-numpy", "max-rounds-numpy"])
def test_config_normalises_integral_numbers(kw):
    # the package's one integer reader, as ExperimentSpec and the problems use it
    cfg = single_channel_config(**kw)
    for name, value in kw.items():
        assert getattr(cfg, name) == value and type(getattr(cfg, name)) is int


@pytest.mark.parametrize("kw, match", [
    (dict(initial_phases=np.zeros(3)), r"^initial_phases must have shape \(4,\)$"),
    (dict(initial_phases=np.array([0.1, np.nan, 0.3, 0.4])), "^initial_phases must be finite$"),
    (dict(initial_channels=np.array([0, 1, 2, 0])), "^initial_channels out of range$"),
    (dict(initial_channels=np.array([0.5, 1.7, 0.0, 1.0])), "^initial_channels must be integers$"),
], ids=["phase-shape", "phase-nan", "channel-too-high", "channel-fractional"])
def test_config_checks_its_initial_state_when_built_or_replaced(kw, match):
    # no Simulation is built: a config is valid by construction
    with pytest.raises(ValueError, match=match):
        single_channel_config(channels=2, **kw)
    with pytest.raises(ValueError, match=match):
        replace(single_channel_config(channels=2), **kw)


def test_config_accepts_numpy_integers():
    cfg = single_channel_config(n=np.int64(4), max_rounds=np.int32(3))
    assert Simulation(cfg).run().report.rounds <= 3


def test_next_fire_is_a_read_only_snapshot():
    # a write would bypass the fire queue and leave the node never firing
    sim = Simulation(SimConfig(n=6, rng_seed=1))
    before = sim.next_fire
    with pytest.raises(ValueError):
        sim.next_fire[3] += 0.01
    assert np.array_equal(sim.next_fire, before)
    ev = sim.step()
    assert before[ev.node_id] == ev.time
    assert sim.next_fire[ev.node_id] == ev.time + sim.config.period
    for _ in range(60):
        sim.step()
    assert min(nd.fire_count for nd in sim.nodes) >= 9


def test_converged_state_fires_equally_spaced():
    equi = np.arange(4) / 4
    cfg = single_channel_config(initial_phases=equi, initial_channels=np.zeros(4, int))
    sim = Simulation(cfg)
    times = [sim.step().time for _ in range(12)]
    gaps = np.diff(times)
    assert np.allclose(gaps, 0.1 / 4, atol=1e-9)


# ---------------- desync update ----------------

def test_midpoint_listener_does_not_move():
    # 2-node channel already at the half-period spacing: fires must not move
    cfg = single_channel_config(
        n=2, initial_phases=np.array([0.1, 0.6]), initial_channels=np.array([0, 0])
    )
    sim = Simulation(cfg)
    for _ in range(10):
        sim.step()
    assert abs(circdiff(sim.nodes[0].phi - 0.1)) < 1e-12
    assert abs(circdiff(sim.nodes[1].phi - 0.6)) < 1e-12


def test_first_round_update_skipped_without_cache():
    # the first firer has heard nothing before its fire; its first heard fire
    # afterwards must not move it (cache miss), only seed the cache
    phi0 = np.array([0.1, 0.35, 0.6, 0.9])
    cfg = single_channel_config(initial_phases=phi0, initial_channels=np.zeros(4, int))
    sim = Simulation(cfg)
    sim.step()  # node 3 fires
    sim.step()  # node 2 fires; node 3's update attempt lacks a successor cache
    assert sim.nodes[3].phi == pytest.approx(0.9, abs=1e-15)
    assert sim.nodes[3].update_count == 0


def test_live_converges_and_matches_engine_at_small_alpha():
    sim_rounds, eng_rounds = [], []
    for seed in range(40):
        cfg = single_channel_config(alpha=0.1, rng_seed=seed)
        res = run_simulation(cfg)
        assert res.report.converged
        sim_rounds.append(res.report.rounds)
        rng = np.random.default_rng(seed)
        phi0 = np.sort(rng.random(4))
        p = SingleChannelProblem(4, 0.1, 1e-3)
        from desynclab import run_until_convergence

        eng_rounds.append(run_until_convergence(DesyncState(phi0), p).rounds)
    # announcement staleness costs about a round; at this alpha the relative
    # gap stays within ten percent
    assert abs(np.mean(sim_rounds) - np.mean(eng_rounds)) <= 0.1 * np.mean(eng_rounds)


def test_live_lag_is_additive_at_large_alpha():
    sim_rounds, eng_rounds = [], []
    for seed in range(40):
        cfg = single_channel_config(alpha=0.5, rng_seed=seed)
        res = run_simulation(cfg)
        sim_rounds.append(res.report.rounds)
        rng = np.random.default_rng(seed)
        phi0 = np.sort(rng.random(4))
        from desynclab import run_until_convergence

        p = SingleChannelProblem(4, 0.5, 1e-3)
        eng_rounds.append(run_until_convergence(DesyncState(phi0), p).rounds)
    lag = np.mean(sim_rounds) - np.mean(eng_rounds)
    assert 0.0 <= lag <= 3.0


# ---------------- sync update ----------------

def test_sync_pull_examples():
    assert sync_pull(0.5, 0.6) == pytest.approx(0.8, abs=1e-15)
    # phase 1 means "fire together now"; equivalent to 0 on the circle
    assert sync_pull(1.0, 0.6) == pytest.approx(1.0, abs=1e-15)
    # just-fired listener eases back toward alignment instead of being yanked
    assert sync_pull(0.0, 0.6) == pytest.approx(0.0, abs=1e-15)
    assert sync_pull(0.2, 0.6) == pytest.approx(0.08, abs=1e-15)
    assert sync_pull(0.9, 0.6) >= 0.9  # inhibitory branch never decreases


# ---------------- fire rules on floats and arrays ----------------

RULE_INPUTS = 100_000


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_rule_agrees(rule, reference, *columns):
    """The rule on arrays, the rule on Python floats and the reference (the
    simulator's former branch form) on floats give the same bits, and the
    rule gives floats a float."""
    on_arrays = rule(*columns)
    rows = list(zip(*(c.tolist() for c in columns)))
    on_floats = [rule(*row) for row in rows]
    assert all(type(v) is float for v in on_floats)
    assert np.array_equal(_bits(on_arrays), _bits(on_floats))
    assert np.array_equal(_bits(on_floats), _bits([reference(*row) for row in rows]))


def _with_special_pairs(a, b):
    """Random pairs, a fifth each overwritten with ties, one-ulp neighbours
    above and below, zeros on the left, and both zero."""
    k = a.size // 5
    b[:k] = a[:k]
    b[k:2 * k] = np.nextafter(a[k:2 * k], 1.0)
    b[2 * k:3 * k] = np.nextafter(a[2 * k:3 * k], 0.0)
    a[3 * k:4 * k] = 0.0
    a[4 * k:4 * k + 100] = b[4 * k:4 * k + 100] = 0.0
    return a, b


def test_desync_midpoint_float_and_array_bits_agree():
    def branch(p_own, p_succ, alpha):
        if p_succ <= p_own:
            p_succ += 1.0
        return (1.0 - alpha) * p_own + (alpha / 2.0) * p_succ

    rng = np.random.default_rng(28)
    p_own, p_succ = _with_special_pairs(rng.random(RULE_INPUTS), rng.random(RULE_INPUTS))
    alpha = rng.uniform(0.01, 0.99, RULE_INPUTS)
    assert_rule_agrees(desync_midpoint, branch, p_own, p_succ, alpha)


def test_momentum_shift_float_and_array_bits_agree():
    def inline(new, old, k):
        return momentum_coefficient(k) * ((new - old + 0.5) % 1.0 - 0.5)

    rng = np.random.default_rng(29)
    new, old = _with_special_pairs(rng.random(RULE_INPUTS), rng.random(RULE_INPUTS))
    new[-100:], old[-100:] = 0.75, 0.25  # a half-cycle step
    k = rng.integers(1, 2000, RULE_INPUTS)
    k[:100] = 1  # no momentum at the first update
    assert_rule_agrees(momentum_shift, inline, new, old, k)


def test_sync_pull_float_and_array_bits_agree():
    def branch(theta, gamma):
        if theta >= 0.5:
            return (1.0 - gamma) * theta + gamma
        return (1.0 - gamma) * theta

    rng = np.random.default_rng(30)
    theta = rng.random(RULE_INPUTS)
    edges = [0.0, 0.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)]
    theta[:7000] = np.repeat(edges, 1000)
    gamma = rng.uniform(0.01, 0.99, RULE_INPUTS)
    assert_rule_agrees(sync_pull, branch, theta, gamma)


def test_sync_nodes_align_across_channels():
    cfg = SimConfig(n=8, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-10,
                    rng_seed=3, max_rounds=20000)
    sim = Simulation(cfg)
    res = sim.run()
    assert res.report.converged
    syncs = [sim.nodes[sim.sync_of[c]].phi for c in range(2)]
    assert abs(circdiff(syncs[0] - syncs[1])) < 1e-4 * 1.0


def fitted_rate(C, gamma, seed, top):
    """A live run at alpha = 0.5 with four nodes per channel, run to 1e-14:
    the exp of the least-squares slope of its log objective over the rounds
    whose objective lies in (1e-14, top)."""
    res = run_simulation(SimConfig(n=4 * C, channels=C, alpha=0.5, gamma=gamma,
                                   epsilon=1e-14, rng_seed=seed, steady_tol=0.0))
    obj = np.array([rec.objective for rec in res.trace])
    k = np.flatnonzero((obj > 1e-14) & (obj < top))
    return np.exp(np.polyfit(k, np.log(obj[k]), 1)[0])


@pytest.mark.parametrize("C, gamma, top", [
    (2, 0.6, 1e-4), (3, 0.6, 1e-4), (6, 0.6, 1e-4),
    # the chain term dominates; a seed whose chain mode starts small follows
    # the Desync rate down to about 1e-7, so the fit starts below it
    (2, 0.05, 1e-8),
], ids=["C2", "C3", "C6", "C2-gamma-0.05"])
def test_live_rate_is_the_rooted_chain_rate(C, gamma, top):
    # the Sync nodes form a rooted chain (no wrap edge), whose block has the
    # one eigenvalue 1 - gamma; each channel's Desync block's largest modulus
    # is rho. The objective decays by the larger, squared. The engine's
    # circulant consensus predicts 0.7604 at C = 6 and 0.81 at gamma = 0.05.
    rho = np.max(np.abs(desync_block_eigenvalues(4, 0.25)))
    chain = max(rho, 1.0 - gamma) ** 2
    rates = [fitted_rate(C, gamma, seed, top) for seed in range(8)]
    assert np.all(np.abs(np.array(rates) - chain) < 1e-3), (chain, rates)


def test_sync_ignores_in_channel_fires():
    cfg = SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-3, rng_seed=1)
    sim = Simulation(cfg)
    sync_id = sim.sync_of[1]  # last channel's sync free-runs (chain root)
    phi_before = sim.nodes[sync_id].phi
    for _ in range(30):
        sim.step()
    assert sim.nodes[sync_id].phi == pytest.approx(phi_before, abs=1e-15)


# ---------------- roles, balancing, loss ----------------

def test_elect_sync_node_smallest_id():
    assert elect_sync_node([7, 3, 12]) == 3
    assert elect_sync_node([5]) == 5
    with pytest.raises(ValueError):
        elect_sync_node([])


def test_election_after_balancing():
    cfg = SimConfig(n=9, channels=3, rng_seed=0)
    sim = Simulation(cfg)
    for c in range(3):
        members = sim.channel_members[c]
        assert sim.sync_of[c] == min(members)
        roles = {sim.nodes[i].role for i in members}
        assert roles == {"sync", "desync"} if len(members) > 1 else {"sync"}
        assert sum(sim.nodes[i].role == "sync" for i in members) == 1


def test_balancing_rule_thresholds():
    # counts (5,3): difference 2 at c=0 -> move happens; terminal {4,4}
    chans = np.array([0] * 5 + [1] * 3)
    cfg = SimConfig(n=8, channels=2, rng_seed=0, initial_channels=chans)
    sim = Simulation(cfg)
    assert sorted(sim.occupancy()) == [4, 4]
    # counts (4,3): difference 1 at c=0 -> move -> (3,4); wrap edge then needs >= 2
    chans = np.array([0] * 4 + [1] * 3)
    cfg = SimConfig(n=7, channels=2, rng_seed=0, initial_channels=chans)
    sim = Simulation(cfg)
    assert sim.occupancy() == [3, 4]
    # counts (3,4): wrap difference 1 < 2 -> already terminal, stays put
    chans = np.array([0] * 3 + [1] * 4)
    cfg = SimConfig(n=7, channels=2, rng_seed=0, initial_channels=chans)
    sim = Simulation(cfg)
    assert sim.occupancy() == [3, 4]


def test_balancing_terminal_counts_random_placements():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(13, 21))
        cfg = SimConfig(n=n, channels=4, rng_seed=int(rng.integers(1 << 31)))
        sim = Simulation(cfg)
        counts = sim.occupancy()
        lo, hi = n // 4, -(-n // 4)
        assert all(c in (lo, hi) for c in counts)
        assert sum(counts) == n


def test_balance_channels_elects_for_direct_callers():
    # balancing called on an unbalanced simulation leaves every channel with
    # its smallest member as Sync and every moved node queued under its new
    # channel, as construction with balancing does
    chans = np.array([0] * 7 + [1, 1, 3])
    cfg = SimConfig(n=10, channels=4, rng_seed=2, balance=False, initial_channels=chans)
    sim = Simulation(cfg)
    assert sim.occupancy() == [7, 2, 0, 1]
    sim.balance_channels()
    twin = Simulation(replace(cfg, balance=True))
    assert sim.channel_members == twin.channel_members
    assert all(n_c in (2, 3) for n_c in sim.occupancy())
    for c, members in enumerate(sim.channel_members):
        assert sim.sync_of[c] == min(members)
        assert all(sim.nodes[i].channel == c for i in members)
        assert [sim.nodes[i].role for i in members] == ["sync"] + ["desync"] * (len(members) - 1)
    # stepped, not run: a node left queued under its old channel never fires,
    # so no round would complete
    assert [sim.step() for _ in range(500)] == [twin.step() for _ in range(500)]
    assert all(nd.fire_count >= 49 for nd in sim.nodes)


def test_balance_channels_mid_run_updates_only_on_in_channel_fires():
    # a node moved after it fired awaits its update in its new channel: a
    # fire of the channel it left must not trigger that update
    chans = np.array([0] * 7 + [1, 1, 3])
    cfg = SimConfig(n=10, channels=4, rng_seed=2, balance=False, initial_channels=chans)
    sim = Simulation(cfg)
    for _ in range(200):
        sim.step()
    update = sim._on_fire_desync
    cross = []

    def spy(listener, event, announced):
        if listener.channel != event.channel:
            cross.append((event.node_id, listener.node_id))
        update(listener, event, announced)

    sim._on_fire_desync = spy
    sim.balance_channels()
    for _ in range(500):
        sim.step()
    assert cross == []
    assert all(nd.fire_count >= 69 for nd in sim.nodes)


def test_balancing_n14_reaches_3344():
    cfg = SimConfig(n=14, channels=4, rng_seed=7)
    sim = Simulation(cfg)
    assert sorted(sim.occupancy()) == [3, 3, 4, 4]


def test_message_loss_rates():
    cfg = single_channel_config(n=2, loss_probability=0.3, rng_seed=42,
                                initial_phases=np.array([0.1, 0.6]),
                                initial_channels=np.array([0, 0]))
    sim = Simulation(cfg)
    delivered = sum(sim.message_delivered(0, 1) for _ in range(10000))
    assert delivered / 10000 == pytest.approx(0.7, abs=0.01)


def test_message_loss_zero_always_delivers():
    cfg = single_channel_config(n=2, initial_phases=np.array([0.1, 0.6]),
                                initial_channels=np.array([0, 0]))
    sim = Simulation(cfg)
    assert all(sim.message_delivered(0, 1) for _ in range(100))


def test_hidden_pair_never_delivers():
    adj = np.ones((2, 2), dtype=bool)
    adj[0, 1] = False
    cfg = single_channel_config(n=2, adjacency=adj, loss_probability=0.0,
                                initial_phases=np.array([0.1, 0.6]),
                                initial_channels=np.array([0, 0]))
    sim = Simulation(cfg)
    assert not any(sim.message_delivered(0, 1) for _ in range(100))
    assert sim.message_delivered(1, 0)


# ---------------- determinism & equivalence ----------------

def test_bit_identical_trace_for_same_config():
    kw = dict(n=8, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-4,
              loss_probability=0.2, rng_seed=9, max_rounds=400)
    r1 = run_simulation(SimConfig(**kw))
    r2 = run_simulation(SimConfig(**kw))
    assert len(r1.trace) == len(r2.trace)
    for a, b in zip(r1.trace, r2.trace):
        assert a.sim_time == b.sim_time
        assert a.objective == b.objective
        assert np.array_equal(a.offsets_by_node, b.offsets_by_node)


def test_firing_order_never_changes_without_loss():
    cfg = single_channel_config(n=6, alpha=0.7, rng_seed=11, epsilon=1e-9,
                                max_rounds=4000)
    res = run_simulation(cfg)
    assert res.report.converged
    assert res.order_change_rounds == 0


def test_assumption1_matches_round_engine():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(2, 11))
        alpha = float(rng.uniform(0.05, 0.95))
        phi0 = np.sort(rng.random(n))
        cfg = SimConfig(n=n, channels=1, alpha=alpha, epsilon=1e-300,
                        staleness_mode="assumption1", initial_phases=phi0,
                        initial_channels=np.zeros(n, dtype=int), max_rounds=30)
        res = Simulation(cfg).run()
        p = SingleChannelProblem(n, alpha, 1e-300)
        st = DesyncState(phi0.copy())
        iterates = [phi0.copy()]
        for _ in range(30):
            st = desync_round(st, p)
            iterates.append(st.phi.copy())
        for rec in res.trace:
            if rec.round_index == 0:
                continue
            eng = iterates[rec.round_index - 1] % 1.0
            worst = max(worst, np.abs(circdiff(rec.offsets_by_node - eng)).max())
    assert worst <= 1e-9


def test_assumption1_rejects_loss_and_nesterov():
    with pytest.raises(ValueError):
        SimConfig(n=4, staleness_mode="assumption1", loss_probability=0.1)
    with pytest.raises(ValueError):
        SimConfig(n=4, staleness_mode="assumption1", use_nesterov=True)
    adj = np.ones((4, 4), dtype=bool)
    adj[0, 1] = False
    with pytest.raises(ValueError):
        SimConfig(n=4, staleness_mode="assumption1", adjacency=adj)


def test_assumption1_rejects_several_channels():
    # exact only on one channel: with several, the simulator's rooted Sync
    # chain is not the engine's circulant consensus row
    match = ("^staleness_mode='assumption1' is exact only on one channel; "
             "it requires channels=1, got channels=2$")
    with pytest.raises(ValueError, match=match):
        SimConfig(n=8, channels=2, staleness_mode="assumption1")
    SimConfig(n=8, channels=2)
    SimConfig(n=8, channels=1, staleness_mode="assumption1")


@pytest.mark.parametrize("mode", ["live", "assumption1"])
def test_single_node_never_updates(mode):
    # the only member is the firer, which misses its own fire
    sim = Simulation(SimConfig(n=1, staleness_mode=mode))
    events = [sim.step() for _ in range(10)]
    assert [e.node_id for e in events] == [0] * 10
    assert sim.nodes[0].update_count == 0
    assert np.diff([e.time for e in events]) == pytest.approx(np.full(9, 0.1))


def test_nesterov_sim_converges_faster_on_average():
    plain, fast = [], []
    for seed in range(25):
        plain.append(
            run_simulation(single_channel_config(n=8, alpha=0.2, rng_seed=seed)).report.rounds
        )
        fast.append(
            run_simulation(
                single_channel_config(n=8, alpha=0.2, rng_seed=seed, use_nesterov=True)
            ).report.rounds
        )
    assert np.mean(fast) < np.mean(plain)


# ---------------- steady state, trace, swaps ----------------

def test_steady_state_gaps_and_sync_alignment():
    cfg = SimConfig(n=8, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-8,
                    rng_seed=4, max_rounds=20000)
    sim = Simulation(cfg)
    res = sim.run()
    assert res.report.converged
    rec = res.trace[-1]
    for vec in rec.per_channel:
        gaps = np.diff(np.append(vec, vec[0] + 1.0))
        assert np.allclose(gaps, 1.0 / len(vec), atol=1e-4)
    sync = rec.offsets_by_node[[sim.sync_of[c] for c in range(2)]]
    assert abs(circdiff(sync[0] - sync[1])) <= 1e-4


def _memory_kept_without_trace(rounds, n):
    """Bytes a finished simulation of exactly `rounds` rounds still holds
    once its trace is dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(SimConfig(n=n, channels=4, epsilon=1e-300, steady_tol=0.0,
                                   rng_seed=2, max_rounds=rounds))
        sim.run()
        assert sim.completed_rounds == rounds
        sim.trace.clear()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_memory_kept_per_round_excludes_fire_history():
    # recorded rounds' fire times are freed: beyond the trace, the memory a
    # run keeps does not grow with its rounds. One Python float per node per
    # round (a fire history) would add about 32 bytes per node per round.
    n = 32
    _memory_kept_without_trace(2, n)  # first-use allocations would count against `short`
    short, long = _memory_kept_without_trace(20, n), _memory_kept_without_trace(120, n)
    assert (long - short) / 100 < 8 * n


def _memory_kept_after_steps(steps, run_first=True):
    """Bytes a simulation holds, trace dropped, after `steps` fires outside
    run(): fires of a converged network, or of a fresh one."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-12,
                                   rng_seed=11, max_rounds=60000))
        if run_first:
            assert sim.run().report.converged
            sim.trace.clear()
        for _ in range(steps):
            sim.step()
        assert sim.completed_rounds == min(nd.fire_count for nd in sim.nodes)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_steps_after_run_free_their_rounds():
    # criterion 10 and the swap runs keep stepping a converged network; each
    # round those steps complete is freed, where a buffered round of six fire
    # times would keep about 90 bytes per step. Steps on a fresh simulation,
    # before any run(), free their rounds too.
    for run_first in (True, False):
        _memory_kept_after_steps(6, run_first)
        short = _memory_kept_after_steps(600, run_first)
        long = _memory_kept_after_steps(6600, run_first)
        assert (long - short) / 6000 < 8


def test_run_after_steps_records_from_the_next_round():
    # the ten rounds stepped between the runs are freed unrecorded; the
    # second run records the rounds it completes itself, each at its own time
    sim = Simulation(SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-300,
                               steady_tol=0.0, rng_seed=11, max_rounds=20))
    sim.run()
    for _ in range(60):
        sim.step()
    assert sim.completed_rounds == 30
    resumed_at = sim.time
    sim.config.max_rounds = 40
    trace = sim.run().trace
    assert [rec.round_index for rec in trace[21:]] == [0, *range(31, 41)]
    assert all(rec.sim_time > resumed_at for rec in trace[22:])


ZENO_RUN = """
from desynclab import SimConfig, Simulation
sim = Simulation(SimConfig(n=13, channels=2, alpha=0.824, gamma=0.543,
                           rng_seed=686658634, use_nesterov=True, max_rounds=26))
rep = sim.run().report
print(rep.converged, rep.rounds, sim.completed_rounds,
      max(nd.fire_count for nd in sim.nodes))
"""


def test_run_returns_from_a_zeno_exchange():
    # two accelerated Desync nodes of channel 1 trigger each other's updates
    # ever faster from t = 2.577 s, so no further round completes; run()
    # stops once a node is more than n fires ahead of the completed rounds.
    # A child process with a timeout turns a regression into a failure,
    # not a hang.
    src = str(Path(desynclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", ZENO_RUN], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    converged, rounds, completed, fastest = out.stdout.split()
    assert converged == "False"
    assert int(rounds) == int(completed) < 26
    assert int(fastest) > int(completed) + 13


def test_run_stops_a_zeno_exchange_in_process():
    # the same stop, in this process so that line tracing sees it: three
    # accelerated nodes fall into a Zeno exchange after 57 rounds. A step
    # budget turns a regression into a failure, not a hang.
    class Budget(Simulation):
        steps = 0

        def step(self):
            self.steps += 1
            assert self.steps < 10_000, "run() missed the Zeno exchange"
            return super().step()

    sim = Budget(SimConfig(n=3, channels=1, alpha=0.7, use_nesterov=True, rng_seed=0,
                           epsilon=1e-12, max_rounds=3000))
    res = sim.run()
    assert res.stop is Stop.ZENO
    assert not res.report.converged and res.steady_round is None
    assert res.report.rounds == sim.completed_rounds == 57
    assert len(sim._rounds) > sim.config.n


@pytest.mark.parametrize("stop, kw, rounds, steady_round", [
    (Stop.CONVERGED, dict(epsilon=1e-3, rng_seed=7, max_rounds=12), 11, 11),
    (Stop.CAPPED, dict(epsilon=1e-3, rng_seed=8, max_rounds=12), 12, None),
    (Stop.STEADY, dict(epsilon=1e-12, steady_tol=1.0, rng_seed=7, max_rounds=50), 4, 4),
], ids=["converged", "capped", "steady"])
def test_run_reports_how_it_stopped(stop, kw, rounds, steady_round):
    # ZENO is reached in test_run_stops_a_zeno_exchange_in_process
    res = Simulation(SimConfig(n=6, channels=2, alpha=0.5, **kw)).run()
    assert res.stop is stop
    assert res.report.converged == (stop is Stop.CONVERGED)
    assert res.report.rounds == res.trace[-1].round_index == rounds
    assert res.steady_round == steady_round


def test_run_records_rounds_stepped_before_it():
    # rounds completed by steps before the first run() are freed unrecorded,
    # as after a run; the run records from the next round, each at its own
    # time, and the steps are not taken for a Zeno exchange
    cfg = SimConfig(n=4, channels=1, alpha=0.5, epsilon=1e-300, steady_tol=0.0,
                    rng_seed=3, max_rounds=80)
    sim = Simulation(cfg)
    for _ in range(200):
        sim.step()
    stepped, resumed_at = sim.completed_rounds, sim.time
    assert stepped == min(nd.fire_count for nd in sim.nodes) > 4 * cfg.n
    res = sim.run()
    assert res.report.rounds > stepped
    assert [rec.round_index for rec in res.trace] == [0, *range(stepped + 1, res.report.rounds + 1)]
    times = [rec.sim_time for rec in res.trace[1:]]
    assert resumed_at < times[0] and all(np.diff(times) > 0)
    assert res.stop is not Stop.ZENO


def test_trace_objective_consistent_with_core_math():
    cfg = SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-9,
                    rng_seed=11, max_rounds=20000)
    sim = Simulation(cfg)
    res = sim.run()
    rec = res.trace[-1]
    counts = tuple(len(m) for m in sim.channel_members)
    problem = MultichannelProblem(counts, beta=0.3, gamma=0.6)
    # converged syncs sit on one branch, so the raw objective agrees
    assert rec.objective == pytest.approx(
        multichannel_objective(rec.per_channel, problem), abs=1e-12
    )
    single = run_simulation(single_channel_config(rng_seed=2))
    rec = single.trace[-1]
    p = SingleChannelProblem(4, 0.5, 1e-3)
    assert rec.objective == pytest.approx(
        desync_objective(np.sort(rec.offsets_by_node), p), abs=1e-15
    )


def test_degenerate_single_node_channel():
    cfg = SimConfig(n=3, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-3,
                    rng_seed=0, max_rounds=2000)
    res = run_simulation(cfg)
    assert res.report.converged
    assert sorted(res.occupancy) == [1, 2]


def converged_two_channel_sim(seed=11, eps=1e-12):
    cfg = SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=eps,
                    rng_seed=seed, max_rounds=60000)
    sim = Simulation(cfg)
    res = sim.run()
    assert res.report.converged
    # settle well below the threshold so boundary measurement noise
    # cannot flip the converged check
    for _ in range(10 * 6):
        sim.step()
    return sim


def settle_clear_of_fires(sim):
    # advance past any due beacons so a swap lands mid-slot
    while sim.next_fire.min() - sim.time < sim.config.guard_time:
        sim.step()


def slot_pairs(sim, tol=1e-5):
    pairs = []
    for a in sim.channel_members[0]:
        for b in sim.channel_members[1]:
            if (
                abs(sim.next_fire[a] - sim.next_fire[b]) < tol * sim.config.period
                and sim.nodes[a].role == sim.nodes[b].role
            ):
                pairs.append((a, b))
    return pairs


def test_swap_preserves_objective():
    sim = converged_two_channel_sim()
    settle_clear_of_fires(sim)
    pairs = slot_pairs(sim)
    assert len(pairs) == 3  # every slot of the balanced 3+3 network aligns
    before = sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
    for a, b in pairs:
        sim.swap_channels(a, b, tol=1e-5)
        after = sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
        assert abs(after - before) <= 1e-12


def test_swap_rejects_non_synchronous_nodes():
    sim = converged_two_channel_sim()
    worst_pair = None
    for a in sim.channel_members[0]:
        for b in sim.channel_members[1]:
            if abs(sim.next_fire[a] - sim.next_fire[b]) > 0.1 * sim.config.period:
                worst_pair = (a, b)
    assert worst_pair is not None
    with pytest.raises(SwapError):
        sim.swap_channels(*worst_pair)


def test_swap_rejects_unconverged_network():
    cfg = SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-12, rng_seed=11)
    sim = Simulation(cfg)  # not run: transient state
    with pytest.raises(SwapError):
        sim.swap_channels(sim.channel_members[0][0], sim.channel_members[1][0])


def paired_sim(channels, sync_phase, desync_phase):
    # two nodes per channel, already converged: the Sync nodes (even ids)
    # share one phase and every Desync node sits half a period from them
    n = 2 * channels
    phases = np.where(np.arange(n) % 2, desync_phase, sync_phase)
    return Simulation(SimConfig(n=n, channels=channels, initial_phases=phases,
                                initial_channels=np.arange(n) // 2))


@pytest.mark.parametrize("make, partners, kw, match", [
    (lambda: Simulation(SimConfig(n=4, rng_seed=1)), (0, 1), {},
     "^channel swap needs at least two channels$"),
    (lambda: paired_sim(4, 0.0, 0.5), (1, 5), {}, "^channels 0 and 2 are not adjacent$"),
    # a tolerance of a whole period admits the half-period pair
    (lambda: paired_sim(2, 0.0, 0.5), (0, 3), dict(tol=1.0),
     "^swap partners must hold the same role$"),
    # the Sync nodes fire 0.005 s from now, inside the 0.006 s guard time
    (lambda: paired_sim(2, 0.95, 0.45), (1, 3), {},
     r"^swap issued inside the guard window around a beacon \(5\.000e-03s to the next fire\)$"),
], ids=["one-channel", "not-adjacent", "different-roles", "guard-window"])
def test_swap_rejection_messages(make, partners, kw, match):
    sim = make()
    with pytest.raises(SwapError, match=match):
        sim.swap_channels(*partners, **kw)


def test_balance_channels_leaves_one_channel_alone():
    sim = Simulation(SimConfig(n=5, rng_seed=3))
    before = sim.next_fire
    assert sim.balance_channels() is None
    assert sim.occupancy() == [5] and sim.channel_members == [[0, 1, 2, 3, 4]]
    assert np.array_equal(sim.next_fire, before)


def test_repeated_swaps_keep_steady_state():
    sim = converged_two_channel_sim()
    eps = sim.config.epsilon
    rng = np.random.default_rng(0)
    for step in range(100):
        settle_clear_of_fires(sim)
        pairs = slot_pairs(sim)
        a, b = pairs[rng.integers(len(pairs))]
        sim.swap_channels(a, b, tol=1e-5)
        for _ in range(6):  # one full firing round between swaps
            sim.step()
        obj = sim.objective_of(np.array([nd.phi for nd in sim.nodes]))
        assert obj <= eps * 10
