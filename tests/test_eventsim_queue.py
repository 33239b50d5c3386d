"""Pinned traces, and oracles for the simulator's fire queue and delivery.

The golden digests pin each trace bit for bit, so any change to the order or
the arithmetic of fires fails them. The scan oracle re-derives every firer
with a linear scan over (next_fire, channel, node_id); the push oracle
replays per-listener delivery against the per-channel delivery state.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from desynclab import SimConfig, Simulation
from desynclab.eventsim import STEADY_ROUNDS
from desynclab.objectives import gap_residual

from oracles import balance_by_restart


def hidden_adjacency(n, seed, listeners=6, links=3):
    rng = np.random.default_rng(seed)
    adj = np.ones((n, n), dtype=bool)
    for u in rng.choice(n, size=listeners, replace=False):
        others = np.array([w for w in range(n) if w != u])
        adj[u, rng.choice(others, size=links, replace=False)] = False
    return adj


CONFIGS = {
    "live": dict(n=12, channels=3, alpha=0.6, gamma=0.6, epsilon=1e-6,
                 rng_seed=3, max_rounds=3000),
    "assumption1": dict(n=7, channels=1, alpha=0.5, epsilon=1e-300,
                        staleness_mode="assumption1", rng_seed=5, max_rounds=40),
    "lossy": dict(n=8, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-4,
                  loss_probability=0.2, rng_seed=9, max_rounds=400),
    # settles by offset drift with two order changes, not by epsilon
    "hidden": dict(n=16, channels=4, alpha=0.6, gamma=0.6, epsilon=1e-4,
                   rng_seed=5, max_rounds=2500,
                   adjacency=hidden_adjacency(16, 12)),
    "nesterov": dict(n=8, channels=1, alpha=0.2, epsilon=1e-3, rng_seed=6,
                     use_nesterov=True),
    # the benchmark's shape: 8 members per channel
    "wide": dict(n=128, channels=16, alpha=0.6, gamma=0.6, epsilon=1e-300,
                 rng_seed=4, max_rounds=10),
    # unequal occupancy, 3/3/3/4
    "uneven": dict(n=13, channels=4, alpha=0.6, gamma=0.6, epsilon=1e-6,
                   rng_seed=2, max_rounds=3000),
    # unbalanced 5/1/0: one member alone and one empty channel
    "lopsided": dict(n=6, channels=3, alpha=0.6, gamma=0.6, epsilon=1e-6,
                     balance=False, initial_channels=np.array([0, 0, 0, 0, 1, 0]),
                     rng_seed=3, max_rounds=400),
}

GOLDEN = {
    # name: (trace digest, steady_round, order_change_rounds)
    "assumption1": ("bf5767240815f0d271e2f767986f74a96b4c14f82989c9cd347d704c04503676", None, 0),
    "hidden": ("da24b5c570677cd98dc98e3de72f8eacec3f002e913afad078439cf523f686f5", 98, 2),
    "live": ("3448842d887c1696226440b7b070b3392a7b464adaf70684d09e44f89b7657e8", 32, 0),
    "lopsided": ("15d580dcbe335e1638bf1990e61ca469c17e8cb19061817dd5b79e5aa731173f", 37, 0),
    "lossy": ("4098e8af6ec625f724523875182cb94ab4e60fe0853b4869a1c90f8d383c9405", None, 10),
    "nesterov": ("ef906b1ad65c1b1c80acbb542f2be0605399957749da49b2d26d5f93cf9966d9", 12, 0),
    "uneven": ("a684982270dcce9fd773eeaa2f7c1fc3dd39e0bd17259187c09bf126dc96f3b9", 26, 0),
    "wide": ("4c45db191d3b65c40d72216f46076a46754150b3c2352daba584a5ca1b0fd8af", None, 9),
}

SWAP_GOLDEN = "10b07ef47a046f7d3d0fcdfc0bafe5b74060a813b9e324fbaeb31493f1844888"


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for rec in trace:
        h.update(np.float64(rec.sim_time).tobytes())
        h.update(np.float64(rec.objective).tobytes())
        h.update(np.ascontiguousarray(rec.offsets_by_node, dtype=np.float64).tobytes())
    return h.hexdigest()


def swap_run(sim_cls=Simulation):
    """Converge a 3+3 network, then alternate swaps with full firing rounds;
    the digest covers every fire event and the final phases."""
    sim = sim_cls(SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-12,
                            rng_seed=11, max_rounds=60000))
    assert sim.run().report.converged
    rng = np.random.default_rng(13)
    h = hashlib.sha256()
    for _ in range(60):
        ev = sim.step()
        h.update(np.float64(ev.time).tobytes() + bytes([ev.node_id, ev.channel]))
    for _ in range(20):
        for _ in range(6):  # clear of the beacon guard window within a round
            if sim.next_fire.min() - sim.time >= sim.config.guard_time:
                break
            sim.step()
        pairs = [
            (a, b)
            for a in sim.channel_members[0]
            for b in sim.channel_members[1]
            if abs(sim.next_fire[a] - sim.next_fire[b]) < 1e-5 * sim.config.period
            and sim.nodes[a].role == sim.nodes[b].role
        ]
        sim.swap_channels(*pairs[rng.integers(len(pairs))], tol=1e-5)
        for _ in range(6):
            ev = sim.step()
            h.update(np.float64(ev.time).tobytes() + bytes([ev.node_id, ev.channel]))
    h.update(np.array([nd.phi for nd in sim.nodes]).tobytes())
    return sim, h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_trace(name):
    res = Simulation(SimConfig(**CONFIGS[name])).run()
    assert (trace_digest(res.trace), res.steady_round, res.order_change_rounds) \
        == GOLDEN[name]


def test_golden_swap_sequence():
    assert swap_run()[1] == SWAP_GOLDEN


class FireLog(Simulation):
    """Keeps every fire event, for the record oracle."""

    def __init__(self, config):
        super().__init__(config)
        self.fires = []

    def step(self):
        ev = super().step()
        self.fires.append(ev)
        return ev


def reference_record(sim, offsets):
    """A record's channel vectors and objective, one channel at a time: the
    channel's members in ascending cyclic order from its Sync node, lifted
    past the fold (plain ascending order on one channel), one residual and
    one dot per channel in channel order, then the Sync-alignment penalty."""
    vectors = []
    for c, members in enumerate(sim.channel_members):
        if not members:
            continue
        vals = offsets[members]
        sync = sim.sync_of[c]
        if sim.config.channels == 1 or sync is None:
            vectors.append(np.sort(vals))
            continue
        anchor = offsets[sync]
        rel = (vals - anchor) % 1.0
        rel[members.index(sync)] = 0.0
        vectors.append(anchor + np.sort(rel))
    total = 0.0
    for vec in vectors:
        r = gap_residual(vec)
        total += 0.5 * float(r @ r)
    firsts = [offsets[s] for s in sim.sync_of if s is not None]
    if len(firsts) > 1:
        f = np.array(firsts)
        diffs = (np.roll(f, -1) - f + 0.5) % 1.0 - 0.5
        total += 0.5 * float(diffs @ diffs)
    return vectors, total


def check_records(sim, records):
    """Rebuild each record's vectors, objective and order-change flag one
    channel at a time, from the channels as they are now and the fire log;
    the records must come from one run() over that membership. Returns the
    number of order changes."""
    kth_fire = [[] for _ in range(sim.config.n)]
    for ev in sim.fires:
        kth_fire[ev.node_id].append(ev.time)
    prev_order, changes = None, 0
    for rec in records:
        vectors, objective = reference_record(sim, rec.offsets_by_node)
        assert len(rec.per_channel) == len(vectors)
        assert all(np.array_equal(a, b) for a, b in zip(rec.per_channel, vectors))
        assert rec.objective == objective
        changed = False
        if rec.round_index > 0:
            k = rec.round_index - 1
            order = [sorted(members, key=lambda i: (kth_fire[i][k], i))
                     for members in sim.channel_members]
            changed = prev_order is not None and order != prev_order
            prev_order = order
        assert rec.order_changed == changed
        changes += changed
    return changes


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_per_channel_reference(name):
    # the digests do not cover per_channel; every record's vectors, objective
    # and order-change flag are rebuilt here one channel at a time
    sim = FireLog(SimConfig(**CONFIGS[name]))
    res = sim.run()
    assert check_records(sim, res.trace) == res.order_change_rounds


def test_records_after_swaps_match_per_channel_reference():
    # the swaps move nodes (and Sync roles) between channels after the
    # member layout was built; the records of a further run must use the
    # new membership
    sim, _ = swap_run(FireLog)
    sim.config.epsilon = 1e-300  # run on to a steady state, not stop at once
    start = len(sim.trace)
    res = sim.run()
    assert res.steady_round is not None and len(res.trace) - start > STEADY_ROUNDS
    check_records(sim, res.trace[start:])


def test_records_after_mid_run_balancing_match_per_channel_reference():
    sim = FireLog(SimConfig(n=10, channels=4, rng_seed=2, balance=False, epsilon=1e-6,
                            initial_channels=np.array([0] * 7 + [1, 1, 3]),
                            max_rounds=3000))
    first = sim.run()
    assert first.report.rounds < 3000 and sim.occupancy() == [7, 2, 0, 1]
    sim.balance_channels()
    assert sorted(sim.occupancy()) == [2, 2, 3, 3]
    # complete a round unrecorded, so that the next run's first order is
    # compared with none rather than with the last one before the balancing
    for _ in range(2 * sim.config.n):
        sim.step()
    start = len(sim.trace)
    res = sim.run()
    assert len(res.trace) - start > 10
    check_records(sim, res.trace[start:])


class ScanOracle(Simulation):
    """Checks every fire against the linear scan over (next_fire, channel,
    node_id), and inside run() the round counter against min(fire_count)."""

    in_run = False

    def check_rounds(self):
        assert self.completed_rounds == min(nd.fire_count for nd in self.nodes)

    def run(self):
        self.in_run = True
        try:
            res = super().run()
        finally:
            self.in_run = False
        self.check_rounds()
        return res

    def step(self):
        if self.in_run:
            self.check_rounds()
        next_fire = self.next_fire  # one snapshot per step
        expected = min((next_fire[nd.node_id], nd.channel, nd.node_id) for nd in self.nodes)
        ev = super().step()
        assert (ev.time, ev.channel, ev.node_id) == expected
        return ev


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_queue_matches_linear_scan(name):
    res = ScanOracle(SimConfig(**CONFIGS[name])).run()
    assert trace_digest(res.trace) == GOLDEN[name][0]


def test_queue_matches_linear_scan_after_swaps():
    assert swap_run(ScanOracle)[1] == SWAP_GOLDEN


def test_queue_breaks_exact_cross_channel_tie_on_channel():
    # nodes 0 and 1 share a phase; node 1 sits on the lower channel
    cfg = SimConfig(n=4, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-9,
                    initial_phases=np.array([0.8, 0.8, 0.3, 0.3]),
                    initial_channels=np.array([1, 0, 0, 1]), max_rounds=300)
    sim = ScanOracle(cfg)
    first, second = sim.step(), sim.step()
    assert (first.node_id, first.channel) == (1, 0)
    assert (second.node_id, second.channel) == (0, 1)
    assert first.time == second.time
    assert sim.run().report.converged


def live_entries(sim):
    """How many live fire-queue entries each node has: entries that match its
    pending fire time and its channel."""
    counts = [0] * sim.config.n
    for t, ch, nid in sim._queue:
        if t == sim._next_fire[nid] and ch == sim.nodes[nid].channel:
            counts[nid] += 1
    return counts


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fresh_queue_holds_one_entry_per_node(name):
    # balancing moves nodes before the queue is built, so no move leaves a
    # stale entry behind
    sim = Simulation(SimConfig(**CONFIGS[name]))
    assert sorted(sim._queue) == sorted(
        (sim._next_fire[i], nd.channel, i) for i, nd in enumerate(sim.nodes))


def test_each_node_has_one_live_entry_unless_deferred():
    cfg = SimConfig(**CONFIGS["wide"])
    n, C = cfg.n, cfg.channels
    sim = Simulation(cfg)
    deferrals = 0
    for _ in range(10 * n):
        sim.step()
        assert len(sim._queue) < n + C
        deferred = {d for d in sim._deferred if d >= 0}
        assert live_entries(sim) == [0 if i in deferred else 1 for i in range(n)]
        deferrals += len(deferred)
    # the deferral is the common case at 8 members per channel
    assert deferrals > 5 * n


def single_channel(n):
    return SimConfig(n=n, channels=1, alpha=0.5, epsilon=1e-3, rng_seed=0)


def pending_fires(sim, times):
    """Put the nodes' pending fires at the given times, then requeue."""
    sim._next_fire[:] = [float(t) for t in times]
    sim._requeue()
    return sim


def test_firer_tied_with_a_higher_id_member_stays_queued():
    # node 0's next fire, t + T, ties with nodes 1 and 2, which sort after it
    T, t = 0.1, 0.01
    sim = pending_fires(ScanOracle(single_channel(n=3)), [t, t + T, t + T])
    assert sim.step().node_id == 0 and sim._deferred == [-1]
    assert [sim.step().node_id for _ in range(3)] == [0, 1, 2]


def test_firer_tied_with_a_lower_id_member_is_deferred():
    # node 2's next fire, t + T, ties with node 0, which sorts before it, so
    # node 0's fire comes first and queues node 2
    T, t = 0.1, 0.01
    sim = pending_fires(ScanOracle(single_channel(n=3)), [t + T, t + T, t])
    assert sim.step().node_id == 2 and sim._deferred == [2]
    assert [sim.step().node_id for _ in range(3)] == [0, 1, 2]
    assert sim._deferred == [2]  # deferred again behind nodes 0 and 1


def test_firer_is_not_deferred_behind_a_sync_node():
    # a Sync pull can move a fire later: channel 1's Sync (node 2) pulls
    # channel 0's (node 0) from 0.10 to 0.112, past node 1's next fire at 0.11
    sim = ScanOracle(SimConfig(n=3, channels=2, balance=False,
                               initial_channels=np.array([0, 0, 1])))
    pending_fires(sim, [0.10, 0.01, 0.02])
    assert [sim.step().node_id for _ in range(4)] == [1, 2, 1, 0]


def test_bare_advance_queues_deferred_nodes():
    # the first step defers its firer behind the other node; the bare
    # advance fires that node without delivering, so only the advance
    # itself can queue the deferred one
    sim = ScanOracle(single_channel(n=2))
    first = sim.step()
    assert sim._deferred == [first.node_id]
    assert sim.advance_to_next_fire().node_id != first.node_id
    assert sim.step().node_id == first.node_id


def test_bare_advance_rebuilds_the_queue():
    # steps defer firers and leave stale entries; a bare advance rebuilds the
    # queue first, so afterwards every node holds exactly one entry
    sim = ScanOracle(SimConfig(n=16, channels=4, rng_seed=3))
    for _ in range(200):
        sim.step()
    sim.advance_to_next_fire()
    assert sim._deferred == [-1] * 4
    assert sorted(sim._queue) == sorted(
        (sim._next_fire[i], nd.channel, i) for i, nd in enumerate(sim.nodes))


def test_sync_pull_to_the_current_instant_fires_at_once():
    # channel 1's Sync fires at t; channel 0's Sync, pending one ulp later,
    # is pulled to phase exactly 1 and requeued at t, under a key that sorts
    # before the fired entry's
    t = 0.05
    sim = ScanOracle(SimConfig(n=2, channels=2, initial_channels=np.array([0, 1])))
    pending_fires(sim, [np.nextafter(t, 1.0), t])
    first, second = sim.step(), sim.step()
    assert (first.node_id, second.node_id) == (1, 0)
    assert first.time == second.time == t
    assert sim.step().time > t


def test_steps_advances_balancing_and_swaps_keep_every_node_firing():
    # bare advances deliver nothing, so the fires that would queue deferred
    # nodes never come; balancing and swaps move nodes between channels
    sim = ScanOracle(SimConfig(n=6, channels=2, alpha=0.6, gamma=0.6, epsilon=1e-12,
                               rng_seed=11, balance=False, max_rounds=60000,
                               initial_channels=np.array([0, 0, 0, 0, 1, 0])))
    rng = np.random.default_rng(13)
    flushed = 0

    def fire_everywhere(k):
        """k fires, every fifth a bare advance checked against the scan; every
        node must fire."""
        nonlocal flushed
        before = [nd.fire_count for nd in sim.nodes]
        for j in range(k):
            if j % 5 != 2:
                sim.step()
                continue
            flushed += any(d >= 0 for d in sim._deferred)
            next_fire = sim.next_fire
            expected = min((next_fire[i], nd.channel, i) for i, nd in enumerate(sim.nodes))
            ev = sim.advance_to_next_fire()
            assert (ev.time, ev.channel, ev.node_id) == expected
        assert all(nd.fire_count > b for nd, b in zip(sim.nodes, before))

    # ScanOracle checks the round counter inside run(), so run() comes first
    assert sim.run().report.converged
    fire_everywhere(60)
    sim.balance_channels()
    assert sim.occupancy() == [3, 3]
    fire_everywhere(60)
    for _ in range(10):
        assert sim.run().report.converged  # a swap needs a converged network
        for _ in range(6):  # clear of the beacon guard window
            if sim.next_fire.min() - sim.time >= sim.config.guard_time:
                break
            sim.step()
        pairs = [
            (a, b)
            for a in sim.channel_members[0]
            for b in sim.channel_members[1]
            if abs(sim.next_fire[a] - sim.next_fire[b]) < 1e-5 * sim.config.period
            and sim.nodes[a].role == sim.nodes[b].role
        ]
        sim.swap_channels(*pairs[rng.integers(len(pairs))], tol=1e-5)
        fire_everywhere(60)
    assert flushed > 10


def balancing_placements(count=600):
    """Placements of 1 to 39 nodes on 2 to 8 channels: random, all in one
    channel, and reverse-sorted (channels falling as node ids rise)."""
    rng = np.random.default_rng(25)
    for k in range(count):
        n, C = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        chans = rng.integers(0, C, size=n)
        if k % 3 == 1:
            chans = np.full(n, chans[0])
        elif k % 3 == 2:
            chans = np.sort(chans)[::-1].copy()
        yield SimConfig(n=n, channels=C, rng_seed=k, balance=False, initial_channels=chans)


def test_balancing_matches_restart_from_channel_zero():
    for cfg in balancing_placements():
        placed = Simulation(cfg)
        expected = balance_by_restart(placed.channel_members, placed.sync_of)
        sim = Simulation(replace(cfg, balance=True))
        assert (sim.channel_members, sim.sync_of) == expected, cfg


def test_mid_run_balancing_matches_restart_from_channel_zero():
    for cfg in balancing_placements():
        sim = Simulation(cfg)
        for _ in range(3 * cfg.n):
            sim.step()
        expected = balance_by_restart(sim.channel_members, sim.sync_of)
        sim.balance_channels()
        assert (sim.channel_members, sim.sync_of) == expected, cfg


def test_balancing_after_a_sync_swap_re_elects_only_touched_channels():
    # the Sync swap between channels 2 and 3 leaves neither with its smallest
    # member as Sync; balancing 3/1/2/2 moves one node from channel 0 to 1
    # and must leave channels 2 and 3 as they are
    sim = Simulation(SimConfig(n=8, channels=4, alpha=0.6, gamma=0.6, epsilon=1e-12,
                               rng_seed=11, balance=False, max_rounds=60000,
                               initial_channels=np.array([0, 0, 0, 1, 2, 2, 3, 3])))
    assert sim.run().report.converged
    while sim.next_fire.min() - sim.time < sim.config.guard_time:
        sim.step()
    sim.swap_channels(sim.sync_of[2], sim.sync_of[3], tol=1e-5)
    assert sim.sync_of[2:] == [6, 4]
    expected = balance_by_restart(sim.channel_members, sim.sync_of)
    sim.balance_channels()
    assert sim.occupancy() == [2, 2, 2, 2]
    assert (sim.channel_members, sim.sync_of) == expected
    assert sim.sync_of[2:] == [6, 4]


class PushOracle(Simulation):
    """Replays push delivery next to the per-channel delivery state: a
    shadow of every node's last heard announcement and of the nodes awaiting
    an update, fed by the same delivered/missed decisions. After every step
    the simulator's `_heard` and awaiting sets must equal the shadow."""

    def __init__(self, config):
        super().__init__(config)
        self.shadow_heard = [None] * config.n
        self.shadow_awaiting = set()
        self.decisions = {}

    def message_delivered(self, listener_id, firer_id):
        ok = super().message_delivered(listener_id, firer_id)
        self.decisions[listener_id] = ok
        return ok

    def step(self):
        self.decisions = {}
        ev = super().step()
        cfg, firer = self.config, self.nodes[ev.node_id]
        if firer.role == "sync":
            self.shadow_awaiting.discard(ev.node_id)
        else:
            self.shadow_awaiting.add(ev.node_id)
        lossless = cfg.adjacency is None and cfg.loss_probability == 0.0
        announced = (1.0 - ev.time / cfg.period) % 1.0
        for nid in self.channel_members[ev.channel]:
            if nid == ev.node_id or self.nodes[nid].role == "sync":
                continue
            if not (self.decisions.get(nid, True) if lossless else self.decisions[nid]):
                continue
            self.shadow_awaiting.discard(nid)
            self.shadow_heard[nid] = announced
        for nd in self.nodes:
            assert self._heard(nd) == self.shadow_heard[nd.node_id]
        for c, members in enumerate(self.channel_members):
            assert self._missed[c] <= set(members)
            assert self._awaiting[c] == {i for i in self.shadow_awaiting if i in members}
        return ev


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_channel_delivery_matches_push(name):
    res = PushOracle(SimConfig(**CONFIGS[name])).run()
    assert trace_digest(res.trace) == GOLDEN[name][0]


def test_channel_delivery_matches_push_after_swaps():
    assert swap_run(PushOracle)[1] == SWAP_GOLDEN


def test_lossless_fire_skips_per_listener_delivery():
    # at 8 members per channel, only the Sync-watcher deliveries remain
    calls = []

    class Counting(Simulation):
        def message_delivered(self, listener_id, firer_id):
            calls.append(listener_id)
            return super().message_delivered(listener_id, firer_id)

    sim = Counting(SimConfig(**CONFIGS["wide"]))
    assert trace_digest(sim.run().trace) == GOLDEN["wide"][0]
    sync_fires = sum(sim.nodes[s].fire_count for s in sim.sync_of)
    assert len(calls) <= sync_fires
