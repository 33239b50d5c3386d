"""Pinned traces and a linear-scan oracle for the simulator's fire queue.

The golden digests pin each trace bit for bit, so any change to the order or
the arithmetic of fires fails them. The oracle re-derives every firer with a
linear scan over (next_fire, channel, node_id).
"""

import hashlib

import numpy as np
import pytest

from desynclab import SimConfig, Simulation


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
}

GOLDEN = {
    # name: (trace digest, steady_round, order_change_rounds)
    "assumption1": ("bf5767240815f0d271e2f767986f74a96b4c14f82989c9cd347d704c04503676", None, 0),
    "hidden": ("da24b5c570677cd98dc98e3de72f8eacec3f002e913afad078439cf523f686f5", 98, 2),
    "live": ("3448842d887c1696226440b7b070b3392a7b464adaf70684d09e44f89b7657e8", 32, 0),
    "lossy": ("4098e8af6ec625f724523875182cb94ab4e60fe0853b4869a1c90f8d383c9405", None, 10),
    "nesterov": ("ef906b1ad65c1b1c80acbb542f2be0605399957749da49b2d26d5f93cf9966d9", 12, 0),
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
        expected = min((self.next_fire[nd.node_id], nd.channel, nd.node_id)
                       for nd in self.nodes)
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
