"""Discrete-event pulse-coupled-oscillator simulator for the fire-message protocol.

Each node carries a phase offset in [0,1); its phase advances linearly with
time (theta = t/T + offset mod 1) and the node broadcasts a fire message
when the phase reaches 1, wrapping to 0. Listeners recover a firer's
offset from the fire time (offset = 1 - t/T mod 1).

Update rules, all evaluated at fire instants:

* A Desync-role node updates when it hears the first in-channel fire after
  its own fire (that firer is its phase predecessor), pulling its phase
  toward the midpoint of the predecessor (just fired) and its cached
  successor announcement (the fire heard just before its own). The update
  is computed on positions relative to the firer, which realizes the
  +-1 wrap corrections of the offset equations exactly.
* The Sync node of channel c updates only when the Sync node of channel
  c+1 fires, pulling its phase toward the firer's the short way around the
  circle: theta' = (1-gamma)*theta + gamma for theta >= 1/2 (the inhibitory
  pull toward 1), theta' = (1-gamma)*theta otherwise. The last channel's
  Sync node listens to nobody and free-runs as the network time reference.
  Both choices are load-bearing: with the always-up pull on the full cycle,
  the fire-time lags around the ring carry a conserved winding number, so
  from generic starts the Sync nodes lock into a rotating wave and never
  align (measured 30/30 non-convergence for 2 <= C <= 16); the rooted
  chain with the two-sided pull contracts every link globally.

staleness_mode:
* "live" (default): only physically announced values are used; caches warm
  up over the first round, so first-round updates may be skipped.
* "assumption1": reproduces the synchronous analytical iteration exactly.
  The firing ring is fixed from the initial phase order and every update
  with index k reads its neighbours' index-(k-1) values from a ledger,
  including values that have not been announced yet (that non-causality is
  precisely what the analytical model assumes). Requires full
  connectivity, zero loss, and no acceleration.

Message loss is a per-receiver Bernoulli drop; non-adjacent (hidden) pairs
never deliver. Guard times and listening modes are bookkeeping only; they
never touch the phase math.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .objectives import gap_residual
from .rounds import ConvergenceReport, momentum_coefficient


def _circdiff(x):
    """Reduce circle differences (a float or an array) into [-0.5, 0.5)."""
    return (x + 0.5) % 1.0 - 0.5


class SwapError(ValueError):
    """Channel-swap precondition violation."""


@dataclass
class SimConfig:
    n: int
    channels: int = 1
    period: float = 0.1
    alpha: float = 0.6
    gamma: float = 0.6
    epsilon: float = 1e-3
    loss_probability: float = 0.0
    adjacency: Optional[np.ndarray] = None
    rng_seed: int = 0
    staleness_mode: str = "live"
    use_nesterov: bool = False
    consecutive_miss_threshold: int = 10
    guard_time: float = 0.006
    max_rounds: Optional[int] = None
    max_time: Optional[float] = None
    initial_phases: Optional[np.ndarray] = None
    initial_channels: Optional[np.ndarray] = None
    balance: bool = True
    # steady-state detection: offsets moving less than steady_tol per round
    # for steady_rounds_needed consecutive rounds. Under partial
    # connectivity the settled firing pattern need not be equidistant, so
    # the objective can plateau above epsilon while the network is steady.
    steady_tol: float = 1e-7
    steady_rounds_needed: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.period <= 0.0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha out of (0,1): {self.alpha}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma out of (0,1): {self.gamma}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(f"loss_probability out of [0,1): {self.loss_probability}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.staleness_mode not in ("live", "assumption1"):
            raise ValueError(f"unknown staleness_mode: {self.staleness_mode!r}")
        if self.adjacency is not None:
            adj = np.asarray(self.adjacency, dtype=bool)
            if adj.shape != (self.n, self.n):
                raise ValueError(f"adjacency must be ({self.n},{self.n}), got {adj.shape}")
            self.adjacency = adj
        if self.staleness_mode == "assumption1":
            if self.loss_probability > 0.0 or self.adjacency is not None:
                raise ValueError(
                    "assumption1 mode models perfect reception; it requires zero "
                    "loss and full connectivity"
                )
            if self.use_nesterov:
                raise ValueError("assumption1 mode covers the plain update only")


class NodeState:
    """Mutable per-node simulator state."""

    def __init__(self, node_id: int, channel: int, phi: float):
        self.node_id = node_id
        self.channel = channel
        self.role = "desync"
        self.phi = phi                 # oscillator offset in [0,1); momentum variable when accelerated
        self.pos_phi = phi             # position sequence offset (accelerated mode)
        self.update_count = 0
        self.fire_count = 0
        self.awaiting_update = False   # fired, not yet updated since that fire
        self.last_heard_offset: Optional[float] = None
        self.succ_offset: Optional[float] = None  # announcement heard just before own fire
        self.miss_counter = 0
        self.full_listening = False

    def theta(self, t: float, period: float) -> float:
        return (t / period + self.phi) % 1.0

    def __repr__(self):
        return (
            f"NodeState(id={self.node_id}, ch={self.channel}, role={self.role}, "
            f"phi={self.phi:.6f})"
        )


@dataclass(frozen=True)
class FireEvent:
    time: float
    node_id: int
    channel: int


@dataclass
class TraceRecord:
    round_index: int
    sim_time: float
    offsets_by_node: np.ndarray
    per_channel: list
    objective: float
    occupancy: list
    converged: bool
    order_changed: bool = False


@dataclass
class SimulationResult:
    report: ConvergenceReport
    trace: list
    time_to_convergence: float
    occupancy: list
    available_tx_time: list
    order_change_rounds: int
    steady_round: Optional[int] = None  # first round of a settled firing pattern


def elect_sync_node(node_ids: Sequence[int]) -> int:
    """Deterministic Sync election: the smallest node id wins."""
    if not node_ids:
        raise ValueError("cannot elect a Sync node in an empty channel")
    return min(node_ids)


class Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        n, C, T = config.n, config.channels, config.period

        if config.initial_phases is not None:
            phases = np.asarray(config.initial_phases, dtype=np.float64) % 1.0
            if phases.shape != (n,):
                raise ValueError(f"initial_phases must have shape ({n},)")
        else:
            phases = self.rng.random(n)
        if config.initial_channels is not None:
            channels = np.asarray(config.initial_channels, dtype=int)
            if channels.shape != (n,) or channels.min() < 0 or channels.max() >= C:
                raise ValueError("initial_channels out of range")
        else:
            channels = self.rng.integers(0, C, size=n)

        self.nodes = [NodeState(i, int(channels[i]), float(phases[i])) for i in range(n)]
        self.time = 0.0
        self.next_fire = np.array([T * (1.0 - nd.phi) for nd in self.nodes])
        # round k -> {node_id: time of its k-th fire}, for rounds not yet
        # recorded; round k is complete once its entry holds all n nodes
        self._rounds: defaultdict[int, dict[int, float]] = defaultdict(dict)
        self._prev_round_order: list[list[int]] | None = None
        self.completed_rounds = 0
        self.trace: list[TraceRecord] = []
        self.order_change_rounds = 0

        self._rebuild_channels()
        if C > 1:
            if config.balance:
                self.balance_channels()
            for c in range(C):
                self._elect(c)
        # pending-fire queue keyed (time, channel, node_id), the scan's
        # tie-break; an entry is live while it matches the node's current
        # next_fire and channel, so rescheduling leaves the old one to be
        # skipped when popped (it expires within one period)
        self._queue = [(t, nd.channel, nd.node_id)
                       for t, nd in zip(self.next_fire.tolist(), self.nodes)]
        heapq.heapify(self._queue)

        # analytical-staleness ledger: fixed ring per channel (initial phase
        # order) plus per-node previous/current iterate values
        self._ring_pred = np.full(n, -1, dtype=int)
        self._ring_succ = np.full(n, -1, dtype=int)
        if config.staleness_mode == "assumption1":
            self._led_prev = phases.astype(np.float64).copy()
            self._led_curr = phases.astype(np.float64).copy()
            self._build_rings()

    # ---------------- topology & roles ----------------

    def _rebuild_channels(self):
        C = self.config.channels
        self.channel_members = [[] for _ in range(C)]
        for nd in self.nodes:
            self.channel_members[nd.channel].append(nd.node_id)
        for mem in self.channel_members:
            mem.sort()
        self.sync_of: list[Optional[int]] = [None] * C

    def _elect(self, channel: int):
        members = self.channel_members[channel]
        if not members:
            self.sync_of[channel] = None
            return
        sid = elect_sync_node(members)
        self.sync_of[channel] = sid
        for nid in members:
            self.nodes[nid].role = "sync" if nid == sid else "desync"

    def _build_rings(self):
        """Fix the per-channel firing ring from the initial phase order; each
        node's predecessor is the next-lower phase (cyclic)."""
        for members in self.channel_members:
            if len(members) < 2:
                continue
            order = sorted(members, key=lambda i: (self.nodes[i].phi, i))
            m = len(order)
            for idx, nid in enumerate(order):
                self._ring_pred[nid] = order[(idx - 1) % m]
                self._ring_succ[nid] = order[(idx + 1) % m]

    def occupancy(self) -> list:
        return [len(m) for m in self.channel_members]

    def balance_channels(self):
        """Greedy channel balancing: the Sync node of an over-full channel c
        jumps to c+1 while n_c - n_{c+1} >= 1 (>= 2 at the wrap edge); both
        channels re-elect afterwards. Terminates with every occupancy in
        {floor(n/C), ceil(n/C)}."""
        C = self.config.channels
        if C < 2:
            return
        counts = self.occupancy()
        limit = 10 * self.config.n * C + 100
        switches = 0
        while True:
            moved = False
            for c in range(C):
                nxt = (c + 1) % C
                need = 2 if c == C - 1 else 1
                if counts[c] - counts[nxt] >= need and counts[c] > 0:
                    mover = elect_sync_node(self.channel_members[c])
                    self.nodes[mover].channel = nxt
                    self.channel_members[c].remove(mover)
                    self.channel_members[nxt].append(mover)
                    self.channel_members[nxt].sort()
                    counts[c] -= 1
                    counts[nxt] += 1
                    self._elect(c)
                    self._elect(nxt)
                    switches += 1
                    moved = True
                    break
            if not moved:
                break
            if switches > limit:
                raise RuntimeError("channel balancing failed to terminate")

    # ---------------- message loss ----------------

    def message_delivered(self, listener_id: int, firer_id: int) -> bool:
        """Bernoulli delivery with miss-counter bookkeeping; hidden pairs never
        deliver and stay invisible to the listener's counter."""
        cfg = self.config
        if cfg.adjacency is not None and not cfg.adjacency[listener_id, firer_id]:
            return False
        listener = self.nodes[listener_id]
        if cfg.loss_probability > 0.0 and self.rng.random() < cfg.loss_probability:
            listener.miss_counter += 1
            if listener.miss_counter >= cfg.consecutive_miss_threshold:
                listener.full_listening = True
            return False
        listener.miss_counter = 0
        listener.full_listening = False
        return True

    # ---------------- event loop ----------------

    def _schedule(self, node: NodeState, t: float):
        """Set the node's next fire time; the only writer of next_fire."""
        t = float(t)  # queue keys compare faster as Python floats than numpy scalars
        self.next_fire[node.node_id] = t
        heapq.heappush(self._queue, (t, node.channel, node.node_id))

    def advance_to_next_fire(self) -> FireEvent:
        """Advance the clock to the earliest phase-1 crossing; the firer wraps
        to phase 0 and its next fire is scheduled one period later. Ties
        break on (channel, node_id)."""
        if not self.nodes:
            raise RuntimeError("empty network: no node can fire")
        queue, next_fire, nodes = self._queue, self.next_fire, self.nodes
        while True:
            t, ch, nid = heapq.heappop(queue)
            firer = nodes[nid]
            if t == next_fire[nid] and ch == firer.channel:
                break
        self.time = t
        firer.fire_count += 1
        self._rounds[firer.fire_count][nid] = t
        firer.succ_offset = firer.last_heard_offset
        firer.awaiting_update = False if firer.role == "sync" else True
        self._schedule(firer, t + self.config.period)
        return FireEvent(time=t, node_id=nid, channel=firer.channel)

    def step(self) -> FireEvent:
        event = self.advance_to_next_fire()
        self._deliver(event)
        return event

    def _deliver(self, event: FireEvent):
        cfg = self.config
        firer_id = event.node_id
        firer = self.nodes[firer_id]
        announced = (1.0 - event.time / cfg.period) % 1.0
        nodes, delivered = self.nodes, self.message_delivered
        for nid in self.channel_members[event.channel]:
            listener = nodes[nid]
            # Sync nodes take no in-channel coupling
            if nid == firer_id or listener.role == "sync" or not delivered(nid, firer_id):
                continue
            if listener.awaiting_update:
                self._on_fire_desync(listener, event, announced)
            listener.last_heard_offset = announced
        if cfg.channels > 1 and firer.role == "sync" and event.channel != 0:
            # chain topology: channel c-1 syncs to channel c; the wrap edge
            # (last channel listening to channel 0) is dropped, making the
            # last channel's Sync the free-running reference
            watcher = self.sync_of[event.channel - 1]
            if watcher is not None and watcher != event.node_id:
                if self.message_delivered(watcher, event.node_id):
                    self._on_fire_sync(self.nodes[watcher], event, announced)

    def _pending_phase(self, node: NodeState, t: float) -> float:
        """Listener phase at time t derived from its pending fire.

        Time-to-fire is exact where it matters; the (t/T + phi) mod 1 form
        is ill-conditioned at fire instants and can read 0 for a node whose
        fire is imminent, which would silently skip that fire on reschedule.
        """
        remaining = self.next_fire.item(node.node_id) - t
        return max(0.0, 1.0 - remaining / self.config.period)

    def _on_fire_desync(self, listener: NodeState, event: FireEvent, announced: float):
        """Midpoint update at the predecessor's fire, for a listener awaiting
        its update since its own fire; skipped while caches are cold (live
        mode)."""
        listener.awaiting_update = False
        if self.config.staleness_mode == "assumption1":
            self._ledger_desync_update(listener, event)
            return
        if listener.succ_offset is None:
            return
        alpha = self.config.alpha
        p_own = self._pending_phase(listener, event.time)
        # successor position relative to the firer; the successor fired ahead
        # of the listener, so lift near-zero values (a full cycle ahead, the
        # two-node case) past p_own instead of letting rounding collapse them
        p_succ = (listener.succ_offset - announced) % 1.0
        if p_succ <= p_own:
            p_succ += 1.0
        p_new = (1.0 - alpha) * p_own + (alpha / 2.0) * p_succ
        new_pos = (announced + p_new) % 1.0
        if self.config.use_nesterov:
            k = listener.update_count + 1
            listener.update_count = k
            coef = momentum_coefficient(k)
            delta = _circdiff(new_pos - listener.pos_phi)
            listener.pos_phi = new_pos
            listener.phi = (new_pos + coef * delta) % 1.0
            theta_new = (p_new + coef * delta) % 1.0
        else:
            listener.update_count += 1
            listener.phi = new_pos
            listener.pos_phi = new_pos
            theta_new = p_new
        # p_new is the listener's new phase at the fire instant; scheduling
        # from it directly avoids another mod-1 roundtrip
        self._schedule(listener, event.time + self.config.period * (1.0 - theta_new))

    def _ledger_value(self, nid: int, index: int) -> float:
        """A node's ledger value at update index `index`: the previous one
        while the node is already one update past it."""
        if self.nodes[nid].update_count == index + 1:
            return self._led_prev[nid]
        return self._led_curr[nid]

    def _ledger_commit(self, node: NodeState, value: float, t: float):
        """Record a ledger update's new value and reschedule from it."""
        i = node.node_id
        self._led_prev[i] = self._led_curr[i]
        self._led_curr[i] = value
        node.update_count += 1
        node.phi = value
        node.pos_phi = value
        T = self.config.period
        self._schedule(node, t + T * (1.0 - node.theta(t, T)))

    def _ledger_desync_update(self, listener: NodeState, event: FireEvent):
        """Analytical-model update: neighbours' values are read at the
        listener's previous update index, whether or not they have been
        announced yet."""
        i = listener.node_id
        pred, succ = self._ring_pred[i], self._ring_succ[i]
        if pred < 0:
            return
        pred_val = self._ledger_value(pred, listener.update_count)
        succ_val = self._ledger_value(succ, listener.update_count)
        alpha = self.config.alpha
        p_own = (self._led_curr[i] - pred_val) % 1.0
        p_succ = (succ_val - pred_val) % 1.0
        if p_succ <= p_own:
            p_succ += 1.0
        new_val = (pred_val + (1.0 - alpha) * p_own + (alpha / 2.0) * p_succ) % 1.0
        self._ledger_commit(listener, new_val, event.time)

    def _sync_pull(self, theta: float) -> float:
        """Consensus pull toward the firing instant, the short way around:
        the theta >= 1/2 branch is the inhibitory pull toward 1; below 1/2
        the node is just past the firer and eases back toward 0. The
        one-sided pull would un-align an already synchronized pair and
        sustains rotating waves on the cycle. A result of exactly 1 means
        "fire together now" and is deliberately not wrapped: rescheduling
        it a full period out would skip the imminent fire."""
        gamma = self.config.gamma
        if theta >= 0.5:
            return (1.0 - gamma) * theta + gamma
        return (1.0 - gamma) * theta

    def _on_fire_sync(self, listener: NodeState, event: FireEvent, announced: float):
        t = event.time
        if self.config.staleness_mode == "assumption1":
            next_val = self._ledger_value(event.node_id, listener.update_count)
            theta_new = self._sync_pull((self._led_curr[listener.node_id] - next_val) % 1.0)
            self._ledger_commit(listener, (next_val + theta_new) % 1.0, t)
            return
        theta_new = self._sync_pull(self._pending_phase(listener, t))
        listener.update_count += 1
        listener.phi = (theta_new - t / self.config.period) % 1.0
        self._schedule(listener, t + self.config.period * (1.0 - theta_new))

    # ---------------- rounds, objective, trace ----------------

    def _channel_vector(self, offsets: np.ndarray, channel: int) -> np.ndarray:
        """Channel offsets in ascending cyclic order starting at the Sync node
        (multichannel) unwrapped past the fold, or plain ascending order."""
        members = self.channel_members[channel]
        vals = offsets[members]
        sync = self.sync_of[channel]
        if self.config.channels == 1 or sync is None:
            return np.sort(vals)
        anchor = offsets[sync]
        rel = (vals - anchor) % 1.0
        rel[members.index(sync)] = 0.0
        return anchor + np.sort(rel)

    def _channel_vectors(self, offsets: np.ndarray) -> list[np.ndarray]:
        """The channel vector of every non-empty channel, in channel order."""
        return [
            self._channel_vector(offsets, c)
            for c in range(self.config.channels)
            if self.channel_members[c]
        ]

    def _objective(self, offsets: np.ndarray, vectors: list[np.ndarray]) -> float:
        """Per-channel equispacing terms of the channel vectors, in channel
        order, plus the circular Sync-alignment penalty (several channels;
        the Sync nodes are elected only then)."""
        total = 0.0
        for vec in vectors:
            r = gap_residual(vec)
            total += 0.5 * float(r @ r)
        firsts = [offsets[s] for s in self.sync_of if s is not None]
        if len(firsts) > 1:
            f = np.array(firsts)
            diffs = _circdiff(np.roll(f, -1) - f)
            total += 0.5 * float(diffs @ diffs)
        return total

    def objective_of(self, offsets: np.ndarray) -> float:
        """Gap objective on recovered offsets: per-channel equispacing terms
        plus (for several channels) the circular Sync-alignment penalty."""
        return self._objective(offsets, self._channel_vectors(offsets))

    def _record(self, r: int, offsets: np.ndarray, order_changed: bool = False) -> TraceRecord:
        """Append round r's trace record, taken at the current time."""
        per_channel = self._channel_vectors(offsets)
        obj = self._objective(offsets, per_channel)
        rec = TraceRecord(
            round_index=r,
            sim_time=self.time,
            offsets_by_node=offsets,
            per_channel=per_channel,
            objective=obj,
            occupancy=self.occupancy(),
            converged=obj <= self.config.epsilon,
            order_changed=order_changed,
        )
        self.trace.append(rec)
        return rec

    def _finish_round(self) -> TraceRecord:
        """Record the next round from its fire times and free its buffer entry:
        offsets recovered from the fires, and the per-channel firing order
        (time, then node id) compared with the previous round's."""
        self.completed_rounds += 1
        r = self.completed_rounds
        fired = self._rounds.pop(r)
        order = [sorted(members, key=lambda i: (fired[i], i))
                 for members in self.channel_members]
        order_changed = (
            self._prev_round_order is not None and order != self._prev_round_order
        )
        if order_changed:
            self.order_change_rounds += 1
        self._prev_round_order = order
        times = np.array([fired[i] for i in range(self.config.n)])
        return self._record(r, (1.0 - times / self.config.period) % 1.0, order_changed)

    def run(self) -> SimulationResult:
        cfg = self.config
        max_rounds = cfg.max_rounds
        if max_rounds is None:
            max_rounds = max(1000, 200 * cfg.n)
        rec0 = self._record(0, np.array([nd.phi for nd in self.nodes]))
        obj0 = rec0.objective
        converged = rec0.converged
        rounds = 0
        final = obj0
        steady_round = None
        steady_run = 0
        prev_offsets = None
        while not converged and steady_round is None and self.completed_rounds < max_rounds:
            if cfg.max_time is not None and self.time >= cfg.max_time:
                break
            self.step()
            if len(self._rounds[self.completed_rounds + 1]) == cfg.n:
                rec = self._finish_round()
                final = rec.objective
                if not np.isfinite(final):
                    raise FloatingPointError("non-finite objective in simulation")
                if rec.converged:
                    converged = True
                    rounds = rec.round_index
                if prev_offsets is not None:
                    drift = np.max(np.abs(_circdiff(rec.offsets_by_node - prev_offsets)))
                    steady_run = steady_run + 1 if drift < cfg.steady_tol else 0
                    if steady_run >= cfg.steady_rounds_needed:
                        steady_round = rec.round_index
                prev_offsets = rec.offsets_by_node
        if not converged:
            rounds = self.completed_rounds
        report = ConvergenceReport(
            rounds=rounds,
            final_objective=final,
            trace=np.array([t.objective for t in self.trace if t.round_index > 0]),
            converged=converged,
            initial_objective=obj0,
        )
        return SimulationResult(
            report=report,
            trace=self.trace,
            time_to_convergence=rounds * cfg.period if converged else math.inf,
            occupancy=self.occupancy(),
            available_tx_time=[
                cfg.period - len(m) * 2.0 * cfg.guard_time for m in self.channel_members if m
            ],
            order_change_rounds=self.order_change_rounds,
            steady_round=steady_round if not converged else rounds,
        )

    # ---------------- steady-state channel swap ----------------

    def swap_channels(self, node_a: int, node_b: int, tol: float = 1e-6):
        """Atomically exchange the channel assignments of two nodes that fire
        in the same slot of adjacent channels, after convergence. Phases and
        caches are untouched; slot synchronization keeps them valid.

        Synchrony is validated on the pending fire times (tol is a fraction
        of the period). Matching offsets alone would admit swaps issued
        between the two partners' aligned fires, which hands one channel two
        fires in that slot and the other none, corrupting the neighbours'
        update pairing for the round.
        """
        cfg = self.config
        a, b = self.nodes[node_a], self.nodes[node_b]
        C = cfg.channels
        if C < 2:
            raise SwapError("channel swap needs at least two channels")
        current = self.objective_of(np.array([nd.phi for nd in self.nodes]))
        if current > cfg.epsilon:
            raise SwapError(
                f"network not converged (objective {current:.3e} > {cfg.epsilon:.3e})"
            )
        if (a.channel - b.channel) % C not in (1, C - 1):
            raise SwapError(f"channels {a.channel} and {b.channel} are not adjacent")
        fire_gap = abs(self.next_fire[node_a] - self.next_fire[node_b])
        if fire_gap > tol * cfg.period:
            raise SwapError(
                f"nodes {node_a} and {node_b} do not fire synchronously "
                f"(next fires {fire_gap:.3e}s apart)"
            )
        if a.role != b.role:
            raise SwapError("swap partners must hold the same role")
        # the exchange must land clear of the channels' beacon instants: at a
        # slot boundary one channel's fire may be processed while the aligned
        # twin is still pending, and a node swapped in between mis-pairs its
        # next update trigger
        pend = min(
            self.next_fire[i] - self.time
            for i in self.channel_members[a.channel] + self.channel_members[b.channel]
        )
        if pend < cfg.guard_time:
            raise SwapError(
                f"swap issued inside the guard window around a beacon "
                f"({pend:.3e}s to the next fire)"
            )
        ca, cb = a.channel, b.channel
        self.channel_members[ca].remove(node_a)
        self.channel_members[cb].remove(node_b)
        self.channel_members[ca].append(node_b)
        self.channel_members[cb].append(node_a)
        self.channel_members[ca].sort()
        self.channel_members[cb].sort()
        a.channel, b.channel = cb, ca
        # the channel is part of the queue key: requeue both under the new one
        self._schedule(a, self.next_fire[node_a])
        self._schedule(b, self.next_fire[node_b])
        if a.role == "sync":
            self.sync_of[cb] = node_a
            self.sync_of[ca] = node_b


def run_simulation(config: SimConfig) -> SimulationResult:
    """Build a seeded simulation (placement, balancing, election) and run the
    fire-event loop to convergence or the round/time cap."""
    return Simulation(config).run()


def trace_to_csv(trace: Sequence[TraceRecord], path, channels: int):
    """One row per record: round, sim_time_s, objective, occ_1..occ_C, converged_flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "sim_time_s", "objective"]
            + [f"occ_{c + 1}" for c in range(channels)]
            + ["converged_flag"]
        )
        for rec in trace:
            writer.writerow(
                [rec.round_index, repr(float(rec.sim_time)), repr(float(rec.objective))]
                + [str(o) for o in rec.occupancy]
                + [int(rec.converged)]
            )
