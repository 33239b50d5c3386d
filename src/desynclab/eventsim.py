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
* "assumption1": reproduces the synchronous single-channel analytical
  iteration exactly. The firing ring is fixed from the initial phase order
  and every update with index k reads its neighbours' index-(k-1) values
  from a ledger, including values that have not been announced yet (that
  non-causality is precisely what the analytical model assumes). The ledger
  keeps only each node's previous value; its current one is node.phi.
  Requires one channel, full connectivity, zero loss, and no acceleration.
  On several channels the simulator's rooted Sync chain is not the engine's
  circulant consensus row, so the ledger reproduces no engine round there;
  SimConfig rejects it.

Reception is stateless: a listener hears a fire unless the pair is hidden
(non-adjacent pairs never deliver) or a per-receiver Bernoulli draw loses
it, one draw per adjacent listener in member order. Guard times are
bookkeeping only; they never touch the phase math.

Cost: a fire on a lossless, fully connected channel is O(log n), one heap
call in the typical case (see Simulation._requeue); loss or hidden pairs
add one message_delivered call per listener. A round's record is O(n log n)
in a fixed number of numpy calls over a cached membership layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .objectives import channel_objective
from .problems import SpecError, _as_int, check_open_unit, check_run
from .rounds import ConvergenceReport, Stop, momentum_coefficient


# steady-state detection: offsets moving less than SimConfig.steady_tol per
# round for this many consecutive rounds. Under partial connectivity the
# settled firing pattern need not be equidistant, so the objective can
# plateau above epsilon while the network is steady.
STEADY_ROUNDS = 3


def _circdiff(x):
    """Reduce circle differences (a float or an array) into [-0.5, 0.5)."""
    return (x + 0.5) % 1.0 - 0.5


# The fire rules. Each takes Python floats or numpy arrays and gives the same
# bits either way; Simulation calls them with floats.

def desync_midpoint(p_own, p_succ, alpha):
    """The Desync midpoint pull on positions relative to the firer (the
    predecessor, at 0): (1-alpha) p_own + (alpha/2) p_succ. The successor
    fired ahead of the listener, so a p_succ at or below p_own (a full cycle
    ahead, the two-node case, or collapsed by rounding) is lifted by 1."""
    p_succ = p_succ + (p_succ <= p_own)
    return (1.0 - alpha) * p_own + (alpha / 2.0) * p_succ


def momentum_shift(new, old, k):
    """Fast Desync's extrapolation at update k: (k-1)/(k+2) times the circle
    step from the old position to the new one."""
    return momentum_coefficient(k) * _circdiff(new - old)


def sync_pull(theta, gamma):
    """The Sync node's two-sided consensus pull (see the module docstring):
    (1-gamma) theta, plus gamma for theta >= 1/2. A result of exactly 1
    means "fire together now" and is not wrapped: rescheduling it a full
    period out would skip the imminent fire."""
    return (1.0 - gamma) * theta + gamma * (theta >= 0.5)


class SwapError(ValueError):
    """Channel-swap precondition violation."""


@dataclass
class SimConfig:
    """One simulation's settings, checked on construction: every rule
    raises SpecError (a ValueError)."""

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
    guard_time: float = 0.006
    max_rounds: Optional[int] = None
    initial_phases: Optional[np.ndarray] = None
    initial_channels: Optional[np.ndarray] = None
    balance: bool = True
    steady_tol: float = 1e-7  # see STEADY_ROUNDS

    def __post_init__(self):
        self.n = _as_int(self.n, "n")
        self.channels = _as_int(self.channels, "channels")
        if self.max_rounds is not None:
            self.max_rounds = _as_int(self.max_rounds, "max_rounds")
        # every range check below is written so that NaN fails it
        if self.n < 1:
            raise SpecError(f"n must be >= 1, got {self.n}")
        if self.channels < 1:
            raise SpecError(f"channels must be >= 1, got {self.channels}")
        if not self.period > 0.0:
            raise SpecError(f"period must be > 0, got {self.period}")
        check_open_unit(self.alpha, "alpha")
        check_open_unit(self.gamma, "gamma")
        if not 0.0 <= self.loss_probability < 1.0:
            raise SpecError(f"loss_probability out of [0,1): {self.loss_probability}")
        check_run(self.epsilon, self.max_rounds)
        if not self.guard_time >= 0.0:
            raise SpecError(f"guard_time must be >= 0, got {self.guard_time}")
        for name in ("period", "guard_time"):  # the checks above let inf through
            if np.isinf(getattr(self, name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.steady_tol >= 0.0:
            raise SpecError(f"steady_tol must be >= 0, got {self.steady_tol}")
        if self.staleness_mode not in ("live", "assumption1"):
            raise SpecError(f"unknown staleness_mode: {self.staleness_mode!r}")
        if self.adjacency is not None:
            adj = np.asarray(self.adjacency, dtype=bool)
            if adj.shape != (self.n, self.n):
                raise SpecError(f"adjacency must be ({self.n},{self.n}), got {adj.shape}")
            self.adjacency = adj
        if self.staleness_mode == "assumption1":
            if self.loss_probability > 0.0 or self.adjacency is not None:
                raise SpecError(
                    "assumption1 mode models perfect reception; it requires zero "
                    "loss and full connectivity"
                )
            if self.use_nesterov:
                raise SpecError("assumption1 mode covers the plain update only")
            if self.channels > 1:
                raise SpecError(
                    "staleness_mode='assumption1' is exact only on one channel; "
                    f"it requires channels=1, got channels={self.channels}"
                )
        if self.initial_phases is not None:
            phases = np.asarray(self.initial_phases, dtype=np.float64)
            if phases.shape != (self.n,):
                raise SpecError(f"initial_phases must have shape ({self.n},)")
            if not np.isfinite(phases).all():
                raise SpecError("initial_phases must be finite")
            self.initial_phases = phases
        if self.initial_channels is not None:
            channels = np.asarray(self.initial_channels)
            if not np.array_equal(channels, np.floor(channels)):
                raise SpecError("initial_channels must be integers")
            if (channels.shape != (self.n,) or channels.min() < 0
                    or channels.max() >= self.channels):
                raise SpecError("initial_channels out of range")
            self.initial_channels = channels


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
        # last announcement heard; authoritative only while the node is in its
        # channel's missed set (Simulation._heard reads it)
        self.last_heard_offset: Optional[float] = None

    def __repr__(self):
        return (
            f"NodeState(id={self.node_id}, ch={self.channel}, role={self.role}, "
            f"phi={self.phi:.6f})"
        )


class FireEvent(NamedTuple):
    time: float
    node_id: int
    channel: int


class _Layout(NamedTuple):
    """The channel membership as a record reads it; it changes only on a
    move or an election."""
    ids: np.ndarray                  # every channel's members, concatenated in channel order
    chan: np.ndarray                 # each member's channel
    counts: tuple                    # the occupancy
    spans: list                      # each non-empty channel's (start, stop) in ids
    sync_pos: Optional[np.ndarray]   # each member's Sync position in ids (several channels)
    syncs: Optional[np.ndarray]      # the Sync ids in channel order, the first repeated
                                     # at the end (two or more Sync nodes)


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
    occupancy: list
    order_change_rounds: int
    stop: Stop
    steady_round: Optional[int] = None  # first round of a settled firing pattern


def elect_sync_node(node_ids: Sequence[int]) -> int:
    """Deterministic Sync election: the smallest node id wins."""
    if not node_ids:
        raise ValueError("cannot elect a Sync node in an empty channel")
    return min(node_ids)


class Simulation:
    """One seeded network, fired event by event. The same SimConfig
    (rng_seed included) gives a bit-identical trace; simultaneous fires
    break ties by (channel, node_id).

    Only run() keeps rounds for its trace. Outside it, step() and a bare
    advance free each round unrecorded once every node has fired in it, so
    stepping a network keeps no fire times, and a later run() records from
    the next round on."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        n, C, T = config.n, config.channels, config.period

        # the phases are drawn before the channels: traces depend on that order
        phases = (self.rng.random(n) if config.initial_phases is None
                  else config.initial_phases % 1.0)
        channels = (self.rng.integers(0, C, size=n) if config.initial_channels is None
                    else config.initial_channels)

        self.nodes = [NodeState(i, int(channels[i]), float(phases[i])) for i in range(n)]
        self.time = 0.0
        # Python floats, as are the queue keys: a fire builds no numpy scalar
        self._next_fire = [T * (1.0 - nd.phi) for nd in self.nodes]
        # round k -> {node_id: time of its k-th fire}, for rounds not yet
        # recorded; round k is complete once its entry holds all n nodes
        self._rounds: defaultdict[int, dict[int, float]] = defaultdict(dict)
        # True only inside run(), which records the rounds it completes
        self._keep_rounds = False
        # the last recorded round's channel-major firing order and occupancy
        self._prev_round_order: tuple[bytes, tuple[int, ...]] | None = None
        self.completed_rounds = 0
        self.trace: list[TraceRecord] = []
        # per-channel delivery state: the latest announcement, the members
        # that did not receive it (the firer, the Sync node, hidden or lost
        # listeners; every other member heard it), and the Desync members
        # that fired and have not updated since
        self._latest: list[Optional[float]] = [None] * C
        self._missed: list[set[int]] = [set() for _ in range(C)]
        self._awaiting: list[set[int]] = [set() for _ in range(C)]

        self._rebuild_channels()
        if C > 1:
            if config.balance:
                self._balance()
            for c in range(C):
                self._elect(c)
        self._requeue()

        # the Desync rule, chosen once. assumption1 (one channel) reads an
        # analytical-staleness ledger: the firing ring fixed from the initial
        # phase order, each node's predecessor the next-lower phase (cyclic),
        # plus per-node previous iterate values; the current value of node i
        # is nodes[i].phi
        if config.staleness_mode == "assumption1":
            order = sorted(range(n), key=lambda i: (self.nodes[i].phi, i))
            self._ring_pred, self._ring_succ = [0] * n, [0] * n
            for a, b in zip(order, order[1:] + order[:1]):
                self._ring_succ[a], self._ring_pred[b] = b, a
            self._led_prev = [nd.phi for nd in self.nodes]
            self._on_fire_desync = self._ledger_desync_update

    # ---------------- topology & roles ----------------

    def _rebuild_channels(self):
        C = self.config.channels
        self.channel_members = [[] for _ in range(C)]
        for nd in self.nodes:
            self.channel_members[nd.channel].append(nd.node_id)
        for mem in self.channel_members:
            mem.sort()
        self.sync_of: list[Optional[int]] = [None] * C
        self._layout = None

    def _member_layout(self) -> _Layout:
        """What a record reads of the channel membership (see _Layout),
        rebuilt on first use after a membership or election change."""
        if self._layout is None:
            C = self.config.channels
            counts = tuple(self.occupancy())
            ids = np.array([i for mem in self.channel_members for i in mem], dtype=np.intp)
            chan = np.repeat(np.arange(C), counts)
            ends = np.cumsum(counts).tolist()
            spans = [(end - m, end) for m, end in zip(counts, ends) if m]
            sync_pos = syncs = None
            if C > 1:
                sync_ids = np.array([-1 if s is None else s for s in self.sync_of])
                sync_pos = np.argsort(ids)[sync_ids[chan]]
                elected = [s for s in self.sync_of if s is not None]
                if len(elected) > 1:
                    syncs = np.array(elected + elected[:1], dtype=np.intp)
            self._layout = _Layout(ids, chan, counts, spans, sync_pos, syncs)
        return self._layout

    def _elect(self, channel: int):
        self._layout = None
        members = self.channel_members[channel]
        if not members:
            self.sync_of[channel] = None
            return
        sid = elect_sync_node(members)
        self.sync_of[channel] = sid
        for nid in members:
            self.nodes[nid].role = "sync" if nid == sid else "desync"

    def occupancy(self) -> list:
        return [len(m) for m in self.channel_members]

    def _requeue(self):
        """Queue every node once at its pending fire, deferring none.

        The fire queue is a heap keyed (time, channel, node_id), the scan's
        tie-break. step() defers and leaves stale entries: an entry is live
        while it matches the node's pending fire time, so an update leaves
        the old one to be skipped when popped (it expires within one period),
        and a Desync firer stays unqueued while a Desync mate is queued
        strictly ahead of it, since that mate's fire queues it. Construction,
        balancing, swaps and a bare advance rebuild the queue here."""
        self._queue = [(t, nd.channel, nd.node_id)
                       for t, nd in zip(self._next_fire, self.nodes)]
        heapify(self._queue)
        # each channel's deferred firer, or -1
        self._deferred = [-1] * self.config.channels

    def _move(self, nid: int, channel: int):
        """Move a node to another channel; roles and the queue, whose key
        holds the channel, are left to the caller. The node carries what it
        heard and whether it awaits an update, and counts as a misser in its
        new channel (its own value authoritative)."""
        node = self.nodes[nid]
        old = node.channel
        node.last_heard_offset = self._heard(node)
        self._missed[old].discard(nid)
        self._missed[channel].add(nid)
        if nid in self._awaiting[old]:
            self._awaiting[old].remove(nid)
            self._awaiting[channel].add(nid)
        self.channel_members[old].remove(nid)
        members = self.channel_members[channel]
        members.append(nid)
        members.sort()
        node.channel = channel
        self._layout = None

    def balance_channels(self):
        """Greedy channel balancing: the Sync node (smallest id) of an
        over-full channel c jumps to c+1 while n_c - n_{c+1} >= 1 (>= 2 at
        the wrap edge); every channel it touched re-elects once at the end,
        and the queue is rebuilt if a node moved. Terminates with every
        occupancy in {floor(n/C), ceil(n/C)}. Safe at any time: before the
        first step it gives the fires of construction with balance=True, and
        mid-run no fire of a node's old channel triggers its update."""
        if self._balance():
            self._requeue()

    def _balance(self) -> bool:
        """balance_channels without the requeue; whether a node moved. One
        scan: a move at c changes only the conditions at c-1, c, c+1 and the
        wrap edge, which is scanned last, so resuming at c-1 (at 0 after a
        move across the wrap edge) makes the moves a restart at 0 would."""
        C = self.config.channels
        if C < 2:
            return False
        counts = self.occupancy()
        limit = 10 * self.config.n * C + 100
        switches, c, touched = 0, 0, set()
        while c < C:
            nxt = (c + 1) % C
            if counts[c] - counts[nxt] < (1 if nxt else 2):
                c += 1
                continue
            self._move(elect_sync_node(self.channel_members[c]), nxt)
            counts[c] -= 1
            counts[nxt] += 1
            touched.update((c, nxt))
            switches += 1
            if switches > limit:
                raise RuntimeError("channel balancing failed to terminate")
            c = max(c - 1, 0) if nxt else 0
        for c in sorted(touched):
            self._elect(c)
        return switches > 0

    # ---------------- message loss ----------------

    def message_delivered(self, listener_id: int, firer_id: int) -> bool:
        """Whether the listener hears the firer: adjacent and not lost. A
        hidden pair draws no loss."""
        cfg = self.config
        if cfg.adjacency is not None and not cfg.adjacency[listener_id, firer_id]:
            return False
        return not (cfg.loss_probability > 0.0 and self.rng.random() < cfg.loss_probability)

    # ---------------- event loop ----------------

    @property
    def next_fire(self) -> np.ndarray:
        """Pending fire times by node id, a read-only snapshot (writes would bypass the queue)."""
        snapshot = np.array(self._next_fire)
        snapshot.flags.writeable = False
        return snapshot

    def advance_to_next_fire(self) -> FireEvent:
        """Advance the clock to the earliest phase-1 crossing; the firer wraps
        to phase 0 and its next fire is scheduled one period later. Ties break
        on (channel, node_id). No delivery happens, so the fire that would
        queue a deferred node may never come: the queue is rebuilt first, at
        O(n) per call. step() fires without this method."""
        self._requeue()
        t, ch, nid = self._queue[0]
        firer = self.nodes[nid]
        self.time = t
        firer.fire_count += 1
        self._rounds[firer.fire_count][nid] = t
        t_next = self._next_fire[nid] = t + self.config.period
        heapreplace(self._queue, (t_next, ch, nid))
        if not self._keep_rounds:
            self._free_round()
        # FireEvent(...) would run the named tuple's Python-level __new__
        return tuple.__new__(FireEvent, (t, nid, ch))

    def _heard(self, node: NodeState) -> Optional[float]:
        """The last announcement the node heard in its channel."""
        c = node.channel
        if node.node_id in self._missed[c]:
            return node.last_heard_offset
        return self._latest[c]

    def step(self) -> FireEvent:
        """Fire the next node and announce the fire to its channel. Only the
        members that miss it are touched one by one: they keep the previous
        announcement, everyone else reads the channel's latest. The Desync
        members awaiting an update that heard it update, in ascending id.

        The fired entry stays at the top of the queue until the step's first
        push takes its slot. The channel's deferred firer is queued at its
        updated time, or at its pending one if it missed the fire or its
        cache was cold; a Desync firer is deferred in turn when another
        Desync member is queued strictly ahead of it (see _requeue)."""
        nodes = self.nodes
        queue, next_fire = self._queue, self._next_fire
        t, c, firer_id = queue[0]
        while t != next_fire[firer_id]:
            heappop(queue)
            t, c, firer_id = queue[0]
        self.time = t
        firer = nodes[firer_id]
        firer.fire_count += 1
        self._rounds[firer.fire_count][firer_id] = t
        cfg = self.config
        t_next = next_fire[firer_id] = t + cfg.period
        # FireEvent(...) would run the named tuple's Python-level __new__
        event = tuple.__new__(FireEvent, (t, firer_id, c))
        announced = (1.0 - t / cfg.period) % 1.0
        sync = self.sync_of[c]
        # Sync nodes take no in-channel coupling
        missed = {firer_id} if sync is None else {firer_id, sync}
        if cfg.adjacency is not None or cfg.loss_probability > 0.0:
            delivered = self.message_delivered
            for nid in self.channel_members[c]:
                if nid not in missed and not delivered(nid, firer_id):
                    missed.add(nid)
        latest = self._latest[c]
        for nid in missed - self._missed[c]:
            nodes[nid].last_heard_offset = latest
        push = heapreplace  # until the fired entry's slot is taken
        deferred = self._deferred[c]
        awaiting = self._awaiting[c]
        ready = awaiting - missed
        if ready:
            awaiting -= ready
            update = self._on_fire_desync
            # in ascending id, the member order; one node needs no sort
            for nid in sorted(ready) if len(ready) > 1 else ready:
                pending = next_fire[nid]
                update(nodes[nid], event, announced)
                if next_fire[nid] != pending and nid != deferred:
                    push(queue, (next_fire[nid], c, nid))
                    push = heappush
        if deferred >= 0:
            self._deferred[c] = -1
            push(queue, (next_fire[deferred], c, deferred))
            push = heappush
        self._latest[c] = announced
        self._missed[c] = missed
        if firer_id != sync:
            awaiting.add(firer_id)
            # every other member is queued now; the first Desync one
            # (or, lacking one, the firer itself, which never leads)
            lead = firer_id
            for nid in self.channel_members[c]:
                if nid != firer_id and nid != sync:
                    lead = nid
                    break
            t_lead = next_fire[lead]
            if t_lead < t_next or (t_lead == t_next and lead < firer_id):
                self._deferred[c] = firer_id
            else:
                push(queue, (t_next, c, firer_id))
                push = heappush
        else:
            push(queue, (t_next, c, firer_id))
            push = heappush
            # chain topology: channel c-1 syncs to channel c; the wrap edge
            # (last channel listening to channel 0) is dropped, making the
            # last channel's Sync the free-running reference
            watcher = self.sync_of[c - 1] if c else None
            if watcher is not None:
                if self.message_delivered(watcher, firer_id):
                    pending = next_fire[watcher]
                    self._on_fire_sync(nodes[watcher], event)
                    if next_fire[watcher] != pending:
                        push(queue, (next_fire[watcher], c - 1, watcher))
        if push is heapreplace:
            heappop(queue)
        if not self._keep_rounds:
            self._free_round()
        return event

    def _free_round(self):
        """Drop the next round unrecorded once every node has fired in it.
        The firing order of the round before it no longer precedes the next
        recorded one, so it is forgotten too."""
        r = self.completed_rounds + 1
        if len(self._rounds.get(r, ())) == self.config.n:
            del self._rounds[r]
            self.completed_rounds = r
            self._prev_round_order = None

    def _on_fire_desync(self, listener: NodeState, event: FireEvent, announced: float):
        """The live midpoint update at the predecessor's fire, for a listener
        awaiting its update since its own fire; skipped while caches are
        cold. The listener has missed every fire since its own, so its
        last_heard_offset still holds the announcement it heard just before
        that fire: its successor's. assumption1 binds the ledger update in
        its place."""
        succ = listener.last_heard_offset
        if succ is None:
            return
        cfg = self.config
        nid, period, t = listener.node_id, cfg.period, event[0]
        next_fire = self._next_fire
        # the pending phase, as _on_fire_sync reads it
        p_own = 1.0 - (next_fire[nid] - t) / period
        p_own = p_own if p_own > 0.0 else 0.0
        # positions relative to the firer
        p_new = desync_midpoint(p_own, (succ - announced) % 1.0, cfg.alpha)
        new_pos = (announced + p_new) % 1.0
        if cfg.use_nesterov:
            k = listener.update_count + 1
            listener.update_count = k
            shift = momentum_shift(new_pos, listener.pos_phi, k)
            listener.pos_phi = new_pos
            listener.phi = (new_pos + shift) % 1.0
            theta_new = (p_new + shift) % 1.0
        else:
            listener.update_count += 1
            listener.phi = new_pos
            theta_new = p_new
        # p_new is the listener's new phase at the fire instant; scheduling
        # from it directly avoids another mod-1 roundtrip. step() queues it
        next_fire[nid] = t + period * (1.0 - theta_new)

    def _ledger_value(self, nid: int, index: int) -> float:
        """A node's ledger value at update index `index`: the previous one
        while the node is already one update past it."""
        node = self.nodes[nid]
        if node.update_count == index + 1:
            return self._led_prev[nid]
        return node.phi

    def _ledger_desync_update(self, listener: NodeState, event: FireEvent, announced: float):
        """Analytical-model update (assumption1): neighbours' values are read
        at the listener's previous update index, whether or not they have
        been announced yet. A single node never updates: it is the only
        member, and the firer misses its own fire."""
        i = listener.node_id
        pred_val = self._ledger_value(self._ring_pred[i], listener.update_count)
        succ_val = self._ledger_value(self._ring_succ[i], listener.update_count)
        alpha = self.config.alpha
        p_own = (listener.phi - pred_val) % 1.0
        p_succ = (succ_val - pred_val) % 1.0
        p_succ = p_succ + (p_succ <= p_own)
        # the second copy of the weighted sum, added to pred_val term by term:
        # grouped as desync_midpoint groups it, last bits move and the
        # assumption1 trace is no longer the one its golden digest pins
        new_val = (pred_val + (1.0 - alpha) * p_own + (alpha / 2.0) * p_succ) % 1.0
        self._led_prev[i] = listener.phi
        listener.update_count += 1
        listener.phi = new_val
        t, T = event.time, self.config.period
        self._next_fire[i] = t + T * (1.0 - (t / T + new_val) % 1.0)  # step() queues it

    def _on_fire_sync(self, listener: NodeState, event: FireEvent):
        """The consensus pull at the next channel's Sync fire. Sync nodes
        exist only on several channels, where assumption1 is rejected, so
        this is always the live update."""
        t = event.time
        period = self.config.period
        # the pending phase, read from the pending fire: the (t/T + phi) mod 1
        # form is ill-conditioned at fire instants and can read 0 for a node
        # whose fire is imminent, which would skip that fire on reschedule
        p = 1.0 - (self._next_fire[listener.node_id] - t) / period
        theta_new = sync_pull(p if p > 0.0 else 0.0, self.config.gamma)
        listener.update_count += 1
        listener.phi = (theta_new - t / period) % 1.0
        self._next_fire[listener.node_id] = t + period * (1.0 - theta_new)  # step() queues it

    # ---------------- rounds, objective, trace ----------------

    def _channel_vectors(self, offsets: np.ndarray) -> list[np.ndarray]:
        """Every non-empty channel's offsets, in channel order: ascending and
        cyclic from the Sync node (several channels) unwrapped past the fold,
        or plain ascending (one channel). One lexsort orders every channel,
        and each vector is a slice of the one sorted array."""
        layout = self._member_layout()
        vals = offsets[layout.ids]
        sync_pos = layout.sync_pos
        if sync_pos is None:
            return [np.sort(vals)]
        anchor = vals[sync_pos]
        rel = (vals - anchor) % 1.0
        rel[sync_pos] = 0.0
        flat = rel[np.lexsort((rel, layout.chan))] + anchor
        return [flat[a:b] for a, b in layout.spans]

    def _objective(self, offsets: np.ndarray, vectors: list[np.ndarray]) -> float:
        """Per-channel equispacing terms of the channel vectors, in channel
        order, plus the circular Sync-alignment penalty (several channels;
        the Sync nodes are elected only then): each Sync's offset subtracted
        from the next one's, the last's from the first's."""
        syncs = self._member_layout().syncs
        diffs = None
        if syncs is not None:
            f = offsets[syncs]
            diffs = _circdiff(f[1:] - f[:-1])
        return channel_objective(vectors, diffs)

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
        times = np.empty(self.config.n)
        times[np.fromiter(fired, np.intp)] = np.fromiter(fired.values(), float)
        layout = self._member_layout()
        ids = layout.ids
        order = (ids[np.lexsort((ids, times[ids], layout.chan))].tobytes(), layout.counts)
        order_changed = (
            self._prev_round_order is not None and order != self._prev_round_order
        )
        self._prev_round_order = order
        return self._record(r, (1.0 - times / self.config.period) % 1.0, order_changed)

    def run(self) -> SimulationResult:
        cfg = self.config
        max_rounds = cfg.max_rounds
        if max_rounds is None:
            max_rounds = max(1000, 200 * cfg.n)
        self._keep_rounds = True
        rec0 = self._record(0, np.array([nd.phi for nd in self.nodes]))
        obj0 = final = rec0.objective
        stop = Stop.CONVERGED if rec0.converged else None
        steady_run, prev_offsets = 0, None
        step, buffered, n = self.step, self._rounds, cfg.n
        # the fires of the next round to record, filled in place by step()
        pending = buffered[self.completed_rounds + 1]
        while stop is None and self.completed_rounds < max_rounds:
            step()
            if len(pending) == n:
                rec = self._finish_round()
                pending = buffered[self.completed_rounds + 1]
                final = rec.objective
                if not np.isfinite(final):
                    raise FloatingPointError("non-finite objective in simulation")
                if prev_offsets is not None:
                    drift = np.max(np.abs(_circdiff(rec.offsets_by_node - prev_offsets)))
                    steady_run = steady_run + 1 if drift < cfg.steady_tol else 0
                prev_offsets = rec.offsets_by_node
                if rec.converged:
                    stop = Stop.CONVERGED
                elif steady_run >= STEADY_ROUNDS:
                    stop = Stop.STEADY
            elif len(buffered) > n:
                # a node is more than n fires ahead of the completed rounds: a
                # Zeno exchange that would never complete another round
                stop = Stop.ZENO
        stop = Stop.CAPPED if stop is None else stop
        # a round that converges or settles is the last one completed
        rounds = 0 if rec0.converged else self.completed_rounds
        self._keep_rounds = False
        report = ConvergenceReport(
            rounds=rounds,
            final_objective=final,
            trace=np.array([t.objective for t in self.trace if t.round_index > 0]),
            converged=stop == Stop.CONVERGED,
            initial_objective=obj0,
        )
        return SimulationResult(
            report=report,
            trace=self.trace,
            occupancy=self.occupancy(),
            order_change_rounds=sum(rec.order_changed for rec in self.trace),
            stop=stop,
            steady_round=rounds if stop in (Stop.CONVERGED, Stop.STEADY) else None,
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
        fire_gap = abs(self._next_fire[node_a] - self._next_fire[node_b])
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
            self._next_fire[i] - self.time
            for i in self.channel_members[a.channel] + self.channel_members[b.channel]
        )
        if pend < cfg.guard_time:
            raise SwapError(
                f"swap issued inside the guard window around a beacon "
                f"({pend:.3e}s to the next fire)"
            )
        ca, cb = a.channel, b.channel
        self._move(node_a, cb)
        self._move(node_b, ca)
        if a.role == "sync":
            self.sync_of[cb] = node_a
            self.sync_of[ca] = node_b
        self._requeue()


def run_simulation(config: SimConfig) -> SimulationResult:
    """Build a seeded simulation (placement, balancing, election) and run the
    fire-event loop to convergence, a steady state or the round cap."""
    return Simulation(config).run()

