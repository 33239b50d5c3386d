"""Span tracer for the traced benchmark run.

The tracer wraps desynclab's public entry points from outside, by replacing
module and class attributes, and records a span (name, start, end, parent)
for every call. Self time is a span's duration minus the time its child
spans cover. Per-fire and per-round entry points (the batch objectives,
`Simulation.step`, `advance_to_next_fire`, `objective_of`) run hundreds of
thousands of times in one pass; their spans are folded into per-name totals
as they close instead of being kept one by one, which keeps the trace file
small. `message_delivered` is only counted, not timed.

End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # kept spans: [name, start, end, parent]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()     # work counters, by metric name
        self.kernels: list[dict] = []        # batch kernels in progress, innermost last
        self.last_s = 0.0                    # duration of the last wrapped call
        self._stack: list[list] = []         # open spans: [child seconds, kept parent]
        self._patches: list[tuple] = []

    def _open(self, name: str, keep: bool) -> list:
        parent = self._stack[-1][1] if self._stack else None
        if keep:
            self.spans.append([name, 0.0, 0.0, parent])
            parent = len(self.spans) - 1
        frame = [0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, keep: bool, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        self.self_s[name] += d - frame[0]
        self.total_s[name] += d
        if self._stack:
            self._stack[-1][0] += d
        if keep:
            span = self.spans[frame[1]]
            span[1], span[2] = t0, t1

    @contextmanager
    def span(self, name: str):
        frame = self._open(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, True, frame, t0, time.perf_counter())

    def timed(self, name: str, fn, keep: bool = True):
        """`fn` wrapped in a span; `last_s` holds the duration of the call
        that returned last."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._open(name, keep)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(name, keep, frame, t0, t1)
                self.last_s = t1 - t0

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, origin: float) -> list[dict]:
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]


def instrument(tracer: Tracer) -> None:
    """Wrap the entry points each layer exposes to the ones above it."""
    from desynclab import experiments as ex
    from desynclab import spectral as sp
    from desynclab import trials as tr
    from desynclab.eventsim import Simulation

    t = tracer
    for name in ("run_sweep", "compare_bounds", "certify_spectra"):
        t.patch(ex, name, t.timed(f"experiments.{name}", getattr(ex, name)))
    for name in ("initial_phase_batch", "initial_multichannel_batch"):
        t.patch(ex, name, t.timed("trials.init", getattr(ex, name)))
    for name in ("run_desync_batch", "run_fast_desync_batch", "run_sync_desync_batch"):
        t.patch(ex, name, _kernel(t, getattr(ex, name)))
    for name in ("batch_gap_objective", "batch_multichannel_objective"):
        t.patch(tr, name, _objective(t, getattr(tr, name)))

    report = t.timed("spectral.report", ex.spectral_report)

    def spectral_report(problem, *args, **kwargs):
        result = report(problem, *args, **kwargs)
        N = problem.total_nodes
        t.counts[f"spectral.report_s.N{N}"] += t.last_s
        t.counts[f"spectral.reports.N{N}"] += 1
        t.counts["spectral.reports"] += 1
        return result

    t.patch(ex, "spectral_report", spectral_report)
    t.patch(sp, "build_iteration_matrix", t.timed("spectral.build", sp.build_iteration_matrix))
    t.patch(sp, "_match_spectra", t.timed("spectral.match", sp._match_spectra))

    t.patch(Simulation, "__init__", t.timed("eventsim.init", Simulation.__init__))
    run = t.timed("eventsim.run", Simulation.run)

    def sim_run(self):
        result = run(self)
        fires = sum(nd.fire_count for nd in self.nodes)
        n = self.config.n
        t.counts[f"eventsim.run_s.n{n}"] += t.last_s
        t.counts[f"eventsim.fires.n{n}"] += fires
        t.counts["eventsim.run_s"] += t.last_s
        t.counts["eventsim.fires"] += fires
        t.counts["eventsim.rounds"] += self.completed_rounds
        settled = result.report.converged or result.steady_round is not None
        t.counts["eventsim.settled" if settled else "eventsim.unsettled"] += 1
        return result

    t.patch(Simulation, "run", sim_run)
    t.patch(Simulation, "step", t.timed("eventsim.step", Simulation.step, keep=False))
    t.patch(Simulation, "advance_to_next_fire",
            t.timed("eventsim.advance", Simulation.advance_to_next_fire, keep=False))
    t.patch(Simulation, "objective_of",
            t.timed("eventsim.objective", Simulation.objective_of, keep=False))
    delivered = Simulation.message_delivered

    def message_delivered(self, listener_id, firer_id):
        ok = delivered(self, listener_id, firer_id)
        if ok:
            t.counts["eventsim.deliveries"] += 1
        elif self.config.adjacency is not None and not self.config.adjacency[listener_id, firer_id]:
            t.counts["eventsim.drops_hidden"] += 1
        else:
            t.counts["eventsim.drops_loss"] += 1
        return ok

    t.patch(Simulation, "message_delivered", message_delivered)


def _kernel(t: Tracer, fn):
    """A batch kernel in a span, with its iterations and trial outcomes
    counted. A trial's update is useful while the trial is not done: for
    `rounds` iterations when it converges, until the iteration at which its
    objective turned non-finite when it is aborted, and for every iteration
    when it hits the cap."""
    timed = t.timed("trials.kernel", fn)

    def kernel(phi0, *args, **kwargs):
        ctx = {"calls": 0, "abort_at": {}}
        t.kernels.append(ctx)
        try:
            result = timed(phi0, *args, **kwargs)
        finally:
            t.kernels.pop()
        m, nodes = phi0.shape[0], int(np.prod(phi0.shape[1:]))
        iterations = ctx["calls"] - 1
        aborted = np.flatnonzero(result.aborted)
        capped = ~result.converged & ~result.aborted
        useful = (int(result.rounds[result.converged].sum()) + iterations * int(capped.sum())
                  + sum(ctx["abort_at"].get(i, iterations) for i in aborted))
        t.counts["trials.iterations"] += iterations
        t.counts["trials.updates_computed"] += iterations * m * nodes
        t.counts["trials.updates_useful"] += useful * nodes
        t.counts["trials.aborted"] += len(aborted)
        t.counts["trials.capped"] += int(capped.sum())
        if len(aborted) or capped.any():
            t.counts["trials.unstable_s"] += t.last_s
        return result

    return kernel


def _objective(t: Tracer, fn):
    """The batch objective, evaluated once on the start and once after each
    iteration. The iteration at which a trial's objective first turns
    non-finite is recorded."""
    timed = t.timed("trials.objective", fn, keep=False)

    def objective(phi):
        v = timed(phi)
        if t.kernels:
            ctx = t.kernels[-1]
            ctx["calls"] += 1
            finite = np.isfinite(v)
            if not finite.all():
                for i in np.flatnonzero(~finite):
                    ctx["abort_at"].setdefault(int(i), ctx["calls"] - 1)
        return v

    return objective
