"""Experiment specs, trial sweeps, bound comparison, spectral certification,
and report emission.

Sweeps are fully reproducible: per-trial seeds are seed_base + trial index,
aggregation is order-independent, and output CSV/JSON schemas are fixed.
Default grids are echoed into all outputs so results are self-describing.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import product
from typing import NamedTuple
from operator import attrgetter

import numpy as np

from .bounds import FAST_GUARANTEE_ALPHA_MAX, desync_round_bound, fast_desync_round_bound
from .eventsim import SimConfig, SimulationResult, TraceRecord, run_simulation
from .problems import (MultichannelProblem, SingleChannelProblem, SpecError, _as_int,
                       alpha_to_beta, check_open_unit, check_run)
from .rounds import default_max_rounds
from .spectral import spectral_report
from .trials import (
    TrialBatchResult,
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
)

MODES = ("desync", "fast-desync", "much", "fast-much", "event-sim")
# The single-channel and the multichannel modes, each plain then accelerated.
_SINGLE, _MULTI = ("desync", "fast-desync"), ("much", "fast-much")

# Wide grid for the plain algorithms (stable on all of (0,1)).
DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))
# Paired Desync-vs-Fast comparisons stay inside the guarantee range of the
# accelerated bound (alpha <= 1/2); beyond ~2/3 the momentum iteration is
# linearly unstable for even n.
DEFAULT_ALPHAS_PAIRED = tuple(round(0.05 * i, 2) for i in range(1, 11))
DEFAULT_EPSILONS = (1e-3, 1e-4)
DEFAULT_GAMMAS = (0.6,)
DEFAULT_TRIALS = 400

# Each CSV's columns, in their fixed order, as names of its row's fields.
_SWEEP_COLUMNS = (
    "mode", "n", "channels", "alpha", "gamma", "epsilon", "trials", "mean_rounds",
    "max_rounds", "std_rounds", "bound_desync", "bound_fast", "speedup_pct",
)
_BOUNDS_COLUMNS = (
    "n", "alpha", "epsilon", "trials", "max_rounds_desync", "bound_desync",
    "max_rounds_fast", "bound_fast", "violated",
)
_SPECTRA_COLUMNS = (
    "n", "channels", "beta", "gamma", "spectral_radius_deflated",
    "max_spectrum_mismatch", "eigenvalue_one_multiplicity", "passed",
)
SWEEP_CSV_HEADER = ",".join(_SWEEP_COLUMNS)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND_VIOLATION = 3
EXIT_TRIAL_FAILURE = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """One study. Read and checked wherever it is built (parsed,
    constructed, replaced or loaded): each field by the reader of its type,
    under its config key's name; a `| None` field takes None as "not given".
    Then its two mode defaults are filled: the alpha grid, paired or plain,
    and event-sim's single channel."""

    mode: str | None = None  # no default mode: None fails the mode check
    n: int | None = None
    channels: int | None = None
    nodes_per_channel: int | None = None
    alphas: tuple[float, ...] | None = None
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    trials: int = DEFAULT_TRIALS
    seed_base: int = 0
    out_dir: str = "results"
    max_rounds: int | None = None
    loss_probability: float = 0.0
    staleness_mode: str = "live"
    workers: int = 1

    def __post_init__(self):
        mode = self.mode
        # the choice fields are checked first, so any wrong value gets its choice message
        if mode not in MODES:
            raise SpecError(f"mode must be one of {MODES}, got {mode!r}")
        if self.staleness_mode not in ("live", "assumption1"):
            raise SpecError(f"unknown staleness_mode: {self.staleness_mode!r}")
        for key, (name, _) in _SPEC_KEYS.items():
            value = getattr(self, name)
            kind, _, optional = self.__dataclass_fields__[name].type.partition(" | ")
            if value is not None or not optional:
                object.__setattr__(self, name, _READERS[kind](value, key))
        if self.alphas is None:
            paired = mode in ("fast-desync", "fast-much")
            object.__setattr__(self, "alphas", DEFAULT_ALPHAS_PAIRED if paired else DEFAULT_ALPHAS)
        if mode == "event-sim" and self.channels is None:
            object.__setattr__(self, "channels", 1)

        for key, grid in (("alpha", self.alphas), ("gamma", self.gammas)):
            for v in grid:
                check_open_unit(v, key)
        for e in self.epsilons:
            check_run(e, self.max_rounds)
        n, channels, npc = self.n, self.channels, self.nodes_per_channel
        if mode in _SINGLE:
            if n is None or n < 2:
                raise SpecError(f"mode {mode} needs n >= 2")
        elif mode in _MULTI:
            if channels is None or npc is None:
                raise SpecError(f"mode {mode} needs channels and nodes_per_channel")
            if channels < 2 or npc < 2:
                raise SpecError("need channels >= 2 and nodes_per_channel >= 2")
        if self.trials < 1:
            raise SpecError(f"trials must be >= 1, got {self.trials}")
        # numpy takes larger seeds; trials._uniform_rows covers the 64-bit ones
        if self.seed_base < 0 or self.seed_base + self.trials > 2**64:
            raise SpecError(
                f"seed_base must be >= 0 with seed_base + trials <= 2**64, got {self.seed_base}"
            )
        if self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if mode == "event-sim":
            # SimConfig alone checks n, channels, loss_probability and the
            # staleness mode's rules, on every point the sweep runs; other
            # modes never read loss_probability
            for a, g, e in product(self.alphas, self.gammas, self.epsilons):
                _sim_config(self, a, g, e, self.seed_base)


def _as_grid(value, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float, str)):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(f"{name} must be a nonempty list of numbers")
    return tuple(_as_float(v, name) for v in value)


def _as_float(value, name: str) -> float:
    """A finite int or float, or a string that float() reads (PyYAML reads
    `1e-3`, which has no dot, as a string). Anything else is rejected."""
    try:
        number = math.nan if isinstance(value, (bool, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise SpecError(f"{name} must be a finite number, got {value!r}")
    return number


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{name} must be a string, got {value!r}")
    return value


# The reader of each ExperimentSpec field type, by its annotation.
_READERS = {"int": _as_int, "float": _as_float, "str": _as_str, "tuple[float, ...]": _as_grid}


class _Key(NamedTuple):
    field: str     # the ExperimentSpec field the key sets
    modes: tuple   # the modes that read it

# Every YAML config key. An absent key takes ExperimentSpec's default. A
# config may give only keys its mode reads.
_SPEC_KEYS = {
    "mode": _Key("mode", MODES),
    "n": _Key("n", (*_SINGLE, "event-sim")),
    "channels": _Key("channels", (*_MULTI, "event-sim")),
    "nodes_per_channel": _Key("nodes_per_channel", _MULTI),
    "alpha": _Key("alphas", MODES),
    "gamma": _Key("gammas", (*_MULTI, "event-sim")),
    "epsilon": _Key("epsilons", MODES),
    "trials": _Key("trials", MODES),
    "seed_base": _Key("seed_base", MODES),
    "out": _Key("out_dir", MODES),
    "max_rounds": _Key("max_rounds", MODES),
    "loss_probability": _Key("loss_probability", ("event-sim",)),
    "staleness_mode": _Key("staleness_mode", ("event-sim",)),
    "workers": _Key("workers", MODES),
}


class _NoValue:
    """A config key written with no value (YAML null). None would read as
    "not given"; this fails every check, reported as None."""

    def __repr__(self):
        return "None"


def parse_spec(text: str, overrides: dict | None = None) -> ExperimentSpec:
    """Parse a YAML experiment config. Unknown keys are rejected; the spec
    built from the given keys reads and checks their values. `overrides`
    replace config keys first, so they pass the same checks as the file's
    own values. A key the mode does not read is rejected after every other
    check."""
    import yaml  # imported on first use: it weighs on every `import desynclab`

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"malformed config: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SpecError("config must be a mapping")
    raw = {**raw, **(overrides or {})}
    unknown = set(raw) - set(_SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    spec = ExperimentSpec(**{_SPEC_KEYS[key].field: _NoValue() if value is None else value
                             for key, value in raw.items()})
    unread = sorted(key for key in raw if spec.mode not in _SPEC_KEYS[key].modes)
    if unread:
        raise SpecError(f"mode {spec.mode} does not read {', '.join(unread)}")
    return spec


@dataclass(frozen=True)
class SweepRow:
    mode: str
    n: int
    channels: int
    alpha: float
    gamma: float
    epsilon: float
    trials: int
    mean_rounds: float
    max_rounds: int
    std_rounds: float
    bound_desync: float
    bound_fast: float
    speedup_pct: float
    failures: int = 0


@dataclass
class SweepResult:
    spec: ExperimentSpec
    rows: list

    @property
    def failures(self) -> int:
        return sum(r.failures for r in self.rows)


def _row(mode: str, result: TrialBatchResult, **point) -> SweepRow:
    """The sweep row of one mode at one grid point: the round statistics and
    the failure count of its trials, next to the point's own fields."""
    rounds = result.rounds
    return SweepRow(
        mode=mode, trials=rounds.size, mean_rounds=float(rounds.mean()),
        max_rounds=int(rounds.max()), std_rounds=float(rounds.std()),
        failures=int((~result.converged).sum()), **point,
    )


def _paired_rows(modes, plain, fast, **point) -> list[SweepRow]:
    """The plain and accelerated rows of one grid point, both carrying the
    accelerated variant's speed-up over the plain mean rounds."""
    mean_p = plain.rounds.mean()
    mean_f = fast.rounds.mean()
    speedup = float(100.0 * (mean_p - mean_f) / mean_p) if mean_p > 0 else 0.0
    return [_row(mode, res, speedup_pct=speedup, **point)
            for mode, res in zip(modes, (plain, fast))]


def _single_channel_point(args) -> list[SweepRow]:
    spec, phi0, alpha, epsilon = args
    n = spec.n
    cap = spec.max_rounds or default_max_rounds(n, alpha, epsilon)
    plain = run_desync_batch(phi0, alpha, epsilon, cap)
    fast = run_fast_desync_batch(phi0, alpha, epsilon, cap)
    problem = SingleChannelProblem(n=n, alpha=alpha, epsilon=epsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bound_f = fast_desync_round_bound(problem)
    return _paired_rows(
        _SINGLE, plain, fast,
        n=n, channels=1, alpha=alpha, gamma=float("nan"), epsilon=epsilon,
        bound_desync=desync_round_bound(problem), bound_fast=bound_f,
    )


def _multichannel_point(args) -> list[SweepRow]:
    spec, phi0, alpha, gamma, epsilon = args
    C, n = spec.channels, spec.nodes_per_channel
    beta = alpha_to_beta(alpha)
    cap = spec.max_rounds or default_max_rounds(C * n, alpha, epsilon)
    plain = run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=False)
    fast = run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=True)
    return _paired_rows(
        _MULTI, plain, fast,
        n=n, channels=C, alpha=alpha, gamma=gamma, epsilon=epsilon,
        bound_desync=float("nan"), bound_fast=float("nan"),
    )


def _sim_config(spec: ExperimentSpec, alpha: float, gamma: float, epsilon: float,
                seed: int) -> SimConfig:
    """The event simulation an event-sim spec describes at one grid point."""
    return SimConfig(
        n=spec.n,
        channels=spec.channels,
        alpha=alpha,
        gamma=gamma,
        epsilon=epsilon,
        loss_probability=spec.loss_probability,
        staleness_mode=spec.staleness_mode,
        rng_seed=seed,
        max_rounds=spec.max_rounds,
    )


def _eventsim_point(args) -> list[SweepRow]:
    spec, alpha, gamma, epsilon = args
    runs = [run_simulation(_sim_config(spec, alpha, gamma, epsilon, spec.seed_base + t))
            for t in range(spec.trials)]
    result = TrialBatchResult(np.array([res.report.rounds for res in runs], dtype=np.int64),
                              np.array([res.stop for res in runs], dtype=np.int8))
    return [
        _row("event-sim", result, n=spec.n, channels=spec.channels, alpha=alpha,
             gamma=gamma, epsilon=epsilon, bound_desync=float("nan"),
             bound_fast=float("nan"), speedup_pct=float("nan"))
    ]


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Run every grid point of the spec. Single-channel modes always run the
    plain and accelerated variants on identical per-trial starts, so the
    speed-up statistic is defined; the mode only selects the default grid.
    The start batch is sampled once and shared by every grid point."""
    if spec.mode in _SINGLE:
        phi0 = initial_phase_batch(spec.n, spec.trials, spec.seed_base)
        points = [(spec, phi0, a, e) for a in spec.alphas for e in spec.epsilons]
        worker = _single_channel_point
    elif spec.mode in _MULTI:
        phi0 = initial_multichannel_batch(
            spec.channels, spec.nodes_per_channel, spec.trials, spec.seed_base
        )
        points = [
            (spec, phi0, a, g, e)
            for a in spec.alphas for g in spec.gammas for e in spec.epsilons
        ]
        worker = _multichannel_point
    else:
        points = [
            (spec, a, g, e)
            for a in spec.alphas for g in spec.gammas for e in spec.epsilons
        ]
        worker = _eventsim_point

    if spec.workers > 1:
        # imported on first use, like yaml in parse_spec
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunks = list(pool.map(worker, points))
    else:
        chunks = [worker(p) for p in points]
    rows = [row for chunk in chunks for row in chunk]
    return SweepResult(spec=spec, rows=rows)


@dataclass(frozen=True)
class BoundsRow:
    n: int
    alpha: float
    epsilon: float
    trials: int
    max_rounds_desync: int
    bound_desync: float
    max_rounds_fast: int
    bound_fast: float
    violated: bool


def compare_bounds(spec: ExperimentSpec) -> list[BoundsRow]:
    """Observed max rounds versus the worst-case bounds, per grid point, read
    off the sweep's paired rows. A row is violated, which indicates an
    implementation bug, when its plain rounds exceed the plain bound, or its
    accelerated rounds exceed the accelerated bound where that bound is
    guaranteed (alpha <= FAST_GUARANTEE_ALPHA_MAX)."""
    if spec.mode not in _SINGLE:
        raise SpecError("bound comparison needs a single-channel mode")
    rows = run_sweep(spec).rows
    return [
        BoundsRow(
            n=d.n, alpha=d.alpha, epsilon=d.epsilon, trials=d.trials,
            max_rounds_desync=d.max_rounds, bound_desync=d.bound_desync,
            max_rounds_fast=f.max_rounds, bound_fast=f.bound_fast,
            violated=bool(d.max_rounds > d.bound_desync or (
                d.alpha <= FAST_GUARANTEE_ALPHA_MAX and f.max_rounds > f.bound_fast)),
        )
        for d, f in zip(rows[::2], rows[1::2])
    ]


@dataclass
class SpectraRow:
    n: int
    channels: int
    beta: float
    gamma: float
    spectral_radius_deflated: float
    eigenvalue_one_multiplicity: int
    passed: bool
    # No numeric spectrum is computed, so the mismatch reads nan ("does not
    # apply").
    max_spectrum_mismatch: float = float("nan")


def certify_spectra(ns, cs, betas, gammas) -> list[SpectraRow]:
    """Closed-form deflated spectral radius and eigenvalue-1 multiplicity
    over a parameter grid; MultichannelProblem rejects an out-of-range
    point with SpecError."""
    rows = []
    for n, C, b, g in product(ns, cs, betas, gammas):
        rep = spectral_report(MultichannelProblem.uniform(C, n, b, g))
        rows.append(SpectraRow(
            n=n, channels=C, beta=b, gamma=g,
            spectral_radius_deflated=rep.spectral_radius_deflated,
            eigenvalue_one_multiplicity=rep.eigenvalue_one_multiplicity,
            passed=rep.converges and rep.eigenvalue_one_multiplicity == 1,
        ))
    return rows


# ---------------- output emission ----------------

def _fmt(x) -> str:
    # float() drops numpy's scalar type, whose repr is "np.float64(...)";
    # bools, numpy's included, are written as 0/1
    if isinstance(x, float):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    return str(x)


def _write_csv(path, header, rows):
    """Every CSV: a header line, then each row's values through _fmt,
    comma-joined, one LF-terminated line per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path, doc):
    """Every JSON file: indented, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(result: SweepResult, path):
    _write_csv(path, _SWEEP_COLUMNS, map(attrgetter(*_SWEEP_COLUMNS), result.rows))


def write_bounds_csv(rows, path):
    _write_csv(path, _BOUNDS_COLUMNS, map(attrgetter(*_BOUNDS_COLUMNS), rows))


def write_spectra_csv(rows, path):
    _write_csv(path, _SPECTRA_COLUMNS, map(attrgetter(*_SPECTRA_COLUMNS), rows))


def trace_to_csv(trace: list[TraceRecord], path, channels: int):
    """One row per record: round, sim_time_s, objective, occ_1..occ_C, converged_flag."""
    header = ["round", "sim_time_s", "objective",
              *(f"occ_{c + 1}" for c in range(channels)), "converged_flag"]
    _write_csv(path, header, ((rec.round_index, rec.sim_time, rec.objective,
                               *rec.occupancy, rec.converged) for rec in trace))


def write_simulation_json(result: SimulationResult, cfg: SimConfig, path):
    """The run's outcome and the point it ran, plus two figures derived from
    them: the time to convergence (inf when not converged) and each
    non-empty channel's available transmit time, T - n_c * 2 * guard_time."""
    report = result.report
    _write_json(path, {
        **{key: getattr(report, key) for key in ("rounds", "converged", "final_objective")},
        **{key: getattr(result, key)
           for key in ("occupancy", "order_change_rounds", "steady_round")},
        **{key: getattr(cfg, key) for key in ("alpha", "gamma", "epsilon", "rng_seed")},
        "time_to_convergence_s": report.rounds * cfg.period if report.converged else math.inf,
        "available_tx_time_s": [cfg.period - occ * 2.0 * cfg.guard_time
                                for occ in result.occupancy if occ],
    })


def emit_plotdata(result: SweepResult, out_dir):
    """Gnuplot-style series files (one per mode/n/channels/gamma/epsilon;
    a `.dat` row holds no gamma, so the modes with a gamma grid get one file
    per gamma, named `..._g{gamma}_eps...`) plus a JSON summary that
    round-trips back into the sweep statistics."""
    os.makedirs(out_dir, exist_ok=True)
    groups: dict = {}
    for r in result.rows:
        gamma = None if r.mode in _SINGLE else r.gamma
        groups.setdefault((r.mode, r.n, r.channels, gamma, r.epsilon), []).append(r)
    paths = []
    for (mode, n, channels, gamma, epsilon), rows in sorted(groups.items()):
        g = "" if gamma is None else f"_g{gamma:g}"
        path = os.path.join(out_dir, f"{mode}_n{n}_c{channels}{g}_eps{epsilon:g}.dat")
        with open(path, "w") as fh:
            fh.write("# alpha mean_rounds max_rounds std_rounds speedup_pct\n")
            for r in sorted(rows, key=attrgetter("alpha")):
                fh.write(
                    f"{_fmt(r.alpha)} {_fmt(r.mean_rounds)} {_fmt(float(r.max_rounds))} "
                    f"{_fmt(r.std_rounds)} {_fmt(r.speedup_pct)}\n"
                )
        paths.append(path)
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, {"spec": asdict(result.spec),
                               "rows": [asdict(r) for r in result.rows]})
    paths.append(summary_path)
    return paths


def load_summary(path) -> SweepResult:
    """The sweep a summary.json holds. Spec keys missing from older
    summaries take the defaults, unknown spec keys are ignored, and the spec
    is checked like any other; a file that is not a summary raises
    SpecError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("spec"), dict):
        raise SpecError(f"{path} is not a sweep summary: no spec object")
    names = {f.name for f in fields(ExperimentSpec)}
    spec = ExperimentSpec(**{k: v for k, v in doc["spec"].items() if k in names})
    try:
        rows = [SweepRow(**r) for r in doc.get("rows")]
    except TypeError as exc:
        raise SpecError(f"{path} is not a sweep summary: {exc}") from exc
    return SweepResult(spec=spec, rows=rows)
