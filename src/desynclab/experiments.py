"""Experiment specs, trial sweeps, bound comparison, spectral certification,
and report emission.

Sweeps are fully reproducible: per-trial seeds are seed_base + trial index,
aggregation is order-independent, and output CSV/JSON schemas are fixed.
Default grids are echoed into all outputs so results are self-describing.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np
import yaml

from .bounds import desync_round_bound, fast_desync_round_bound
from .eventsim import SimConfig, run_simulation
from .problems import MultichannelProblem, SingleChannelProblem
from .rounds import default_max_rounds
from .spectral import spectral_report
from .trials import (
    initial_multichannel_batch,
    initial_phase_batch,
    run_desync_batch,
    run_fast_desync_batch,
    run_sync_desync_batch,
)

MODES = ("desync", "fast-desync", "much", "fast-much", "event-sim")

# Wide grid for the plain algorithms (stable on all of (0,1)).
DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))
# Paired Desync-vs-Fast comparisons stay inside the guarantee range of the
# accelerated bound (alpha <= 1/2); beyond ~2/3 the momentum iteration is
# linearly unstable for even n.
DEFAULT_ALPHAS_PAIRED = tuple(round(0.05 * i, 2) for i in range(1, 11))
DEFAULT_EPSILONS = (1e-3, 1e-4)
DEFAULT_GAMMAS = (0.6,)
DEFAULT_TRIALS = 400

SWEEP_CSV_HEADER = (
    "mode,n,channels,alpha,gamma,epsilon,trials,mean_rounds,max_rounds,"
    "std_rounds,bound_desync,bound_fast,speedup_pct"
)
BOUNDS_CSV_HEADER = (
    "n,alpha,epsilon,trials,max_rounds_desync,bound_desync,"
    "max_rounds_fast,bound_fast,violated"
)
SPECTRA_CSV_HEADER = (
    "n,channels,beta,gamma,spectral_radius_deflated,max_spectrum_mismatch,"
    "eigenvalue_one_multiplicity,passed"
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND_VIOLATION = 3
EXIT_TRIAL_FAILURE = 4


class SpecError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    n: int | None = None
    channels: int | None = None
    nodes_per_channel: int | None = None
    alphas: tuple[float, ...] = ()
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    trials: int = DEFAULT_TRIALS
    seed_base: int = 0
    out_dir: str = "results"
    max_rounds: int | None = None
    loss_probability: float = 0.0
    staleness_mode: str = "live"
    workers: int = 1

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("alphas", "gammas", "epsilons"):
            d[key] = list(d[key])
        return d


_SPEC_KEYS = {
    "mode", "n", "channels", "nodes_per_channel", "alpha", "gamma", "epsilon",
    "trials", "seed_base", "out", "max_rounds", "loss_probability",
    "staleness_mode", "workers",
}


def _as_grid(value, name: str) -> tuple[float, ...]:
    if value is None:
        return ()
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(f"{name} must be a nonempty list of numbers")
    return tuple(float(v) for v in value)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate a YAML experiment config; defaults are applied so
    the returned spec is fully explicit. Unknown keys are rejected."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"malformed config: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SpecError("config must be a mapping")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    mode = raw.get("mode")
    if mode not in MODES:
        raise SpecError(f"mode must be one of {MODES}, got {mode!r}")

    paired = mode in ("fast-desync", "fast-much")
    alphas = _as_grid(raw.get("alpha"), "alpha") or (
        DEFAULT_ALPHAS_PAIRED if paired else DEFAULT_ALPHAS
    )
    gammas = _as_grid(raw.get("gamma"), "gamma") or DEFAULT_GAMMAS
    epsilons = _as_grid(raw.get("epsilon"), "epsilon") or DEFAULT_EPSILONS

    for a in alphas:
        if not 0.0 < a < 1.0:
            raise SpecError(f"alpha out of (0,1): {a}")
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise SpecError(f"gamma out of (0,1): {g}")
    for e in epsilons:
        if e <= 0.0:
            raise SpecError(f"epsilon must be > 0: {e}")

    n = raw.get("n")
    channels = raw.get("channels")
    npc = raw.get("nodes_per_channel")
    if mode in ("desync", "fast-desync"):
        if n is None or int(n) < 2:
            raise SpecError(f"mode {mode} needs n >= 2")
        n = int(n)
    elif mode in ("much", "fast-much"):
        if channels is None or npc is None:
            raise SpecError(f"mode {mode} needs channels and nodes_per_channel")
        channels, npc = int(channels), int(npc)
        if channels < 2 or npc < 2:
            raise SpecError("need channels >= 2 and nodes_per_channel >= 2")
        for a in alphas:
            if not 0.0 < a / 2.0 < 0.5:
                raise SpecError(f"beta = alpha/2 out of (0, 1/2): alpha={a}")
    else:  # event-sim
        if n is None or int(n) < 1:
            raise SpecError("mode event-sim needs n >= 1")
        n = int(n)
        channels = int(channels) if channels is not None else 1

    trials = int(raw.get("trials", DEFAULT_TRIALS))
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    seed_base = int(raw.get("seed_base", 0))
    if seed_base < 0 or seed_base + trials > 2**64:
        raise SpecError(
            f"seed_base must be >= 0 with seed_base + trials <= 2**64, got {seed_base}"
        )
    workers = int(raw.get("workers", 1))
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    loss = float(raw.get("loss_probability", 0.0))
    if not 0.0 <= loss < 1.0:
        raise SpecError(f"loss_probability out of [0,1): {loss}")
    staleness = raw.get("staleness_mode", "live")
    if staleness not in ("live", "assumption1"):
        raise SpecError(f"unknown staleness_mode: {staleness!r}")
    max_rounds = raw.get("max_rounds")
    if max_rounds is not None:
        max_rounds = int(max_rounds)
        if max_rounds < 1:
            raise SpecError("max_rounds must be >= 1")

    return ExperimentSpec(
        mode=mode,
        n=n,
        channels=channels,
        nodes_per_channel=npc,
        alphas=alphas,
        gammas=gammas,
        epsilons=epsilons,
        trials=trials,
        seed_base=seed_base,
        out_dir=str(raw.get("out", "results")),
        max_rounds=max_rounds,
        loss_probability=loss,
        staleness_mode=staleness,
        workers=workers,
    )


def serialize_spec(spec: ExperimentSpec) -> str:
    doc = {
        "mode": spec.mode,
        "alpha": list(spec.alphas),
        "gamma": list(spec.gammas),
        "epsilon": list(spec.epsilons),
        "trials": spec.trials,
        "seed_base": spec.seed_base,
        "out": spec.out_dir,
        "loss_probability": spec.loss_probability,
        "staleness_mode": spec.staleness_mode,
        "workers": spec.workers,
    }
    if spec.n is not None:
        doc["n"] = spec.n
    if spec.channels is not None:
        doc["channels"] = spec.channels
    if spec.nodes_per_channel is not None:
        doc["nodes_per_channel"] = spec.nodes_per_channel
    if spec.max_rounds is not None:
        doc["max_rounds"] = spec.max_rounds
    return yaml.safe_dump(doc, sort_keys=True)


@dataclass
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


def _stats(rounds: np.ndarray) -> tuple[float, int, float]:
    return float(rounds.mean()), int(rounds.max()), float(rounds.std())


def _paired_rows(spec, modes, plain, fast, **point) -> list[SweepRow]:
    """The plain and accelerated rows of one grid point, both carrying the
    accelerated variant's speed-up over the plain mean rounds."""
    mean_p = plain.rounds.mean()
    mean_f = fast.rounds.mean()
    speedup = 100.0 * (mean_p - mean_f) / mean_p if mean_p > 0 else 0.0
    rows = []
    for mode, res in zip(modes, (plain, fast)):
        mean, mx, std = _stats(res.rounds)
        rows.append(
            SweepRow(
                mode=mode, trials=spec.trials, mean_rounds=mean, max_rounds=mx,
                std_rounds=std, speedup_pct=speedup,
                failures=int((~res.converged).sum()), **point,
            )
        )
    return rows


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
        spec, ("desync", "fast-desync"), plain, fast,
        n=n, channels=1, alpha=alpha, gamma=float("nan"), epsilon=epsilon,
        bound_desync=desync_round_bound(problem), bound_fast=bound_f,
    )


def _multichannel_point(args) -> list[SweepRow]:
    spec, phi0, alpha, gamma, epsilon = args
    C, n = spec.channels, spec.nodes_per_channel
    beta = alpha / 2.0
    cap = spec.max_rounds or default_max_rounds(C * n, alpha, epsilon)
    plain = run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=False)
    fast = run_sync_desync_batch(phi0, beta, gamma, epsilon, cap, fast=True)
    return _paired_rows(
        spec, ("much", "fast-much"), plain, fast,
        n=n, channels=C, alpha=alpha, gamma=gamma, epsilon=epsilon,
        bound_desync=float("nan"), bound_fast=float("nan"),
    )


def _eventsim_point(args) -> list[SweepRow]:
    spec, alpha, gamma, epsilon = args
    rounds = np.zeros(spec.trials, dtype=np.int64)
    failures = 0
    for t in range(spec.trials):
        cfg = SimConfig(
            n=spec.n,
            channels=spec.channels or 1,
            alpha=alpha,
            gamma=gamma,
            epsilon=epsilon,
            loss_probability=spec.loss_probability,
            staleness_mode=spec.staleness_mode,
            rng_seed=spec.seed_base + t,
            max_rounds=spec.max_rounds,
        )
        result = run_simulation(cfg)
        rounds[t] = result.report.rounds
        if not result.report.converged:
            failures += 1
    mean, mx, std = _stats(rounds)
    return [
        SweepRow(
            mode="event-sim", n=spec.n, channels=spec.channels or 1, alpha=alpha,
            gamma=gamma, epsilon=epsilon, trials=spec.trials, mean_rounds=mean,
            max_rounds=mx, std_rounds=std, bound_desync=float("nan"),
            bound_fast=float("nan"), speedup_pct=float("nan"), failures=failures,
        )
    ]


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Run every grid point of the spec. Single-channel modes always run the
    plain and accelerated variants on identical per-trial starts, so the
    speed-up statistic is defined; the mode only selects the default grid.
    The start batch is sampled once and shared by every grid point."""
    if spec.mode in ("desync", "fast-desync"):
        phi0 = initial_phase_batch(spec.n, spec.trials, spec.seed_base)
        points = [(spec, phi0, a, e) for a in spec.alphas for e in spec.epsilons]
        worker = _single_channel_point
    elif spec.mode in ("much", "fast-much"):
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
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunks = list(pool.map(worker, points))
    else:
        chunks = [worker(p) for p in points]
    rows = [row for chunk in chunks for row in chunk]
    return SweepResult(spec=spec, rows=rows)


@dataclass
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
    off the sweep's paired rows. A violated row indicates an implementation
    bug (hard failure upstream)."""
    if spec.mode not in ("desync", "fast-desync"):
        raise SpecError("bound comparison needs a single-channel mode")
    rows = run_sweep(spec).rows
    return [
        BoundsRow(
            n=d.n, alpha=d.alpha, epsilon=d.epsilon, trials=d.trials,
            max_rounds_desync=d.max_rounds, bound_desync=d.bound_desync,
            max_rounds_fast=f.max_rounds, bound_fast=f.bound_fast,
            violated=(d.max_rounds > d.bound_desync) or (f.max_rounds > f.bound_fast),
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


def certify_spectra(ns, cs, betas, gammas) -> list[SpectraRow]:
    """Closed-form deflated spectral radius and eigenvalue-1 multiplicity
    over a parameter grid; out-of-range parameters are rejected outright."""
    for b in betas:
        if not 0.0 < b < 0.5:
            raise SpecError(f"beta out of (0, 1/2): {b}")
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise SpecError(f"gamma out of (0, 1): {g}")
    rows = []
    for n in ns:
        for C in cs:
            for b in betas:
                for g in gammas:
                    rep = spectral_report(MultichannelProblem.uniform(C, n, b, g))
                    rows.append(
                        SpectraRow(
                            n=n, channels=C, beta=b, gamma=g,
                            spectral_radius_deflated=rep.spectral_radius_deflated,
                            eigenvalue_one_multiplicity=rep.eigenvalue_one_multiplicity,
                            passed=rep.converges and rep.eigenvalue_one_multiplicity == 1,
                        )
                    )
    return rows


# ---------------- output emission ----------------

def _fmt(x) -> str:
    # float() drops numpy's scalar type, whose repr is "np.float64(...)"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path, header: str, rows):
    """The header line, then one comma-joined line of fields per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_sweep_csv(result: SweepResult, path):
    _write_csv(path, SWEEP_CSV_HEADER, (
        (r.mode, r.n, r.channels, r.alpha, r.gamma, r.epsilon, r.trials,
         r.mean_rounds, r.max_rounds, r.std_rounds, r.bound_desync,
         r.bound_fast, r.speedup_pct)
        for r in result.rows
    ))


def write_bounds_csv(rows, path):
    _write_csv(path, BOUNDS_CSV_HEADER, (
        (r.n, r.alpha, r.epsilon, r.trials, r.max_rounds_desync, r.bound_desync,
         r.max_rounds_fast, r.bound_fast, int(r.violated))
        for r in rows
    ))


def write_spectra_csv(rows, path):
    _write_csv(path, SPECTRA_CSV_HEADER, (
        # No numeric spectrum is computed, so the mismatch column reads nan
        # ("does not apply").
        (r.n, r.channels, r.beta, r.gamma, r.spectral_radius_deflated,
         float("nan"), r.eigenvalue_one_multiplicity, int(r.passed))
        for r in rows
    ))


def emit_plotdata(result: SweepResult, out_dir):
    """Gnuplot-style series files (one per mode/n/channels/epsilon) plus a
    JSON summary that round-trips back into the sweep statistics."""
    os.makedirs(out_dir, exist_ok=True)
    groups: dict = {}
    for r in result.rows:
        groups.setdefault((r.mode, r.n, r.channels, r.epsilon), []).append(r)
    paths = []
    for (mode, n, channels, epsilon), rows in sorted(groups.items()):
        fname = f"{mode}_n{n}_c{channels}_eps{epsilon:g}.dat"
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write("# alpha mean_rounds max_rounds std_rounds speedup_pct\n")
            for r in sorted(rows, key=lambda x: (x.alpha, x.gamma)):
                fh.write(
                    f"{_fmt(r.alpha)} {_fmt(r.mean_rounds)} {_fmt(float(r.max_rounds))} "
                    f"{_fmt(r.std_rounds)} {_fmt(r.speedup_pct)}\n"
                )
        paths.append(path)
    summary = {
        "spec": result.spec.to_dict(),
        "rows": [asdict(r) for r in result.rows],
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    paths.append(summary_path)
    return paths


def load_summary(path) -> SweepResult:
    with open(path) as fh:
        doc = json.load(fh)
    # keys missing from older summaries take the dataclass defaults;
    # unknown keys are ignored
    names = {f.name for f in fields(ExperimentSpec)}
    spec = ExperimentSpec(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc["spec"].items() if k in names
    })
    rows = [SweepRow(**r) for r in doc["rows"]]
    return SweepResult(spec=spec, rows=rows)
