"""Command-line harness: sweeps, bound comparison, spectral certification,
single event simulations, and plot-data emission.

Exit codes: 0 success, 2 validation error, 3 bound violation, 4 trial failure(s).
"""

from __future__ import annotations

import argparse
import os
import sys

from .eventsim import run_simulation
from .experiments import (
    EXIT_BOUND_VIOLATION,
    EXIT_OK,
    EXIT_TRIAL_FAILURE,
    EXIT_VALIDATION,
    SpecError,
    _MULTI,
    _SINGLE,
    _sim_config,
    compare_bounds,
    emit_plotdata,
    load_summary,
    parse_spec,
    run_sweep,
    trace_to_csv,
    write_bounds_csv,
    write_simulation_json,
    write_spectra_csv,
    write_sweep_csv,
    certify_spectra,
)
from .problems import alpha_to_beta

# Each spec override's flag, and the config key, type and help it takes.
_OVERRIDES = {
    "seed": ("seed_base", int, "override seed_base"),
    "trials": ("trials", int, "override trial count"),
    "out": ("out", str, "override output directory"),
    "workers": ("workers", int, "worker pool size"),
}


def _load_spec(args):
    overrides = {key: value for flag, (key, _, _) in _OVERRIDES.items()
                 if (value := getattr(args, flag, None)) is not None}
    with open(args.config) as fh:
        spec = parse_spec(fh.read(), overrides)
    # what each command needs of the spec, checked before `out` is made
    if args.command == "bounds" and spec.mode not in _SINGLE:
        raise SpecError("bound comparison needs a single-channel mode")
    if args.command == "spectra" and spec.mode not in _MULTI:
        raise SpecError("spectra certification needs mode much or fast-much")
    if args.command == "simulate":
        if spec.mode != "event-sim":
            raise SpecError("simulate needs mode event-sim")
        grids = {"alpha": spec.alphas, "gamma": spec.gammas, "epsilon": spec.epsilons}
        for key, grid in grids.items():
            if len(grid) > 1:
                raise SpecError(f"simulate runs one point: {key} has {len(grid)} values")
    # made before the run, so an unusable `out` costs no work
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"out {spec.out_dir!r} is not a usable directory: {exc}") from exc
    return spec


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    result = run_sweep(spec)
    csv_path = os.path.join(spec.out_dir, "sweep.csv")
    write_sweep_csv(result, csv_path)
    emit_plotdata(result, spec.out_dir)
    print(f"wrote {csv_path} ({len(result.rows)} rows)")
    if result.failures:
        print(f"{result.failures} trial failure(s) recorded", file=sys.stderr)
        return EXIT_TRIAL_FAILURE
    return EXIT_OK


def _cmd_bounds(args) -> int:
    spec = _load_spec(args)
    rows = compare_bounds(spec)
    csv_path = os.path.join(spec.out_dir, "bounds.csv")
    write_bounds_csv(rows, csv_path)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    if any(r.violated for r in rows):
        print("bound violation detected (implementation bug)", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _cmd_spectra(args) -> int:
    spec = _load_spec(args)
    betas = tuple(map(alpha_to_beta, spec.alphas))
    rows = certify_spectra((spec.nodes_per_channel,), (spec.channels,), betas, spec.gammas)
    csv_path = os.path.join(spec.out_dir, "spectra.csv")
    write_spectra_csv(rows, csv_path)
    failed = [r for r in rows if not r.passed]
    print(f"wrote {csv_path} ({len(rows)} rows, {len(failed)} failed)")
    return EXIT_TRIAL_FAILURE if failed else EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    cfg = _sim_config(spec, spec.alphas[0], spec.gammas[0], spec.epsilons[0], spec.seed_base)
    result = run_simulation(cfg)
    trace_path = os.path.join(spec.out_dir, "trace.csv")
    trace_to_csv(result.trace, trace_path, cfg.channels)
    report_path = os.path.join(spec.out_dir, "simulation.json")
    write_simulation_json(result, cfg, report_path)
    print(f"wrote {trace_path} and {report_path}")
    return EXIT_OK if result.report.converged else EXIT_TRIAL_FAILURE


def _cmd_plotdata(args) -> int:
    result = load_summary(args.summary)
    out = args.out or result.spec.out_dir
    paths = emit_plotdata(result, out)
    print(f"wrote {len(paths)} file(s) under {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desynclab",
        description="Desynchronization lab: sweeps, bounds, spectra, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the overrides it reads
    for name, fn, flags in (
        ("sweep", _cmd_sweep, ("seed", "trials", "out", "workers")),
        ("bounds", _cmd_bounds, ("seed", "trials", "out")),
        ("spectra", _cmd_spectra, ("out",)),
        ("simulate", _cmd_simulate, ("seed", "out")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        for flag in flags:
            _, kind, text = _OVERRIDES[flag]
            p.add_argument(f"--{flag}", type=kind, help=text)
        p.set_defaults(fn=fn, parser=p)
    p = sub.add_parser("plotdata")
    p.add_argument("--summary", required=True, help="summary.json from a sweep")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_plotdata, parser=p)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # reported with the usage of the command that did not read them
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
