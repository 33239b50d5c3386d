#!/usr/bin/env python3
"""desynclab benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. A run repeats study passes (see workloads.py) on inputs derived from
the seed until `--seconds` are used up, checks every output, prints each
metric with its unit and ends with one JSON line:

    {"correct": ..., "attempted": ops, "failed": ops, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run. End-to-end times other than setup_s are in seconds at
reference speed (see reference.py). Details of each run (environment, checks, per-pass times,
spans) go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SIZES_N = (64, 128, 256, 512, 1024)
# Self-time layers; with trace.uncovered_s they add up to trace.study_s.
SELF_TIMES = {
    "trials.init_s": "trials.init",
    "trials.kernel_s": "trials.kernel",
    "trials.objective_s": "trials.objective",
    "experiments.write_s": "experiments.write",
    "spectral.build_s": "spectral.build",
    "spectral.match_s": "spectral.match",
    "spectral.dense_s": "spectral.report",
    "eventsim.init_s": "eventsim.init",
    "eventsim.round_s": "eventsim.run",
    "eventsim.step_s": "eventsim.step",
    "eventsim.advance_s": "eventsim.advance",
    "eventsim.objective_s": "eventsim.objective",
}
POINT_SPANS = ("experiments.run_sweep", "experiments.compare_bounds", "experiments.certify_spectra")
WORKLOADS = ("sweep-single", "sweep-multi", "sim-scale", "sim-hidden")
SETUP_PROBES = 7
REF_EVERY_S = 0.25
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least 10 of a pass's ops beyond it;
    100 (the max) when a pass has fewer than 20 ops."""
    if ops_per_pass < 20:
        return 100.0
    return next(p for p in TAIL_LADDER if ops_per_pass * (100.0 - p) / 100.0 >= 10.0)


def setup(args):
    """Imports, pass-0 inputs and the warm-up eigensolve: everything before
    the first timed call."""
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import desynclab
    if Path(desynclab.__file__).resolve().parent != SRC / "desynclab":
        raise ImportError(f"desynclab imported from {desynclab.__file__}, not {SRC}")
    import reference
    import workloads
    workload = workloads.WORKLOADS[args.workload](workloads.SMOKE if args.smoke else workloads.FULL)
    ops0 = workload.ops(args.seed, 0)
    workloads.warm_up()
    reference.reference()
    return workload, ops0


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: start to the first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would quantise the probe; a timer kills a hung child.
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        killer = threading.Timer(120, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


@dataclass
class Pass:
    k: int
    ops: list
    seconds: float = 0.0            # timed calls only
    write_errors: list = field(default_factory=list)
    fp_warnings: int = 0
    bad_fields: int = 0
    bytes_written: int = 0
    violations_outside: int = 0     # bounds rows violated at alpha > 1/2
    fire_leads: int = 0             # simulations with a node > 1 fire ahead
    refs: list = field(default_factory=list)  # reference-kernel times in the gaps


def run_pass(workload, seed, k, ops, out_dir, caught, tracer=None, calibrate=False) -> Pass:
    """Run one study pass: every op in order, then the writers. Only the
    calls are timed; checks and the output audit follow untimed. With
    `calibrate`, the reference kernel runs in the gaps between ops, at most
    once every REF_EVERY_S, and at the start and end of the pass."""
    import checks
    from reference import reference
    span = tracer.span if tracer else (lambda name: nullcontext())
    clock = time.perf_counter
    rec = Pass(k, ops)
    last_ref = -math.inf

    def gap(force=False):
        nonlocal last_ref
        if calibrate and (force or clock() - last_ref >= REF_EVERY_S):
            rec.refs.append(reference())
            last_ref = clock()

    del caught[:]
    for op in ops:
        gap()
        t0 = clock()
        try:
            with span(f"op.{op.kind}"):
                op.value = op.call()
        except Exception:
            op.error = traceback.format_exc(limit=4)
        op.seconds = clock() - t0
        rec.seconds += op.seconds
    gap(force=True)
    os.makedirs(out_dir, exist_ok=True)
    for name, write in workload.writers(seed, k, ops, out_dir):
        t0 = clock()
        try:
            with span("experiments.write"):
                write()
        except Exception:
            rec.write_errors.append(f"{name}: {traceback.format_exc(limit=4)}")
        rec.seconds += clock() - t0
    rec.fp_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    check_pass(workload, rec)
    rec.bad_fields, rec.bytes_written = checks.audit_outputs(out_dir)
    shutil.rmtree(out_dir)
    return rec


def check_pass(workload, rec: Pass) -> None:
    import checks
    from desynclab.bounds import FAST_GUARANTEE_ALPHA_MAX
    sweeps = {}
    for op in rec.ops:
        if op.error is not None:
            continue
        if op.kind == "sweep":
            sweeps[op.arg] = op
            op.failed_checks += checks.sweep_rows(op)
        elif op.kind == "bounds":
            sweep = sweeps.get(op.arg)
            if sweep is None:
                op.failed_checks.append("no sweep result at this point")
                continue
            op.failed_checks += checks.bounds_rows(op, sweep)
            rec.violations_outside += sum(
                b.violated and b.alpha > FAST_GUARANTEE_ALPHA_MAX for b in op.value
            )
        elif op.kind == "cert":
            op.failed_checks += checks.certificate(op)
        elif op.kind == "sim":
            connected = op.arg.adjacency is None
            op.failed_checks += checks.simulation(
                op, must_settle=workload.connected_runs_settle and connected,
                exact_rounds=workload.exact_rounds,
            )
            rec.fire_leads += checks.fire_lead(op) > 1


def run_level_checks(workload, seed, first: Pass) -> list[str]:
    """Checks too costly for every pass, made once on pass 0: a seeded sweep
    point recomputed trial by trial with the round engine, or one
    simulation re-run for a bit-identical trace."""
    import numpy as np

    import checks
    import workloads
    rng = np.random.default_rng(seed)
    sweeps = [op for op in first.ops if op.kind == "sweep" and not op.failed
              and not any(r.failures for r in op.value.rows)]
    if sweeps:
        op = sweeps[int(rng.integers(len(sweeps)))]
        errs = checks.recompute_sweep_op(op, workload.recompute_trials)
        op.failed_checks += errs
        return errs
    sims = [op for op in first.ops if op.kind == "sim" and not op.failed]
    if sims:
        op = sims[0]
        _, again = workloads.simulate(op.arg)
        if not checks.same_trace(op.value[1], again):
            op.failed_checks.append("re-run gave a different trace")
            return op.failed_checks[-1:]
    return []


def py_peak_mb(ops, kind, size) -> float:
    """tracemalloc peak of the largest op of a kind from pass 0, re-run
    untraced; 0 when the workload has no such op."""
    candidates = [op for op in ops if op.kind == kind]
    if not candidates:
        return 0.0
    op = max(candidates, key=size)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op.call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def study_times(passes, tail: float, scale: float = 1.0) -> dict:
    """study_s, op_p50_s and op_tail_s over a run's passes, in wall seconds
    times `scale`. Every pass runs the same ops on fresh inputs; an op's
    latency is its median over the passes, and the percentiles are taken
    over the ops."""
    import numpy as np
    per_op = np.median([[op.seconds for op in p.ops] for p in passes], axis=0) * scale
    return {
        "study_s": statistics.median(p.seconds for p in passes) * scale,
        "op_p50_s": float(np.median(per_op)),
        "op_tail_s": float(per_op.max() if tail == 100.0 else np.percentile(per_op, tail)),
    }


def layer_metrics(tracer, passes, untraced: Pass, ops0) -> dict:
    P = len(passes)
    per_pass = lambda x: x / P  # noqa: E731
    c, self_s = tracer.counts, tracer.self_s
    m = {name: per_pass(self_s[span]) for name, span in SELF_TIMES.items()}
    m["experiments.point_s"] = per_pass(sum(self_s[s] for s in POINT_SPANS))
    study = per_pass(sum(p.seconds for p in passes))
    m["trace.study_s"] = study
    m["trace.untraced_study_s"] = untraced.seconds
    m["trace.overhead_s"] = passes[0].seconds - untraced.seconds
    m["trace.uncovered_s"] = study - sum(m[k] for k in SELF_TIMES) - m["experiments.point_s"]

    for key in ("trials.iterations", "trials.updates_computed", "trials.updates_useful",
                "trials.aborted", "trials.capped", "trials.unstable_s",
                "eventsim.rounds", "eventsim.deliveries", "eventsim.drops_hidden",
                "eventsim.drops_loss", "eventsim.settled", "eventsim.unsettled"):
        m[key] = per_pass(c[key])
    useful = c["trials.updates_useful"]
    m["trials.useful_frac"] = useful / c["trials.updates_computed"] if useful else 0.0
    kernel_work = self_s["trials.kernel"] + self_s["trials.objective"]
    m["trials.ns_per_useful_update"] = kernel_work * 1e9 / useful if useful else 0.0

    m["experiments.bytes_written"] = per_pass(sum(p.bytes_written for p in passes))
    m["experiments.csv_bad_fields"] = per_pass(sum(p.bad_fields for p in passes))
    m["experiments.fp_warnings"] = per_pass(sum(p.fp_warnings for p in passes))
    m["bounds.s"] = per_pass(tracer.total_s["experiments.compare_bounds"])
    m["bounds.violations_outside_guarantee"] = per_pass(sum(p.violations_outside for p in passes))
    m["eventsim.fire_lead_gt1"] = per_pass(sum(p.fire_leads for p in passes))

    m["spectral.reports"] = per_pass(c["spectral.reports"])
    for n in SIZES_N:
        count = c[f"spectral.reports.N{n}"]
        m[f"spectral.report_s.N{n}"] = c[f"spectral.report_s.N{n}"] / count if count else 0.0
    fires = c["eventsim.fires"]
    m["eventsim.fires"] = per_pass(fires)
    m["eventsim.us_per_fire"] = c["eventsim.run_s"] * 1e6 / fires if fires else 0.0
    for n in SIZES_N:
        f = c[f"eventsim.fires.n{n}"]
        m[f"eventsim.us_per_fire.n{n}"] = c[f"eventsim.run_s.n{n}"] * 1e6 / f if f else 0.0

    m["spectral.py_peak_mb"] = py_peak_mb(ops0, "cert", lambda op: op.arg[0] * op.arg[1])
    m["eventsim.py_peak_mb"] = py_peak_mb(ops0, "sim", lambda op: op.arg.n)
    return m


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def git_rev() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    # One caller, one BLAS thread: set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "desynclab" / "__init__.py").is_file():
        print(f"error: no desynclab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args)
        sys.stdout.flush()
        os._exit(0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    setup_times = [] if args.trace else probe_setup(args)
    workload, ops0 = setup(args)
    import tracing
    out_dir = OUT / "out" / f"{args.workload}-{os.getpid()}"
    passes: list[Pass] = []
    tracer = untraced = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = time.perf_counter()
        if args.trace:
            untraced = run_pass(workload, args.seed, 0, ops0, out_dir, caught)
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            ops0 = workload.ops(args.seed, 0)
        k = 0
        while True:
            ops = ops0 if k == 0 else workload.ops(args.seed, k)
            passes.append(run_pass(workload, args.seed, k, ops, out_dir, caught, tracer,
                                  calibrate=tracer is None))
            if k:
                for op in ops:      # only pass 0 is kept, for the run-level checks
                    op.value = None
            k += 1
            pass_wall = (time.perf_counter() - start) / (k + (untraced is not None))
            if time.perf_counter() - start + pass_wall > args.seconds:
                break
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_errors = run_level_checks(workload, args.seed, passes[0])

    checked = passes + ([untraced] if untraced else [])
    all_ops = [op for p in checked for op in p.ops]
    failed_ops = [op for op in all_ops if op.failed]
    write_errors = [e for p in checked for e in p.write_errors]
    correct = not failed_ops and not write_errors
    tail = tail_percentile(len(ops0))
    raw, refs = {}, [r for p in passes for r in p.refs]
    if tracer:
        metrics = layer_metrics(tracer, passes, untraced, passes[0].ops)
    else:
        # Seconds at reference speed: the run's wall times, scaled by how
        # much slower or faster than REF_S the reference kernel ran meanwhile.
        # The host switches between a fast and a slow state every few
        # seconds, so the mean, not the median, tracks its average speed.
        from reference import REF_S
        raw = study_times(passes, tail)
        metrics = {
            "setup_s": statistics.median(setup_times),
            **study_times(passes, tail, REF_S / statistics.fmean(refs)),
            "peak_rss_mb": peak_rss_mb,
        }

    env = environment(args)
    detail = {
        "env": env,
        "passes": [{"k": p.k, "study_s": p.seconds, "ops": len(p.ops),
                    "op_s": [op.seconds for op in p.ops],
                    "fp_warnings": p.fp_warnings, "csv_bad_fields": p.bad_fields,
                    "violations_outside_guarantee": p.violations_outside,
                    "fire_lead_gt1": p.fire_leads} for p in passes],
        "ops_attempted": len(all_ops),
        "ops_failed": len(failed_ops),
        "ops_failed_frac": len(failed_ops) / len(all_ops),
        "op_tail_percentile": tail,
        "setup_samples_s": setup_times,
        "failures": [
            {"kind": op.kind, "arg": repr(op.arg)[:200], "error": op.error,
             "checks": op.failed_checks} for op in failed_ops
        ] + [{"write_error": e} for e in write_errors],
        "run_level_checks": run_errors,
        "metrics": metrics,
        "wall_metrics": raw,
        "reference_s": refs,
    }
    if tracer:
        detail["spans"] = tracer.dump(start)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(ops0)} ops, one caller, closed loop")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops attempted {len(all_ops)} failed {len(failed_ops)} "
          f"ops_failed_frac {len(failed_ops) / len(all_ops):.4g}; op_tail_s is "
          + ("the max" if tail == 100.0 else f"p{tail:g}")
          + f" of {len(ops0)} op latencies, each the median of {len(passes)} passes")
    print(f"# checks {'passed' if correct else 'FAILED'}; fp_warnings "
          f"{sum(p.fp_warnings for p in passes)}, csv_bad_fields "
          f"{sum(p.bad_fields for p in passes)}, bounds violations outside guarantee "
          f"{sum(p.violations_outside for p in passes)}, simulations with a node more than "
          f"one fire ahead {sum(p.fire_leads for p in passes)}; "
          f"details in {result_path.relative_to(ROOT)}")
    if raw:
        print("# wall seconds, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"; reference kernel mean {statistics.fmean(refs) * 1e3:.1f} ms over "
              f"{len(refs)} calls, scaled to {REF_S * 1e3:g} ms")
    for op in failed_ops[:5]:
        print(f"# failed {op.kind} {op.arg!r:.120}: {(op.error or '').strip()[-200:]} "
              f"{op.failed_checks[:2]}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
