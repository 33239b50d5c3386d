#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised in one file.

    python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --pr N --seeds 81-90 [--workloads sweep-single,sim-scale] [--seconds 50]

Each pair runs the benchmark command of `BENCHMARK.json` (`perfbench/run.py
--workload W --seed S --seconds T --trace 0`) once in each checkout, each
with its own unchanged benchmark files. The parent runs first in the first
pair of every workload, and the order alternates from pair to pair.
Workloads and run length default to those `BENCHMARK.json` declares.

The output, `BENCH_<pr>.json`, holds the environment stamp: per side, the
git revision and the hash of its `src/` tree, and the interpreter, library
versions, BLAS threads and processors that the side's first run recorded in
its result file. Per workload and end-to-end metric it holds the parent's
and the change's quartiles, the change of the median in percent, the number
of pairs in which the change read lower and whether the medians differ by
more than the parent's interquartile range, and each side's median minor
page faults and CPU seconds per run. Those two are read from
`getrusage(RUSAGE_CHILDREN)` before and after each run's subprocess, so
they cover the benchmark process and anything it waits for. Last come the
raw runs. The file is rewritten after every run, so an interrupted script
leaves the pairs it finished.

Both sides import from one bytecode cache that the script makes for its
own runs (PYTHONPYCACHEPREFIX in a temporary directory, with bytecode
writing on), so each side compiles its sources in its first run only. A
`__pycache__` left in one checkout, with PYTHONDONTWRITEBYTECODE set in
the caller's environment, would otherwise let that side read bytecode
while the other compiles in every process, `setup_s`'s probes included.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# The fields of a run's recorded environment that describe the machine and
# the code, not the run's arguments.
STAMP = ("python", "numpy", "scipy", "blas_threads", "nproc", "git_rev")


def parse_seeds(text: str) -> list[int]:
    """"81-90" or "81,83,85"."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(checkout: Path) -> dict:
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    return {"rev": git(checkout, "rev-parse", "HEAD"),
            "src_tree": git(checkout, "rev-parse", "HEAD:src"),
            "dirty": dirty}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run: its end-to-end metrics, correctness, op counts,
    floating-point warnings, minor page faults, CPU seconds and recorded
    environment."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (checkout / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "fp_warnings": sum(p["fp_warnings"] for p in detail["passes"]),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "cpu_s": round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 3),
        "env": {key: detail["env"][key] for key in STAMP},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarise(runs: dict, better: dict) -> dict:
    """Per-metric comparison of the pairs both sides have finished."""
    seeds = [s for s in runs["parent"] if s in runs["change"]]
    if not seeds:
        return {}
    parent = [runs["parent"][s] for s in seeds]
    change = [runs["change"][s] for s in seeds]
    metrics = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        sign = 1 if better.get(name, "lower") == "lower" else -1
        metrics[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "delta_median_pct": round(100.0 * (cq[1] - pq[1]) / pq[1], 1),
            "change_lower_in_pairs": f"{sum(b < a for a, b in zip(p, c))}/{len(seeds)}",
            "change_better_by_more_than_parent_iqr": sign * (pq[1] - cq[1]) > pq[2] - pq[0],
        }
    both = parent + change
    return {
        "pairs": len(seeds),
        "metrics": metrics,
        "all_correct_zero_failed_ops": all(r["correct"] and r["failed"] == 0 for r in both),
        "fp_warnings_per_run": {
            side: sorted({r["fp_warnings"] for r in rs})
            for side, rs in (("parent", parent), ("change", change))
        },
        "ops_attempted_median": {
            side: statistics.median(r["attempted"] for r in rs)
            for side, rs in (("parent", parent), ("change", change))
        },
        "rusage_median": {
            side: {key: statistics.median(r[key] for r in rs) for key in ("minor_faults", "cpu_s")}
            for side, rs in (("parent", parent), ("change", change))
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--seeds", type=parse_seeds, required=True, help='"81-90" or "81,83"')
    p.add_argument("--workloads", help="comma-separated; default: those BENCHMARK.json gates")
    p.add_argument("--seconds", type=float, help="run length; default: BENCHMARK.json's")
    p.add_argument("--what", default="", help="one line on what the change does")
    p.add_argument("--out", type=Path, help="default: BENCH_<pr>.json here")
    args = p.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    seconds = args.seconds or bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = args.out or Path(f"BENCH_{args.pr}.json")

    doc = {
        "what": args.what,
        "command": " ".join(bench["command"])
        + f" --workload <name> --seed <seed> --seconds {seconds:g} --trace 0",
        "pairs": f"{len(args.seeds)} per workload, seeds {args.seeds[0]}-{args.seeds[-1]}, "
                 "parent first in the first pair and the order alternating",
        "environment": {"parent": revision(parent), "change": revision(change)},
        "summary": {},
        "runs": {},
    }
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        for workload in workloads:
            runs = doc["runs"][workload] = {"parent": {}, "change": {}}
            for i, seed in enumerate(args.seeds):
                order = (("parent", parent), ("change", change))
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    run = runs[side][seed] = run_once(checkout, workload, seed, seconds, env)
                    doc["environment"][side].setdefault("run", run.pop("env"))
                    doc["summary"][workload] = summarise(runs, better)
                    out.write_text(json.dumps(doc, indent=1) + "\n")
                study = {s: runs[s][seed]["metrics"].get("study_s") for s in runs}
                print(f"{workload} seed {seed}: study_s parent {study['parent']:.4g} "
                      f"change {study['change']:.4g}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
