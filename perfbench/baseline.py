#!/usr/bin/env python3
"""Run workloads on several seeds untraced and once traced, print each
end-to-end metric's median with its unit and the check results, and record
medians, quartiles, spreads (quartile distance over median) and the traced
per-layer values in a JSON file (entries of other workloads are kept).

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1,2,...] [--out FILE]

Run from the root of a source checkout. By default all four workloads run
on ten seeds each, with BENCHMARK.json's run length: about 45 minutes on two
cores. `--seeds 1` runs each workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail_path = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["env"] = json.loads(detail_path.read_text())["env"]
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    doc["run_seconds"] = seconds
    for w in args.workloads.split(","):
        runs = [run(w, seed, seconds, 0) for seed in seeds]
        traced = run(w, seeds[0], seconds, 1)
        doc["env"] = {k: v for k, v in runs[0]["env"].items() if k not in ("seed", "workload", "trace")}
        doc["workloads"][w] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        result = doc["workloads"][w]
        attempted, failed = sum(result["attempted"]), sum(result["failed"])
        print(f"{w}: checks {'passed' if result['correct'] else 'FAILED'}, ops attempted "
              f"{attempted}, failed {failed}, ops_failed_frac {failed / attempted:.4g}")
        for m in spec["end_to_end"]:
            s = result["end_to_end"][m["name"]]
            print(f"  {m['name']:12s} median {s['median']:.4g} {m['unit']:3s} "
                  f"spread {s['spread']:.3f} (bound {m['bound']})")
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
