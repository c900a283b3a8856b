"""Record a baseline: repeated runs of every workload, summarised per metric.

Usage:
    python3 perfbench/record.py --label NAME --out perfbench/results/BENCH_NAME.json
        [--seeds 1-10]

For each workload of BENCHMARK.json it runs `run.py --trace 0` once per
seed and reports, per end-to-end metric, the median, the quartiles
(`statistics.quantiles`, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  It then makes
two traced runs with seed `TRACE_SEED` and records the per-layer
metrics, flagging any count that differs between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "label": args.label,
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            header, res = run(workload, seed, bench["run_seconds"], 0)
            runs.append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} {values}", flush=True)
        doc["machine"] = header[header.index("python="):]
        e2e = {}
        for name, bound in bounds.items():
            e2e[name] = summarise([r["metrics"][name]["value"] for r in runs], bound)
            e2e[name]["unit"] = runs[0]["metrics"][name]["unit"]
            flag = "ok" if e2e[name]["spread"] < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median {e2e[name]['median']:.4g} "
                  f"spread {e2e[name]['spread']:.3f} (bound {bound}) {flag}", flush=True)
        traced = [run(workload, TRACE_SEED, bench["run_seconds"], 1)[1] for _ in range(2)]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        differing = [
            k for k, v in traced[0]["metrics"].items()
            if v["unit"] == "count" and v["value"] != traced[1]["metrics"][k]["value"]
        ]
        print(f"  {workload} traced counts identical across two runs: {not differing}", flush=True)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {
                "seed": TRACE_SEED,
                "metrics": layers,
                "counts_differing": differing,
            },
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
