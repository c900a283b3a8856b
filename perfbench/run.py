"""Cold-process verification benchmark for theta2.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh Python process (`child.py`) that imports the
checked-out `src/theta2`, builds the workload's inputs from the seed and
drives the public library functions, because every enumerator in the
library is a process-global `lru_cache` that a warm loop would hide.
Samples run one at a time; a new one starts only while it is expected to
finish within `--seconds` (there is always at least one).  A few extra
processes only set up, so `setup_s` is a median even when one sample fills
the run.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
it runs one untraced and one traced sample of the same seed and prints
the per-layer metrics listed in BENCHMARK.json, with their units from
there, and writes the spans and counters to `perfbench/out/`.  The last
line of standard output is one JSON object: `{"correct", "attempted",
"failed", "metrics"}`.

Every sample must end within `--seconds` plus `DEADLINE_MARGIN_S` of the
start, which leaves room for the last sample and for the traced pair.

Exit status: 0 when a result was printed (`correct` carries the
verdict), 1 when a sample could not run, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("claims_grid", "replay_all", "interval_equiv", "lift_fill")
SETUP_PROBES = 11
DEADLINE_MARGIN_S = 140.0


class SampleError(RuntimeError):
    pass


def child_env(seed):
    """The caller's environment with only the checked-out source on the path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "THETA2_REPORT_DIR")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(spec, env, deadline):
    """Run one child; returns (spawn time, exit time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SampleError(f"{spec['mode']} sample did not finish before the deadline")
    t_exit = time.perf_counter()
    if proc.returncode != 0:
        raise SampleError(f"{spec['mode']} sample exited with {proc.returncode}:\n{err.strip()}")
    return t_spawn, t_exit, json.loads(out.strip().splitlines()[-1])


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def quantile(values, q):
    """Inclusive quantile (q in 0..1) by linear interpolation."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(spec, env, seconds, deadline):
    """Set-up probes, then samples while the next one fits in `seconds`."""
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, _, res = spawn({**spec, "mode": "setup"}, env, deadline)
        setups.append(res["t_setup"] - t_spawn)
    samples, longest = [], 0.0
    while not samples or time.perf_counter() - start + longest <= seconds:
        t_spawn, t_exit, res = spawn({**spec, "mode": "run"}, env, deadline)
        res["setup_s"] = res["t_setup"] - t_spawn
        res["wall_s"] = res["t_done"] - t_spawn
        samples.append(res)
        setups.append(res["setup_s"])
        longest = max(longest, t_exit - t_spawn)
    return setups, samples


def end_to_end(setups, samples):
    """Metric name -> (value, unit, sample count)."""
    n = len(samples)
    items = sum(len(s["latencies_s"]) for s in samples)
    rate = [s["units"] / (s["wall_s"] - s["setup_s"]) for s in samples]

    def item_ms(q):
        # the quantile within each sample, then the median across samples
        return statistics.median(quantile(s["latencies_s"], q) for s in samples) * 1e3

    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s", n),
        "checks_per_s": (statistics.median(rate), "1/s", n),
        "item_p50_ms": (item_ms(0.5), "ms", items),
        "item_p90_ms": (item_ms(0.9), "ms", items),
        "peak_rss_mb": (statistics.median(s["peak_rss_kb"] for s in samples) / 1024, "MB", n),
    }


def per_layer():
    """The per-layer metrics as BENCHMARK.json declares them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "theta2" / "__init__.py").is_file():
        print(f"error: no theta2 sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    env = child_env(args.seed)
    spec = {"workload": args.workload, "seed": args.seed, "src": str(SRC)}
    info = machine()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={info['python']} nproc={info['nproc']} cpu={info['cpu']!r}")
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            t_spawn, _, base = spawn({**spec, "mode": "run"}, env, deadline)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            traced_spec = {**spec, "mode": "trace", "trace_path": str(trace_path)}
            t_spawn_traced, _, traced = spawn(traced_spec, env, deadline)
            values = dict(traced["layers"])
            values["trace.overhead_s"] = (traced["t_done"] - t_spawn_traced) - (
                base["t_done"] - t_spawn
            )
            metrics = {m["name"]: (values[m["name"]], m["unit"], 1) for m in per_layer()}
            tallies = [base, traced]
            print(f"  trace written to {trace_path.relative_to(ROOT)}")
        else:
            setups, samples = measure(spec, env, args.seconds, deadline)
            metrics = end_to_end(setups, samples)
            tallies = samples
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in tallies)
    failed = sum(s["failed"] for s in tallies)
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={count}")
    ratio = failed / max(attempted, 1)
    print(f"  {'failed_ratio':<40} {ratio:>14.6g} {'':<6} ({failed}/{attempted})")
    for reason in sorted({r for s in tallies for r in s["reasons"]})[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
