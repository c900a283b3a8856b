"""One benchmark sample in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, the seed, the mode (`setup`, `run` or
`trace`), the source tree the parent put on PYTHONPATH and, when
tracing, the file for the trace.  The child prints
one JSON line with `perf_counter` timestamps (the clock is system-wide,
so the parent subtracts its own spawn time), the verdict tally, the item
latencies and its peak RSS.
"""

import json
import os
import sys
import time


def main(spec):
    import theta2

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(theta2.__file__).startswith(src + os.sep):
        raise SystemExit(f"theta2 imported from {theta2.__file__}, not from {src}")

    import workloads

    make_inputs, execute = workloads.WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec["seed"], workloads.EXPECTED[spec["workload"]])
    t_setup = time.perf_counter()
    out = {"t_setup": t_setup}
    if spec["mode"] == "setup":
        return out

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(also=(workloads,))
    latencies, tally, units = execute(inputs, tracer)
    out["t_done"] = time.perf_counter()

    import resource

    out.update(
        latencies_s=latencies,
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons[:20],
        units=units,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        # written first: resolving the metrics calls into the library again
        tracer.write(spec["trace_path"], {"workload": spec["workload"], "seed": spec["seed"]})
        out["layers"] = tracer.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
