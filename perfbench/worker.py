"""Worker process of the ratio_sweep workload.

Started by run.py in a fresh interpreter.  It imports spincool, runs one
warm-up op and prints "ready", so the parent can time set-up from process
start.  Then, by --mode:

    setup   exit at once (an extra set-up sample)
    run     closed loop of ops for --seconds, untraced
    trace   a fixed number of ops untraced, then the same ops traced

The last stdout line is a JSON record for the parent, with every op's
input, output and error; the parent checks them with check_engine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import spincool
from spincool import analysis
from spincool.srmodel import ModelParams

from workloads import ratio_sets, traced_op_count

MIN_OPS = 11  # enough for a tail percentile with ten samples beyond it


def ratio_sweep_op(ratios: tuple[float, ...]) -> list[tuple[float, float]]:
    rows = analysis.table1_sweep(ModelParams(), ratios=ratios)
    return [(r.fidelity, r.pop_perp) for r in rows]


def timed_loop(op, inputs, *, seconds: float | None = None, count: int | None = None,
               tracer=None) -> dict:
    """Run ops back to back; stop after `count` ops or `seconds` of wall time."""
    records, latencies, starts, op_cpu = [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    start = clock()
    for i, x in enumerate(inputs):
        if count is not None and i >= count:
            break
        if count is None and i >= MIN_OPS and clock() - start >= seconds:
            break
        c0 = cpu_clock()
        t0 = clock()
        try:
            if tracer is None:
                out = op(x)
            else:
                with tracer.op(i):
                    out = op(x)
            err = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, repr(exc)
        latencies.append(clock() - t0)
        op_cpu.append(cpu_clock() - c0)
        starts.append(t0 - start)
        records.append({"input": x, "output": out, "error": err})
    elapsed = clock() - start
    return {"records": records, "latencies": latencies, "starts": starts, "op_cpu": op_cpu,
            "elapsed_s": elapsed,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    if Path(spincool.__file__).resolve().parent != Path(args.src).resolve() / "spincool":
        print(f"worker: spincool imported from {spincool.__file__}, not {args.src}",
              file=sys.stderr)
        return 2

    op = ratio_sweep_op
    op(next(ratio_sets(args.seed)))  # warm-up
    inputs = ratio_sets(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {}
    if args.mode == "run":
        phase = timed_loop(op, inputs, seconds=args.seconds)
    else:
        from tracer import Tracer, aggregate

        n = traced_op_count("ratio_sweep", int(args.seconds))
        ops = list(itertools.islice(inputs, n))
        untraced = timed_loop(op, iter(ops), count=n)
        tracer = Tracer()
        tracer.install()
        phase = timed_loop(op, iter(ops), count=n, tracer=tracer)
        tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)
        result["layers"] = aggregate([tracer.spans])
        result["untraced_elapsed_s"] = untraced["elapsed_s"]
        # the traced phase must reproduce the untraced outputs bit for bit
        result["trace_changed_outputs"] = sum(
            a["output"] != b["output"] for a, b in zip(untraced["records"], phase["records"]))

    result.update(phase)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
