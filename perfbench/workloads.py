"""Seeded inputs of the benchmark workloads.

Only the stdlib is used here, so the harness can build the inputs without
loading numpy; the program receives nothing but these generated values.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ratio_sweep", "cli_artifacts")

# alpha/beta ratios per ratio_sweep op, as many as the paper's table1 rows
RATIOS_PER_OP = 6

# one pass of cli_artifacts: the commands that regenerate the paper's
# artifacts.  --jobs is left out: its worker pool is slower than serial.
CLI_PASS = (
    ("simulate",),
    ("--set", "samples=4001", "--svg", "simulate"),
    ("balance",),
    ("dressed",),
    ("levels",),
    ("lasercalc",),
    ("reproduce", "fig3"),
    ("reproduce", "table1"),
    ("reproduce", "sensitivity"),
    ("reproduce", "impurity"),
    ("reproduce", "isotopes"),
)


def ratio_sets(seed: int):
    """Endless sequence of ratio tuples, log-uniform in [0.01, 100]."""
    rng = random.Random(f"ratio_sweep:{seed}")
    while True:
        yield tuple(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(RATIOS_PER_OP))


def cli_passes(seed: int):
    """Endless sequence of passes, each a seeded permutation of CLI_PASS."""
    rng = random.Random(f"cli_artifacts:{seed}")
    while True:
        order = list(CLI_PASS)
        rng.shuffle(order)
        yield order


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that has at least ten samples beyond it.

    Returns (latency, percentile, samples beyond).  With ten or fewer
    samples no percentile qualifies and the smallest latency is returned.
    """
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def cli_pass_count(seconds: int) -> int:
    """Whole passes per cli_artifacts run, about fifteen seconds each.

    A fixed count keeps the command mix, the sample count and so the tail
    percentile the same in every run.
    """
    return max(1, round(seconds / 15))


def traced_op_count(workload: str, seconds: int) -> int:
    """Fixed number of ops of a traced run, so its counts repeat exactly."""
    if workload == "ratio_sweep":
        return max(2, math.ceil(seconds / 2))
    return len(CLI_PASS)
