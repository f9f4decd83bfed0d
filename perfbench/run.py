"""spincool benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is loaded from its
`src/` directory.  Workloads (closed loops, one caller):

    ratio_sweep    one analysis.table1_sweep() per op, seeded alpha/beta ratios
    cli_artifacts  one `spincool` process per op, seeded order of the commands
                   that regenerate the paper's artifacts

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  The line before
it is a JSON detail record: environment, fail_frac, the tail percentile and
its sample count, the set-up samples and the checks' self-test.  Every op's
output is checked (check_engine.py, check_cli.py); an op that raises, exits
non-zero or fails its check is counted in "failed".  The ratio_sweep worker
runs on one BLAS thread; cli_artifacts runs the program with BLAS threading
as the user has it.  Both are recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check_cli
from tracer import aggregate
from workloads import WORKLOADS, cli_pass_count, cli_passes, tail, traced_op_count

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 3
BLOCK_S = 2.0  # length of the blocks that throughput and CPU per op are medians over
IMPORT_SAMPLES = 3
OP_TIMEOUT_S = 150  # the whole run must end within 180 s
CLI_ENTRY = "import sys; from spincool.cli import main; sys.exit(main())"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric names and units come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def child_env(one_blas_thread: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if one_blas_thread:
        env.update({v: "1" for v in THREAD_VARS})
    return env


# ---------------------------------------------------------------- environment

def environment(args) -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; c = numpy.show_config(mode='dicts'); "
         "print(json.dumps(c['Build Dependencies']['blas']))"],
        capture_output=True, text=True, timeout=60)
    blas = json.loads(probe.stdout) if probe.returncode == 0 else {}
    program_env = child_env(one_blas_thread=args.workload == "ratio_sweep")
    return {
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {v: program_env.get(v, "unset") for v in THREAD_VARS},
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine, to tell host contention from the program."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


# ---------------------------------------------------------------- set-up and imports

def import_breakdown(workload: str) -> dict[str, float]:
    """import.* metrics: medians over fresh `python -X importtime` processes."""
    target = "spincool.cli" if workload == "cli_artifacts" else "spincool"
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {target}"],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        total = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr[-2000:]}")
        self_us = {"numpy": 0, "scipy": 0, "spincool": 0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m:
                top = m.group(2).split(".", 1)[0]
                if top in self_us:
                    self_us[top] += int(m.group(1))
        for key, value in (("import.total_s", total),
                           ("import.numpy_s", self_us["numpy"] / 1e6),
                           ("import.scipy_s", self_us["scipy"] / 1e6),
                           ("import.spincool_self_s", self_us["spincool"] / 1e6)):
            samples.setdefault(key, []).append(value)
    return {k: statistics.median(v) for k, v in samples.items()}


def start_worker(args, mode: str, spans: Path | None = None):
    """Start worker.py; return (process, set-up seconds until it is ready)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--src", str(SRC)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(one_blas_thread=True))
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {OP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------- in-process workloads

def check_records(res: dict, run_dir: Path) -> None:
    """Check the worker's op records with check_engine in a process of its own."""
    path = run_dir / "records.json"
    path.write_text(json.dumps(res.pop("records")))
    proc = subprocess.run([sys.executable, str(BENCH / "check_engine.py"), str(path)],
                          capture_output=True, text=True, env=child_env(one_blas_thread=True),
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"check_engine failed: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    per_op = out["problems"]
    res.update(ops=len(per_op), failed=sum(1 for p in per_op if p),
               problems=[p for p in per_op if p][:5], selftest=out["selftest"])


def run_in_process(args, run_dir: Path) -> tuple[dict, dict]:
    if args.trace:
        layers = import_breakdown(args.workload)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        proc, _ = start_worker(args, "trace", spans)
        res = finish_worker(proc)
        check_records(res, run_dir)
        layers.update(res["layers"])
        layers["trace.overhead_frac"] = res["untraced_elapsed_s"] / res["elapsed_s"]
        if res["trace_changed_outputs"]:
            res["failed"] = max(res["failed"], res["trace_changed_outputs"])
            res["problems"].append(["tracing changed outputs"])
        return layers, res

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, "setup")
        setups.append(setup)
        proc.communicate(timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed")
    proc, setup = start_worker(args, "run")
    setups.append(setup)
    res = finish_worker(proc)
    check_records(res, run_dir)
    res["setup_samples"] = setups
    latencies, op_cpu = res.pop("latencies"), res.pop("op_cpu")
    blocks = time_blocks(res.pop("starts"), latencies, op_cpu)
    return end_to_end(res, latencies, blocks, res["maxrss_kb"] / 1024.0, setups), res


def time_blocks(starts, latencies, op_cpu) -> list[tuple[int, float, float]]:
    """(ops, wall s, CPU s) of the ops started in each BLOCK_S window of the run."""
    blocks: dict[int, list] = {}
    for t, lat, cpu in zip(starts, latencies, op_cpu):
        b = blocks.setdefault(int(t // BLOCK_S), [0, 0.0, 0.0])
        b[0] += 1
        b[1] += lat
        b[2] += cpu
    return [tuple(b) for _, b in sorted(blocks.items())]


def end_to_end(res: dict, latencies, blocks, peak_rss_mb, setups) -> dict:
    """The end-to-end metrics; the tail's percentile and sample count go to res.

    The host's speed changes from second to second, so throughput and CPU per
    op are medians over blocks of the run rather than whole-run totals, and a
    slow stretch shorter than half the run does not move them.
    """
    n = len(latencies)
    tail_s, pct, beyond = tail(latencies)
    res["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": n}
    res["blocks"] = {"count": len(blocks), "ops": [b[0] for b in blocks]}
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(k / wall for k, wall, _ in blocks),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "cpu_s_per_op": statistics.median(cpu / k for k, _, cpu in blocks),
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------- cli_artifacts

def run_cli_op(k: int, argv: tuple[str, ...], run_dir: Path, spans: Path | None) -> dict:
    out_dir = run_dir / f"op{k:03d}"
    stdout_path = run_dir / f"op{k:03d}.stdout"
    if spans is None:
        cmd = [sys.executable, "-c", CLI_ENTRY]
    else:
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans), str(k)]
    cmd += ["--out", str(out_dir), *argv]
    with open(stdout_path, "w") as out, open(run_dir / f"op{k:03d}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=run_dir)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, ru = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv, "out_dir": out_dir, "stdout": stdout_path,
            "exit_code": proc.returncode, "latency": latency,
            "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def read_artifacts(op: dict) -> tuple[dict[str, str], str]:
    files = {}
    if op["out_dir"].is_dir():
        files = {p.name: p.read_text() for p in op["out_dir"].iterdir() if p.is_file()}
    return files, op["stdout"].read_text()


def cli_selftest(ops: list[dict]) -> dict[str, bool]:
    """Each CLI check must fail on a wrong exit code, missing artifacts and
    numbers scaled by 1.2 (beyond every golden tolerance)."""
    caught = {}
    scale = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")
    for op in ops:
        cmd = " ".join(op["argv"])
        if f"{cmd}: exit code 3" in caught:
            continue
        files, stdout = read_artifacts(op)
        bumped = {k: scale.sub(lambda m: repr(float(m.group()) * 1.2), v)
                  for k, v in files.items()}
        caught[f"{cmd}: exit code 3"] = bool(check_cli.problems(op["argv"], 3, files, stdout))
        caught[f"{cmd}: missing artifacts"] = bool(check_cli.problems(op["argv"], 0, {}, ""))
        caught[f"{cmd}: values x1.2"] = bool(check_cli.problems(
            op["argv"], 0, bumped, scale.sub(lambda m: repr(float(m.group()) * 1.2), stdout)))
    return caught


def check_cli_ops(ops: list[dict]) -> list[list[str]]:
    return [check_cli.problems(op["argv"], op["exit_code"], *read_artifacts(op)) for op in ops]


def run_cli(args, run_dir: Path) -> tuple[dict, dict]:
    env = child_env()
    if args.trace:
        layers = import_breakdown(args.workload)
        passes = cli_passes(args.seed)
        n = traced_op_count(args.workload, args.seconds)
        argvs = []
        while len(argvs) < n:
            argvs += next(passes)
        argvs = argvs[:n]
        t0 = time.perf_counter()
        untraced = [run_cli_op(k, a, run_dir, None) for k, a in enumerate(argvs)]
        untraced_s = time.perf_counter() - t0
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
        t0 = time.perf_counter()
        traced = [run_cli_op(len(argvs) + k, a, run_dir, spans_dir / f"{k:03d}.json")
                  for k, a in enumerate(argvs)]
        traced_s = time.perf_counter() - t0
        span_lists = []
        for k in range(len(argvs)):
            path = spans_dir / f"{k:03d}.json"
            span_lists.append(json.loads(path.read_text()) if path.exists() else [])
        (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(span_lists, separators=(",", ":")))
        layers.update(aggregate(span_lists))
        layers["trace.overhead_frac"] = untraced_s / traced_s
        per_op = check_cli_ops(untraced + traced)
        res = {"ops": len(traced), "failed": sum(1 for p in per_op if p),
               "problems": [p for p in per_op if p][:5],
               "selftest": cli_selftest(traced)}
        return layers, res

    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import spincool.cli"], env=env,
                              timeout=120)
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("import spincool.cli failed")
    ops = []
    passes = cli_passes(args.seed)
    start = time.perf_counter()
    for _ in range(cli_pass_count(args.seconds)):
        for argv in next(passes):
            ops.append(run_cli_op(len(ops), argv, run_dir, None))
    elapsed = time.perf_counter() - start
    per_op = check_cli_ops(ops)
    res = {"ops": len(ops), "failed": sum(1 for p in per_op if p),
           "problems": [p for p in per_op if p][:5], "setup_samples": setups,
           "selftest": cli_selftest(ops),
           "latency_by_command": {" ".join(op["argv"]): [] for op in ops}}
    for op in ops:
        res["latency_by_command"][" ".join(op["argv"])].append(op["latency"])
    blocks = [(len(ops), elapsed, sum(op["cpu_s"] for op in ops))]
    return end_to_end(res, [op["latency"] for op in ops], blocks,
                      max(op["maxrss_kb"] for op in ops) / 1024.0, setups), res


# ---------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "spincool" / "__init__.py").is_file():
        print(f"run.py: no spincool sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    ticks0 = cpu_ticks()
    try:
        if args.workload == "cli_artifacts":
            values, res = run_cli(args, run_dir)
        else:
            values, res = run_in_process(args, run_dir)
        ticks1 = cpu_ticks()
        env = environment(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        env["cpu_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    attempted, failed = res["ops"], res["failed"]
    selftest_ok = bool(res["selftest"]) and all(res["selftest"].values())
    detail = {"environment": env, "fail_frac": {"value": failed / attempted, "unit": "ratio"},
              "selftest_ok": selftest_ok,
              **{k: v for k, v in res.items() if k in ("problems", "selftest", "tail",
                                                        "setup_samples", "blocks",
                                                        "latency_by_command")}}
    if args.trace:
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        for name, m in [*metrics.items(), ("fail_frac", detail["fail_frac"])]:
            print(f"{args.workload:14s} {name:13s} {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and selftest_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
