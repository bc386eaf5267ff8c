"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. An operation runs the
workload's CLI commands back to back, each in a fresh interpreter, one
operation at a time (a closed loop with one client). Inputs and their reference outputs are made from the seed
before timing starts. Operations repeat until the next one would end
past ``--seconds`` (at least ``MIN_SAMPLES``), every output is checked,
and each metric is the median over the operations. With ``--trace 1``
traced and untraced operations alternate and the per-layer metrics are
reported instead. A results file with machine info, input hashes, a CPU
calibration and every sample goes to ``.bench_work/results``.
"""

import argparse
import functools
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT

from perfbench import tracing, workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
REQUIRED = (os.path.join("src", "anytime_ab", "cli.py"),)
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
CALIBRATION_LOOPS = 2_000_000

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "events/s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def tail_percentile(values):
    """(p, value) for the highest whole percentile with at least ten samples above it, else None."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def summarize(values) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "n": len(values),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of machine speed, not a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def run_command(case: workloads.Case, traced: bool, run_dir: str) -> dict:
    """One CLI command in a fresh interpreter; returns the child's result and the check's problems."""
    out_dir = os.path.join(run_dir, "out")
    result_path = os.path.join(run_dir, "child.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(os.path.join(run_dir, "child.err"), "wb") as err:
        t0 = time.monotonic()
        cmd = [sys.executable, CHILD, repr(t0), result_path, "1" if traced else "0", ROOT, *case.cli_argv(out_dir)]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    try:
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    if code != 0 or result is None or result["status"] != 0:
        with open(os.path.join(run_dir, "child.err"), "r", encoding="utf-8", errors="replace") as fh:
            return {"problems": [f"{case.argv[0]} exit {code}: {fh.read()[-2000:]}"]}
    result["problems"] = case.check(out_dir)
    return result


def run_operation(cases: list, traced: bool, run_dir: str) -> dict:
    """One operation: every command of the workload, back to back; returns its sample."""
    start = time.monotonic()
    results = [run_command(case, traced, run_dir) for case in cases]
    sample = {"traced": traced, "elapsed_s": time.monotonic() - start,
              "problems": [p for r in results for p in r["problems"]]}
    if all("wall_s" in r for r in results):
        sample.update(
            wall_s=sum(r["wall_s"] for r in results),
            setup_s=[r["setup_s"] for r in results],
            peak_rss_mb=max(r["peak_rss_mb"] for r in results),
        )
        if traced:
            sample["layers"] = functools.reduce(tracing.add_totals, (r["layers"] for r in results))
    return sample


def measure(cases: list, seconds: float, traced: bool, run_dir: str) -> list:
    """Operations until the next would end past ``seconds``; alternates traced ones when tracing."""
    kinds = (False, True) if traced else (False,)
    samples = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            samples.append(run_operation(cases, kind, run_dir))
        elapsed = time.monotonic() - start
        per_round = elapsed / (len(samples) / len(kinds))
        if len(samples) >= MIN_SAMPLES * len(kinds) and elapsed + per_round > seconds:
            return samples


def end_to_end_metrics(cases: list, samples: list) -> dict:
    timed = [s for s in samples if "wall_s" in s and not s["traced"]]
    walls = [s["wall_s"] for s in timed]
    events = sum(case.events for case in cases)
    cells = sum(case.cells for case in cases)
    return {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(events / w for w in walls),
        "cells_per_s": statistics.median(cells / w for w in walls),
        "setup_s": statistics.median(x for s in timed for x in s["setup_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "success_rate": sum(not s["problems"] for s in samples) / len(samples),
    }


def layer_metrics(samples: list) -> dict:
    traced = [tracing.layer_metrics(s["layers"]) for s in samples if s.get("layers")]
    untraced = [s["wall_s"] for s in samples if "wall_s" in s and not s["traced"]]
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    out["trace.overhead_ratio"] = out["trace.wall_s"] / statistics.median(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a source checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        cases = workload.prepare(args.seed, WORK_DIR)  # hashes every input, which warms the page cache
        calibration = [calibrate()]
        samples = measure(cases, args.seconds, bool(args.trace), run_dir)
        calibration.append(calibrate())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(bool(s["problems"]) for s in samples)
    if not any("wall_s" in s and not s["traced"] for s in samples):
        print(f"every operation failed: {samples[0]['problems']}", file=sys.stderr)
        return 1
    if args.trace:
        values = layer_metrics(samples)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = end_to_end_metrics(cases, samples)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    untraced = [s for s in samples if "wall_s" in s and not s["traced"]]
    timings = {
        "wall_s": summarize([s["wall_s"] for s in untraced]),
        "setup_s": summarize([x for s in untraced for x in s["setup_s"]]),
        "peak_rss_mb": summarize([s["peak_rss_mb"] for s in untraced]),
    }
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs_sha256": {name: sha for case in cases for name, sha in case.inputs.items()},
        "events": sum(case.events for case in cases),
        "cells": sum(case.cells for case in cases),
        "calibration_s": calibration,
        "timings": timings,
        "samples": samples,
        "metrics": metrics,
    }
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for kind, summary in timings.items():
        tail = summary["tail"]
        tail_text = f"p{tail['percentile']} {tail['value']:.4g}" if tail else "no tail percentile (needs > 10 samples)"
        print(f"{args.workload} {kind}: median {summary['median']:.4g}, {tail_text}, n={summary['n']}", file=sys.stderr)
    for sample in samples:
        for problem in sample["problems"]:
            print(f"{args.workload} check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
