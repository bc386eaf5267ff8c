"""Steadiness self-check: run every workload in two sets and compare spreads with bounds.

    python3 perfbench/steady.py

Each set runs ``perfbench/run.py`` once per seed 1..10 (the same seeds
in both sets) for BENCHMARK.json's ``run_seconds``, all seeds of one
workload back to back before the next workload. For each workload and
end-to-end metric it prints, per set, the median and the quartile spread
(IQR / median, as ``statistics.quantiles(n=4)`` gives the quartiles),
then how far the two sets' medians lie apart, taken the larger way round
(|second - first| / min(first, second)). Every spread and the shift are
judged against the metric's bound in BENCHMARK.json: above the bound is
FAIL, above a third of it is "wide" (not yet steady). Each run's CPU
calibration loop is printed as a drift gauge, apart from the metrics. A
summary goes to ``.bench_work/steady.json``; the exit code is 1 if any
metric failed.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT

from perfbench.run import summarize  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
RESULTS = os.path.join(ROOT, ".bench_work", "results")
SETS = 2
SEEDS = range(1, 11)


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def apart(first: float, second: float) -> float:
    """How far two medians lie apart, as a share of the smaller one."""
    return abs(second - first) / min(first, second)


def judge(value: float, bound: float) -> str:
    if value > bound:
        return "FAIL"
    return "wide" if value > bound / 3 else "ok"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace0.json"), "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    # values[workload][metric][set] -> list of run values
    values = {w: {m["name"]: [[] for _ in range(SETS)] for m in bench["end_to_end"]} for w in names}
    calibration = {w: [[] for _ in range(SETS)] for w in names}
    pooled = {w: [{"wall_s": [], "setup_s": []} for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for name in names:
            for seed in SEEDS:
                result, record = run_once(name, seed, seconds)
                if not result["correct"]:
                    print(f"{name} seed {seed}: outputs failed the check", file=sys.stderr)
                for metric, entry in result["metrics"].items():
                    values[name][metric][k].append(entry["value"])
                calibration[name][k].extend(record["calibration_s"])
                untraced = [s for s in record["samples"] if "wall_s" in s]
                pooled[name][k]["wall_s"].extend(s["wall_s"] for s in untraced)
                pooled[name][k]["setup_s"].extend(x for s in untraced for x in s["setup_s"])
                print(f"set {k + 1} seed {seed} {name}: wall_s {result['metrics']['wall_s']['value']:.4f}"
                      f" setup_s {result['metrics']['setup_s']['value']:.4f}", file=sys.stderr, flush=True)

    failed = False
    for name in names:
        print(f"\n{name}")
        for m in bench["end_to_end"]:
            sets = values[name][m["name"]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            cells = [f"median {med:.6g} spread {sp:.3f}" for med, sp in zip(medians, spreads)]
            shift = apart(*medians)
            verdicts = [judge(value, m["bound"]) for value in spreads + [shift]]
            failed |= "FAIL" in verdicts
            print(f"  {m['name']:<13} bound {m['bound']:.2f} | {' | '.join(cells)} | apart {shift:.3f}"
                  f" -> {', '.join(verdicts)}")
        for k in range(SETS):
            cal = calibration[name][k]
            print(f"  set {k + 1}: calibration median {statistics.median(cal):.4f}s spread {spread(cal):.3f}")
            for kind, samples in pooled[name][k].items():
                summary = summarize(samples)
                tail = summary["tail"]
                tail_text = f"p{tail['percentile']} {tail['value']:.4f}s" if tail else "no tail percentile"
                print(f"    pooled {kind}: median {summary['median']:.4f}s, {tail_text}, n={summary['n']}")
    summary = {"values": values, "calibration_s": calibration, "seeds": list(SEEDS), "seconds": seconds}
    with open(os.path.join(ROOT, ".bench_work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
