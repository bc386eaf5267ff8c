"""Compare one CLI run's output files with the workload's reference.

Counts, peek grids, verdicts, crossings, rejection curves and stop
quantiles must match exactly. Floats may differ only within what an
allowed kernel change can move them: interval endpoints and means by
1e-12 relative, expected losses by the 3.4e-8 relative error of the
quadrature the roadmap permits. Each check returns a list of problems;
an empty list means the run is correct.
"""

import json
import math
import os

ENDPOINT_RTOL = 1e-12
LOSS_RTOL = 3.4e-8
MAX_PROBLEMS = 5

SIGNIFICANT, RUNNING, NOT_SIGNIFICANT = "significant", "running", "not-significant"


def _close(a, b, rtol: float, scale: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * scale


def _float(text: str):
    return None if text == "" else float(text)


def read_trajectory(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "n,n0,n1,center,lower,upper,verdict":
            raise ValueError(f"unexpected trajectory header {header!r}")
        rows = []
        for line in fh:
            n, n0, n1, center, lower, upper, verdict = line.rstrip("\n").split(",")
            rows.append((int(n), int(n0), int(n1), _float(center), _float(lower), _float(upper), verdict))
    return rows


def check_analyze(out_dir: str, ref: dict) -> list[str]:
    """Check trajectory.csv and decision.json of an ``analyze`` run.

    ``ref`` holds the per-snapshot counts and, for interval rules, the
    reference endpoints (``lower``/``upper``) or, for ``bht``, the
    reference minimum expected loss (``min_loss``) and ``epsilon``.
    """
    try:
        rows = read_trajectory(os.path.join(out_dir, "trajectory.csv"))
        with open(os.path.join(out_dir, "decision.json"), "r", encoding="utf-8") as fh:
            decision = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems: list[str] = []

    def fail(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= MAX_PROBLEMS

    counts = ref["n"], ref["n0"], ref["n1"]
    if len(rows) != len(ref["n"]):
        return [f"trajectory has {len(rows)} rows, expected {len(ref['n'])}"]
    interval_rule = "lower" in ref
    crossing = None
    for i, (n, n0, n1, center, lower, upper, verdict) in enumerate(rows):
        want = tuple(int(c[i]) for c in counts)
        if (n, n0, n1) != want:
            if fail(f"row {i}: counts {(n, n0, n1)} != {want}"):
                break
            continue
        mean_scale = max(abs(ref["mu0"][i]), abs(ref["mu1"][i]))
        if (center is None) != (n0 < 1 or n1 < 1) or (
            center is not None and not _close(center, ref["mu1"][i] - ref["mu0"][i], ENDPOINT_RTOL, mean_scale)
        ):
            if fail(f"row {i}: center {center} != {ref['mu1'][i] - ref['mu0'][i]}"):
                break
        if interval_rule:
            want_lo, want_hi = ref["lower"][i], ref["upper"][i]
            if math.isnan(want_lo):
                ok = lower is None and upper is None
            else:
                scale = max(abs(want_lo), abs(want_hi))
                ok = _close(lower, want_lo, ENDPOINT_RTOL, scale) and _close(upper, want_hi, ENDPOINT_RTOL, scale)
            if not ok and fail(f"row {i}: interval ({lower}, {upper}) != ({want_lo}, {want_hi})"):
                break
            excludes_null = lower is not None and (lower > 0.0 or upper < 0.0)
        else:
            if (lower, upper) != (None, None) and fail(f"row {i}: a statistic rule wrote an interval"):
                break
            excludes_null = n == decision.get("n_at_decision")
        if crossing is None and excludes_null:
            crossing = i
        expected_verdict = RUNNING if crossing is None else SIGNIFICANT
        if verdict != expected_verdict and fail(f"row {i}: verdict {verdict!r}, expected {expected_verdict!r}"):
            break
    if problems:
        return problems

    if not interval_rule:
        eps = ref["epsilon"]
        losses = ref["min_loss"]
        last = len(rows) if crossing is None else crossing
        early = [i for i in range(last) if losses[i] < eps * (1.0 - LOSS_RTOL)]
        if early:
            fail(f"reference loss crosses epsilon at row {early[0]}, program at {crossing}")
        if crossing is not None:
            if not losses[crossing] < eps * (1.0 + LOSS_RTOL):
                fail(f"row {crossing}: reference loss {losses[crossing]} does not cross epsilon {eps}")
            if not _close(decision.get("statistic"), losses[crossing], LOSS_RTOL, losses[crossing]):
                fail(f"statistic {decision.get('statistic')} != reference loss {losses[crossing]}")

    expected = {
        "method": ref["method"],
        "n": int(ref["n"][-1]),
        "n0": int(ref["n0"][-1]),
        "n1": int(ref["n1"][-1]),
        "peek_count": len(rows),
        "n_at_decision": None if crossing is None else rows[crossing][0],
        "verdict": NOT_SIGNIFICANT if crossing is None else SIGNIFICANT,
        "lower": rows[-1][4],
        "upper": rows[-1][5],
    }
    if interval_rule:
        expected["statistic"] = None
    for key, want in expected.items():
        if decision.get(key) != want:
            fail(f"decision.json {key} = {decision.get(key)!r}, expected {want!r}")
    return problems


_EXACT_FIELDS = (
    "study", "method", "replications", "horizon", "master_seed", "peek_ns",
    "cumulative_rejection_by_peek", "power", "stop_time_quantiles", "miscoverage_at_stop",
)


def check_simulate(out_dir: str, ref: list[dict]) -> list[str]:
    """Check report.json and report.csv of a ``simulate`` run against per-method references."""
    try:
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            reports = json.load(fh)
        with open(os.path.join(out_dir, "report.csv"), "r", encoding="utf-8") as fh:
            csv_lines = sum(1 for _ in fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if len(reports) != len(ref):
        return [f"report.json has {len(reports)} reports, expected {len(ref)}"]
    problems = []
    for got, want in zip(reports, ref):
        label = want["method"]
        for key in _EXACT_FIELDS:
            if key in want and got.get(key) != want[key]:
                problems.append(f"{label}: {key} differs from the reference")
        for key, value in want.get("meta", {}).items():
            if got.get("meta", {}).get(key) != value:
                problems.append(f"{label}: meta.{key} = {got.get('meta', {}).get(key)!r}, expected {value!r}")
        if "mean_loss_at_stop" in want:
            loss = want["mean_loss_at_stop"]
            if not _close(got.get("mean_loss_at_stop"), loss, LOSS_RTOL, abs(loss)):
                problems.append(f"{label}: mean_loss_at_stop {got.get('mean_loss_at_stop')} != {loss}")
        if "calibration_pairs" in want:
            pairs = got.get("calibration_pairs") or []
            if len(pairs) != len(want["calibration_pairs"]) or any(
                not (_close(g[0], w[0], ENDPOINT_RTOL, abs(w[0])) and _close(g[1], w[1], ENDPOINT_RTOL, abs(w[1])))
                for g, w in zip(pairs, want["calibration_pairs"])
            ):
                problems.append(f"{label}: calibration_pairs differ from the reference")
    expected_lines = 1 + sum(len(w["peek_ns"]) for w in ref)
    if csv_lines != expected_lines:
        problems.append(f"report.csv has {csv_lines} lines, expected {expected_lines}")
    return problems[:MAX_PROBLEMS]
