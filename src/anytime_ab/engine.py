"""Event-log ingestion, experiment analysis, and decision cross-tabs.

Logs are JSON-lines (one event per line: ts, unit, arm, value) or CSV
with a header naming the same fields. Ingestion folds events into per-arm
(count, mean, m2) moments in arrival order and takes a snapshot row at a
fixed cadence; analysis turns the rows into columns, evaluates one
decision rule over them and records the first crossing. Everything is
deterministic: the same log and flags produce byte-identical outputs.
"""

import csv
import io
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .bayes import BfConfig, BhtConfig, bht_decide, binary_counts, log_bayes_factor
from .confseq import (
    ConfSeqParams,
    asympcs_ate,
    excludes,
    lift_interval,
    msprt_interval,
    msprt_log_lambda,
    two_sample_scale,
    z_interval,
    z_statistic,
)
from .gst import ScheduleMismatchError, SpendingSchedule, json_number
from .moments import welford_step

ANALYZE_METHODS = ("asympcs", "asympcs-lift", "msprt", "fht-peeking", "bf", "bht", "ldm")

VERDICT_SIGNIFICANT = "significant"
VERDICT_NOT_SIGNIFICANT = "not-significant"
VERDICT_RUNNING = "running"


class LogParseError(ValueError):
    """Malformed event log; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnpairedRecordError(ValueError):
    """Cross-tab input lacking one record per method per experiment."""


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(json_number, value))


# What each value type in cli.CONFIG_TYPES and _FIELD_TYPES accepts; a
# number is a ``json_number``.
VALUE_TYPES = {
    "a number": json_number,
    "a number or null": lambda v: v is None or json_number(v),
    "an integer": lambda v: json_number(v) and isinstance(v, int),
    "an integer or null": lambda v: v is None or (json_number(v) and isinstance(v, int)),
    "a list of numbers": _numbers,
    "a list of numbers or null": lambda v: v is None or _numbers(v),
    "a pair of numbers": lambda v: _numbers(v) and len(v) == 2,
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "an object": lambda v: isinstance(v, dict),
}
# The value type of each field annotation of DecisionRecord.
_FIELD_TYPES = {str: "a string", int: "an integer", int | None: "an integer or null",
                float | None: "a number or null", dict: "an object"}


class EventRecord(NamedTuple):
    ts: int
    unit: str
    arm: int
    value: float


@dataclass
class DecisionRecord:
    experiment_id: str
    method: str
    verdict: str
    n: int
    n0: int
    n1: int
    peek_count: int
    n_at_decision: int | None = None
    lower: float | None = None
    upper: float | None = None
    statistic: float | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "DecisionRecord":
        """Read ``to_dict`` output; ValueError for a non-object, unknown or missing keys, or a mistyped value."""
        if not isinstance(obj, dict):
            raise ValueError(f"decision record must be a JSON object, got {type(obj).__name__}")
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
        problems = [
            f"{what}: {', '.join(sorted(keys))}"
            for what, keys in (("unknown keys", set(obj) - known), ("missing fields", required - set(obj)))
            if keys
        ]
        if problems:
            raise ValueError(f"decision record has {'; '.join(problems)}")
        wrong = [
            f"{f.name} must be {_FIELD_TYPES[f.type]}, got {json.dumps(obj[f.name])}"
            for f in fields(cls)
            if f.name in obj and not VALUE_TYPES[_FIELD_TYPES[f.type]](obj[f.name])
        ]
        if wrong:
            raise ValueError(f"decision record has bad values: {'; '.join(wrong)}")
        return cls(**obj)


# Arms are the integers 0 and 1 or their strings (CSV); the type test
# rejects booleans and floats, which compare equal to 0 and 1.
_ARMS = {0: 0, 1: 1, "0": 0, "1": 1}
_ARM_TYPES = (int, str)


def _coerce_event(obj: dict, line_no: int) -> EventRecord:
    try:
        ts = int(obj["ts"])
        unit = str(obj["unit"])
        raw_arm = obj["arm"]
        value = float(obj["value"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise LogParseError(line_no, f"bad event fields: {exc}") from None
    arm = _ARMS.get(raw_arm) if type(raw_arm) in _ARM_TYPES else None
    if arm is None:
        raise LogParseError(line_no, f"arm must be 0 or 1, got {raw_arm!r}")
    if not math.isfinite(value):
        raise LogParseError(line_no, f"value must be finite, got {value}")
    # The same record as EventRecord(...), without its Python-level __new__.
    return tuple.__new__(EventRecord, (ts, unit, arm, value))


def parse_events(path: str):
    """Yield (line_no, EventRecord) from a JSONL or CSV log file.

    A JSONL line number is the line holding the event. A CSV line number
    is the file line where the row ends (``csv.reader.line_num``), so
    blank lines and quoted fields spanning lines are counted; a row the
    CSV reader rejects is a ``LogParseError`` at that line.
    """
    fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "csv":
            # Each row's dict is csv.DictReader's: empty rows are skipped, a
            # short row's missing fields are None, extra fields are ignored,
            # and a repeated header name keeps its last column.
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                width = len(header)
                for row in reader:
                    if not row:
                        continue
                    obj = dict(zip(header, row))
                    if len(row) < width:
                        obj.update(dict.fromkeys(header[len(row):]))
                    line_no = reader.line_num
                    yield line_no, _coerce_event(obj, line_no)
            except csv.Error as exc:
                raise LogParseError(reader.line_num, f"invalid CSV: {exc}") from None
        else:
            # One raw_decode per line. A line it cannot take whole (an error,
            # or text after the object) goes through json.loads, which
            # raises exactly its usual error for that line.
            decode = json.JSONDecoder().raw_decode
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:
                        obj, end = decode(line)
                    except (ValueError, RecursionError):
                        end = -1
                    if end != len(line):
                        obj = json.loads(line)
                except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
                    raise LogParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
                except RecursionError:
                    raise LogParseError(line_no, "invalid JSON: nested too deeply") from None
                yield line_no, _coerce_event(obj, line_no)


@dataclass
class IngestResult:
    # One (n, count0, mean0, m2_0, count1, mean1, m2_1) row per snapshot.
    snapshots: list[tuple]
    events_seen: int
    events_used: int


def ingest(events, snapshot_every: int = 100, dedup: bool = False) -> IngestResult:
    """Fold events into per-arm (count, mean, m2) moments, snapshotting periodically.

    ``events`` yields EventRecord (or (line_no, EventRecord) pairs as
    produced by ``parse_events``). With ``dedup`` the first event per
    unit wins. Each snapshot is the row (events used, count0, mean0,
    m2_0, count1, mean1, m2_1); a final one is always taken at end of
    stream when any events arrived after the last periodic one.
    """
    if snapshot_every < 1:
        raise ValueError("snapshot cadence must be at least 1")
    arm0 = arm1 = (0, 0.0, 0.0)
    seen_units: set[str] = set()
    snapshots: list[tuple] = []
    seen = used = 0
    for item in events:
        record = item if isinstance(item, EventRecord) else item[1]
        seen += 1
        if dedup:
            if record.unit in seen_units:
                continue
            seen_units.add(record.unit)
        if record.arm == 0:
            arm0 = welford_step(*arm0, float(record.value))
        else:
            arm1 = welford_step(*arm1, float(record.value))
        used += 1
        if used % snapshot_every == 0:
            snapshots.append((used, *arm0, *arm1))
    if used > 0 and (not snapshots or snapshots[-1][0] != used):
        snapshots.append((used, *arm0, *arm1))
    return IngestResult(snapshots, seen, used)


@dataclass
class TrajectoryRow:
    n: int
    n0: int
    n1: int
    center: float | None
    lower: float | None
    upper: float | None
    verdict: str


# Log values near the float limits overflow a kernel's squares and sums;
# each such entry is then invalid and never crosses (see the guards below),
# so numpy's overflow and NaN warnings would only reach the user's stderr.
@np.errstate(over="ignore", invalid="ignore")
def analyze_snapshots(
    snapshots,
    method: str,
    params: ConfSeqParams,
    theta0: float = 0.0,
    bht_config: BhtConfig | None = None,
    schedule: SpendingSchedule | None = None,
    intersect: bool = False,
) -> tuple[list[TrajectoryRow], int | None, float | None]:
    """Evaluate one stopping rule over the snapshot rows of ``ingest``.

    Returns (rows, n at first crossing or None, statistic at decision).
    The decision rule is "first snapshot whose current interval (or
    statistic threshold) excludes the null"; with ``intersect`` the
    running intersection of intervals is reported and used instead. The
    null is mu1 - mu0 = theta0, or for ``asympcs-lift`` a lift
    mu1 / mu0 - 1 = theta0.
    """
    if method not in ANALYZE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ANALYZE_METHODS}")
    snapshots = list(snapshots)
    if method == "ldm":
        if schedule is None:
            raise ValueError("ldm analysis needs a spending schedule")
        if len(snapshots) != schedule.n_peeks:
            raise ScheduleMismatchError(
                f"log has {len(snapshots)} snapshots, schedule has {schedule.n_peeks} peeks"
            )
    _, n0, mu0, m2_0, n1, mu1, m2_1 = np.array(snapshots, dtype=float).reshape(-1, 7).T
    # The kernels' per-arm (count, mean, biased variance) columns; an empty arm has variance 0.
    arms = (n0, n1, mu0, mu1, m2_0 / np.maximum(n0, 1.0), m2_1 / np.maximum(n1, 1.0))
    # Below 2^-511 every square is subnormal or 0, so a variance reads as 0:
    # an entry whose largest arm |mean| + sd is that small never crosses.
    scale = np.maximum(np.abs(mu0) + np.sqrt(arms[4]), np.abs(mu1) + np.sqrt(arms[5]))
    underflow = (scale > 0.0) & (scale < 2.0**-511)
    center = np.where((n0 >= 1) & (n1 >= 1), mu1 - mu0, np.nan)
    hw = lower = upper = stat = None
    if method == "asympcs":
        _, hw, valid = asympcs_ate(*arms, params.alpha, params.rho2)
    elif method == "asympcs-lift":
        lower, upper, valid = lift_interval(*arms, params.alpha, params.rho2)
        with np.errstate(divide="ignore", invalid="ignore"):
            center = np.where((n0 >= 1) & (n1 >= 1) & (mu0 > 0.0) & (mu1 > 0.0), mu1 / mu0 - 1.0, np.nan)
    elif method == "msprt":
        scale = two_sample_scale(*arms)
        _, hw, valid = msprt_interval(*scale, params.alpha, params.rho2)
        loglam, _ = msprt_log_lambda(*scale, params.rho2, theta0)
        # The always-valid p-process: running minimum of 1/lambda from p = 1.
        with np.errstate(over="ignore", divide="ignore"):
            stat = np.minimum.accumulate(np.where(valid, 1.0 / np.exp(loglam), 1.0))
    elif method == "fht-peeking":
        _, hw, valid = z_interval(*arms, params.alpha)
    elif method == "ldm":
        stat, valid = z_statistic(*arms, theta0)
        crossed = valid & ~underflow & (np.abs(stat) >= np.asarray(schedule.boundaries))
    elif method == "bf":
        cfg = BfConfig()
        stat = log_bayes_factor(binary_counts(n0, mu0, m2_0), n0, binary_counts(n1, mu1, m2_1), n1, cfg)
        crossed = stat >= np.log(cfg.odds_threshold)
    else:  # bht: the exact two-arm loss is evaluated one snapshot at a time
        cfg = bht_config or BhtConfig()
        counts = (binary_counts(n0, mu0, m2_0), n0, binary_counts(n1, mu1, m2_1), n1)
        decisions = [bht_decide(*row, cfg) for row in zip(*(c.tolist() for c in counts))]
        stat = np.array([min(d.loss_arm0, d.loss_arm1) for d in decisions])
        crossed = np.array([d.stopped for d in decisions], dtype=bool)
    if hw is not None:
        lower, upper = center - hw, center + hw
    if lower is not None:
        # A bound that overflowed to NaN, or to infinity on its wrong side, never crosses.
        valid &= (lower < np.inf) & (upper > -np.inf) & ~underflow
        if intersect:
            lower = np.maximum.accumulate(np.where(valid, lower, -np.inf))
            upper = np.minimum.accumulate(np.where(valid, upper, np.inf))
        crossed = excludes(lower, upper, valid, theta0)
        lower, upper = (np.where(valid, bound, np.nan) for bound in (lower, upper))
    hits = np.flatnonzero(crossed)
    first = int(hits[0]) if hits.size else len(snapshots)
    crossed_at = snapshots[first][0] if hits.size else None
    statistic = None
    if hits.size and stat is not None:
        statistic = math.exp(stat[first]) if method == "bf" else float(stat[first])
    columns = [_optional(c, len(snapshots)) for c in (center, lower, upper)]
    rows = [
        TrajectoryRow(snap[0], snap[1], snap[4], c, lo, hi, VERDICT_SIGNIFICANT if i >= first else VERDICT_RUNNING)
        for i, (snap, c, lo, hi) in enumerate(zip(snapshots, *columns))
    ]
    return rows, crossed_at, statistic


def _optional(column, size: int) -> list:
    """Python floats for the trajectory rows, with NaN or a missing column as None."""
    if column is None:
        return [None] * size
    return [None if math.isnan(x) else x for x in column.tolist()]


def analyze(
    log_path: str,
    method: str,
    params: ConfSeqParams,
    out_dir: str | None = None,
    theta0: float = 0.0,
    snapshot_every: int = 100,
    dedup: bool = False,
    partial: bool = False,
    experiment_id: str | None = None,
    bht_config: BhtConfig | None = None,
    schedule: SpendingSchedule | None = None,
    intersect: bool = False,
) -> tuple[DecisionRecord, list[TrajectoryRow]]:
    """Analyze one event log end to end, optionally writing result files.

    Writes ``trajectory.csv`` and ``decision.json`` under ``out_dir``
    when given. A log that ends without a crossing is verdict
    not-significant, or running when ``partial`` marks the log as still
    collecting.
    """
    result = ingest(parse_events(log_path), snapshot_every=snapshot_every, dedup=dedup)
    rows, crossed_at, statistic = analyze_snapshots(
        result.snapshots, method, params, theta0,
        bht_config=bht_config, schedule=schedule, intersect=intersect,
    )
    if crossed_at is not None:
        verdict = VERDICT_SIGNIFICANT
    else:
        verdict = VERDICT_RUNNING if partial else VERDICT_NOT_SIGNIFICANT
    if experiment_id is None:
        experiment_id = os.path.splitext(os.path.basename(log_path))[0]
    last = rows[-1] if rows else None
    record = DecisionRecord(
        experiment_id=experiment_id,
        method=method,
        verdict=verdict,
        n=result.events_used,
        n0=0 if last is None else last.n0,
        n1=0 if last is None else last.n1,
        peek_count=len(rows),
        n_at_decision=crossed_at,
        lower=None if last is None else last.lower,
        upper=None if last is None else last.upper,
        statistic=statistic,
        params={"alpha": params.alpha, "rho2": params.rho2, "theta0": theta0},
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trajectory.csv"), "w", encoding="utf-8") as fh:
            fh.write(format_trajectory_csv(rows))
        with open(os.path.join(out_dir, "decision.json"), "w", encoding="utf-8") as fh:
            json.dump(record.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return record, rows


def format_trajectory_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("n,n0,n1,center,lower,upper,verdict\n")
    for r in rows:
        center = "" if r.center is None else repr(r.center)
        lo = "" if r.lower is None else repr(r.lower)
        hi = "" if r.upper is None else repr(r.upper)
        buf.write(f"{r.n},{r.n0},{r.n1},{center},{lo},{hi},{r.verdict}\n")
    return buf.getvalue()


@dataclass(frozen=True)
class CrossTab:
    """2x2 agreement table between the fixed-horizon and anytime verdicts."""

    fht_sig_cs_sig: int
    fht_sig_cs_not: int
    fht_not_cs_sig: int
    fht_not_cs_not: int

    @property
    def total(self) -> int:
        return self.fht_sig_cs_sig + self.fht_sig_cs_not + self.fht_not_cs_sig + self.fht_not_cs_not

    @property
    def row_totals(self) -> tuple[int, int]:
        return (self.fht_sig_cs_sig + self.fht_sig_cs_not, self.fht_not_cs_sig + self.fht_not_cs_not)

    @property
    def col_totals(self) -> tuple[int, int]:
        return (self.fht_sig_cs_sig + self.fht_not_cs_sig, self.fht_sig_cs_not + self.fht_not_cs_not)

    def percentages(self) -> tuple[str, str, str, str]:
        return tuple(
            _format_pct(c, self.total)
            for c in (self.fht_sig_cs_sig, self.fht_sig_cs_not, self.fht_not_cs_sig, self.fht_not_cs_not)
        )

    def format_table(self) -> str:
        p = self.percentages()
        rows = [
            ["", "AsympCS Significant", "AsympCS Not Significant", "Total"],
            [
                "FHT Significant",
                f"{p[0]} ({self.fht_sig_cs_sig})",
                f"{p[1]} ({self.fht_sig_cs_not})",
                str(self.row_totals[0]),
            ],
            [
                "FHT Not Significant",
                f"{p[2]} ({self.fht_not_cs_sig})",
                f"{p[3]} ({self.fht_not_cs_not})",
                str(self.row_totals[1]),
            ],
            ["Total", str(self.col_totals[0]), str(self.col_totals[1]), str(self.total)],
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)

    def to_dict(self) -> dict:
        p = self.percentages()
        return {
            "counts": {
                "fht_sig_cs_sig": self.fht_sig_cs_sig,
                "fht_sig_cs_not": self.fht_sig_cs_not,
                "fht_not_cs_sig": self.fht_not_cs_sig,
                "fht_not_cs_not": self.fht_not_cs_not,
            },
            "percentages": {
                "fht_sig_cs_sig": p[0],
                "fht_sig_cs_not": p[1],
                "fht_not_cs_sig": p[2],
                "fht_not_cs_not": p[3],
            },
            "row_totals": list(self.row_totals),
            "col_totals": list(self.col_totals),
            "total": self.total,
        }


def _format_pct(count: int, total: int) -> str:
    if total == 0:
        return "0%"
    pct = 100.0 * count / total
    if 0.0 < pct < 1.0:
        return f"{pct:.1f}%"
    return f"{round(pct):.0f}%"


def crosstab(records) -> CrossTab:
    """Pair decision records by experiment and tabulate verdict agreement.

    Each experiment must contribute exactly one fixed-horizon
    (``fht-peeking``) record and one anytime (``asympcs``) record, both
    with final (non-running) verdicts.
    """
    by_experiment: dict[str, dict[str, str]] = {}
    for record in records:
        if record.method == "fht-peeking":
            side = "fht"
        elif record.method == "asympcs":
            side = "cs"
        else:
            raise UnpairedRecordError(f"method {record.method!r} does not belong to either side")
        if record.verdict == VERDICT_RUNNING:
            raise UnpairedRecordError(f"experiment {record.experiment_id!r} has a running verdict")
        slot = by_experiment.setdefault(record.experiment_id, {})
        if side in slot:
            raise UnpairedRecordError(f"experiment {record.experiment_id!r} has duplicate {side} records")
        slot[side] = record.verdict
    counts = {"ss": 0, "sn": 0, "ns": 0, "nn": 0}
    for experiment_id, slot in by_experiment.items():
        if set(slot) != {"fht", "cs"}:
            raise UnpairedRecordError(f"experiment {experiment_id!r} is missing a record")
        fht_sig = slot["fht"] == VERDICT_SIGNIFICANT
        cs_sig = slot["cs"] == VERDICT_SIGNIFICANT
        key = ("s" if fht_sig else "n") + ("s" if cs_sig else "n")
        counts[key] += 1
    return CrossTab(counts["ss"], counts["sn"], counts["ns"], counts["nn"])
