"""Per-layer spans and counters from outside the program.

A ``Tracer`` replaces each layer's public function at the module
attribute where its caller looks it up, times every call as a span, and
counts the work the call covered. ``restore`` puts every original back.
A span's self time is its duration minus that of the spans it
encloses; a layer's busy time sums only its outermost spans, so a
kernel that calls a sibling kernel is not counted twice. Whatever no
span covers is the CLI's own self time, so on every workload the layer
times add up to the traced wall time.
"""

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# Per-layer metric -> (unit, better); every traced run reports all of
# them, with 0 for layers the workload does not reach.
PER_LAYER = {
    "engine.parse_events.busy_s": ("s", "lower"),
    "engine.parse_events.events": ("count", "higher"),
    "engine.parse_events.us_per_event": ("us", "lower"),
    "engine.ingest.busy_s": ("s", "lower"),
    "engine.ingest.events": ("count", "higher"),
    "engine.ingest.snapshots": ("count", "higher"),
    "engine.ingest.us_per_event": ("us", "lower"),
    "engine.analyze_snapshots.busy_s": ("s", "lower"),
    "engine.analyze_snapshots.snapshots": ("count", "higher"),
    "engine.analyze_snapshots.us_per_snapshot": ("us", "lower"),
    "engine.analyze_snapshots.useful_ratio": ("ratio", "higher"),
    "engine.write.busy_s": ("s", "lower"),
    "engine.write.bytes": ("bytes", "lower"),
    "confseq.asympcs_ate.calls": ("count", "lower"),
    "confseq.asympcs_ate.busy_s": ("s", "lower"),
    "bayes.bht_decide.calls": ("count", "lower"),
    "bayes.bht_decide.busy_s": ("s", "lower"),
    "bayes.beta_prob_greater.calls": ("count", "lower"),
    "bayes.beta_prob_greater.terms": ("count", "lower"),
    "gst.compute_boundaries.calls": ("count", "lower"),
    "gst.compute_boundaries.busy_s": ("s", "lower"),
    "simlab.streams.two_arm_count_matrices.calls": ("count", "lower"),
    "simlab.streams.two_arm_count_matrices.useful_ratio": ("ratio", "higher"),
    "simlab.streams.two_arm_count_matrices.busy_s": ("s", "lower"),
    "simlab.streams.two_arm_count_matrices.cells": ("count", "lower"),
    "simlab.streams.single_arm_count_matrices.busy_s": ("s", "lower"),
    "simlab.streams.single_arm_count_matrices.cells": ("count", "lower"),
    "simlab.methods.reject.busy_s": ("s", "lower"),
    "simlab.methods.reject.cells": ("count", "lower"),
    "simlab.methods.bht_single_losses.busy_s": ("s", "lower"),
    "simlab.methods.bht_single_losses.cells": ("count", "lower"),
    "simlab.methods.bht_single_losses.useful_ratio": ("ratio", "higher"),
    "simlab.methods.betainc.evaluations": ("count", "lower"),
    "simlab.methods.crossing.busy_s": ("s", "lower"),
    "simlab.studies.self_s": ("s", "lower"),
    "simlab.report.write.busy_s": ("s", "lower"),
    "simlab.report.write.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Entry points of the vector rule kernels that the studies call.
REJECT_KERNELS = ("ate_reject", "lift_reject", "msprt_reject", "z_reject", "bf_reject", "z_statistic_arrays")
STUDIES = ("run_type1_study", "run_stop_quality_study")
INTERVAL_RULES = ("asympcs", "asympcs-lift", "msprt", "fht-peeking")
_END = object()


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    def __init__(self):
        self._patches = []
        self._stack = []          # open spans: [name, start, time in child spans]
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stream_inputs = set()
        self._report_paths = []

    # -- spans ---------------------------------------------------------
    def _account(self, name: str, duration: float, child_time: float) -> None:
        if all(frame[0] != name for frame in self._stack):
            self.busy[name] += duration
        self.self_time[name] += duration - child_time
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, count=None):
        """Wrap a function so each call is a span; ``count(args, kwargs, result)`` runs on outermost calls."""

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outermost = all(frame[0] != name for frame in self._stack)
                self._stack.append([name, perf_counter(), 0.0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    frame = self._stack.pop()
                    self._account(name, perf_counter() - frame[1], frame[2])
                if count is not None and outermost:
                    count(args, kwargs, result)
                return result

            return wrapper

        return wrap

    def _timed_parse(self, fn):
        """``parse_events`` is a generator: time each ``next()`` in place."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            events = fn(*args, **kwargs)

            def timed():
                busy, seen = 0.0, 0
                try:
                    while True:
                        start = perf_counter()
                        item = next(events, _END)
                        busy += perf_counter() - start
                        if item is _END:
                            return
                        seen += 1
                        yield item
                finally:
                    # Consumed inside ingest, so it is a child of that span.
                    self._account("engine.parse_events", busy, 0.0)
                    self.counts["engine.parse_events.events"] += seen

            return timed()

        return wrapper

    def _counted(self, *counters):
        """Wrap a function so each call adds ``amount(args)`` to each named counter; no span."""

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for name, amount in counters:
                    self.counts[name] += amount(args)
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    # -- counters --------------------------------------------------------
    def _calls(self, name: str):
        def count(args, kwargs, result):
            self.counts[name] += 1

        return count

    def _count_ingest(self, args, kwargs, result):
        self.counts["engine.ingest.events"] += result.events_seen
        self.counts["engine.ingest.snapshots"] += len(result.snapshots)

    def _count_snapshots(self, args, kwargs, result):
        rows, crossed_at, _ = result
        method = args[1] if len(args) > 1 else kwargs["method"]
        self.counts["engine.analyze_snapshots.snapshots"] += len(rows)
        if method in INTERVAL_RULES:
            return  # every row's interval is written, so the ratio covers stat-only rules only
        useful = len(rows)
        if crossed_at is not None:
            useful = next(i for i, row in enumerate(rows) if row.n == crossed_at) + 1
        self.counts["engine.analyze_snapshots.stat_snapshots"] += len(rows)
        self.counts["engine.analyze_snapshots.useful"] += useful

    def _count_write(self, args, kwargs, result):
        out_dir = kwargs.get("out_dir")
        if out_dir is not None:
            self.counts["engine.write.bytes"] += _file_bytes(
                os.path.join(out_dir, "trajectory.csv"), os.path.join(out_dir, "decision.json")
            )

    def _count_two_arm(self, args, kwargs, result):
        seed, reps, grid, p0, p1 = args
        self.counts["simlab.streams.two_arm_count_matrices.calls"] += 1
        self.counts["simlab.streams.two_arm_count_matrices.cells"] += result[0].size
        self._stream_inputs.add((seed, reps, grid.tobytes(), p0, p1))

    def _count_cells(self, name: str, index: int = 0):
        def count(args, kwargs, result):
            self.counts[name] += (result[index] if isinstance(result, tuple) else result).size

        return count

    def _count_report(self, args, kwargs, result):
        self._report_paths.append(args[1])
        self.counts["simlab.report.write.bytes"] += _file_bytes(args[1])

    # -- install / restore ---------------------------------------------
    def _patch(self, obj, attr: str, wrap) -> None:
        original = getattr(obj, attr)
        self._patches.append((obj, attr, original))
        setattr(obj, attr, wrap(original))

    def install(self) -> None:
        from anytime_ab import bayes, cli, engine, simlab
        from anytime_ab.simlab import methods, streams, studies

        p = self._patch
        p(cli, "analyze", self.span("engine.analyze", self._count_write))
        p(engine, "parse_events", self._timed_parse)
        p(engine, "ingest", self.span("engine.ingest", self._count_ingest))
        p(engine, "analyze_snapshots", self.span("engine.analyze_snapshots", self._count_snapshots))
        p(engine, "asympcs_ate", self.span("confseq.asympcs_ate", self._calls("confseq.asympcs_ate.calls")))
        p(engine, "bht_decide", self.span("bayes.bht_decide", self._calls("bayes.bht_decide.calls")))
        p(bayes, "beta_prob_greater", self._counted(
            ("bayes.beta_prob_greater.calls", lambda a: 1), ("bayes.beta_prob_greater.terms", lambda a: round(a[0]))))
        for study in STUDIES:
            p(simlab, study, self.span("simlab.studies"))
        p(studies, "compute_boundaries",
          self.span("gst.compute_boundaries", self._calls("gst.compute_boundaries.calls")))
        p(streams, "two_arm_count_matrices",
          self.span("simlab.streams.two_arm_count_matrices", self._count_two_arm))
        p(streams, "single_arm_count_matrices",
          self.span("simlab.streams.single_arm_count_matrices",
                    self._count_cells("simlab.streams.single_arm_count_matrices.cells", 1)))
        for kernel in REJECT_KERNELS:
            p(methods, kernel, self.span("simlab.methods.reject", self._count_cells("simlab.methods.reject.cells")))
        p(methods, "bht_single_losses",
          self.span("simlab.methods.bht_single_losses",
                    self._count_cells("simlab.methods.bht_single_losses.cells")))
        p(methods, "betainc", self._counted(("simlab.methods.betainc.evaluations", lambda a: np.broadcast(*a).size)))
        for fn in ("first_crossing", "cumulative_fraction"):
            p(methods, fn, self.span("simlab.methods.crossing"))
        for fn in ("write_json", "write_csv"):
            p(simlab, fn, self.span("simlab.report.write", self._count_report))

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results ---------------------------------------------------------
    def totals(self, wall_s: float) -> dict:
        """Additive totals of one traced command; ``layer_metrics`` turns summed totals into metrics."""
        counts = dict(self.counts)
        counts["simlab.streams.two_arm_count_matrices.distinct"] = len(self._stream_inputs)
        counts["simlab.methods.bht_single_losses.useful"] = self._bht_useful_cells()
        return {"wall_s": wall_s, "busy": dict(self.busy), "self": dict(self.self_time), "counts": counts}

    def _bht_useful_cells(self) -> float:
        """Cells up to and including each replication's first crossing, from report.json's curve."""
        if not self.counts["simlab.methods.bht_single_losses.cells"]:
            return 0.0
        path = next(p for p in self._report_paths if p.endswith(".json"))
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)[0]
        curve = report["cumulative_rejection_by_peek"]
        return report["replications"] * sum(1.0 - c for c in [0.0] + curve[:-1])


def add_totals(a: dict, b: dict) -> dict:
    """Sum two ``Tracer.totals`` results key by key."""
    out = {"wall_s": a["wall_s"] + b["wall_s"]}
    for part in ("busy", "self", "counts"):
        keys = set(a[part]) | set(b[part])
        out[part] = {k: a[part].get(k, 0.0) + b[part].get(k, 0.0) for k in keys}
    return out


def layer_metrics(totals: dict) -> dict:
    """Every per-layer metric except ``trace.overhead_ratio``, from (summed) totals."""
    busy, own, c = (defaultdict(float, totals[k]) for k in ("busy", "self", "counts"))
    wall_s = totals["wall_s"]

    def per(total, n, scale=1e6):
        return total / n * scale if n else 0.0

    return {
        "engine.parse_events.busy_s": busy["engine.parse_events"],
        "engine.parse_events.events": c["engine.parse_events.events"],
        "engine.parse_events.us_per_event": per(busy["engine.parse_events"], c["engine.parse_events.events"]),
        "engine.ingest.busy_s": own["engine.ingest"],
        "engine.ingest.events": c["engine.ingest.events"],
        "engine.ingest.snapshots": c["engine.ingest.snapshots"],
        "engine.ingest.us_per_event": per(own["engine.ingest"], c["engine.ingest.events"]),
        "engine.analyze_snapshots.busy_s": busy["engine.analyze_snapshots"],
        "engine.analyze_snapshots.snapshots": c["engine.analyze_snapshots.snapshots"],
        "engine.analyze_snapshots.us_per_snapshot": per(
            busy["engine.analyze_snapshots"], c["engine.analyze_snapshots.snapshots"]),
        "engine.analyze_snapshots.useful_ratio": per(
            c["engine.analyze_snapshots.useful"], c["engine.analyze_snapshots.stat_snapshots"], 1.0),
        "engine.write.busy_s": own["engine.analyze"],
        "engine.write.bytes": c["engine.write.bytes"],
        "confseq.asympcs_ate.calls": c["confseq.asympcs_ate.calls"],
        "confseq.asympcs_ate.busy_s": busy["confseq.asympcs_ate"],
        "bayes.bht_decide.calls": c["bayes.bht_decide.calls"],
        "bayes.bht_decide.busy_s": busy["bayes.bht_decide"],
        "bayes.beta_prob_greater.calls": c["bayes.beta_prob_greater.calls"],
        "bayes.beta_prob_greater.terms": c["bayes.beta_prob_greater.terms"],
        "gst.compute_boundaries.calls": c["gst.compute_boundaries.calls"],
        "gst.compute_boundaries.busy_s": busy["gst.compute_boundaries"],
        "simlab.streams.two_arm_count_matrices.calls": c["simlab.streams.two_arm_count_matrices.calls"],
        "simlab.streams.two_arm_count_matrices.useful_ratio": per(
            c["simlab.streams.two_arm_count_matrices.distinct"], c["simlab.streams.two_arm_count_matrices.calls"], 1.0),
        "simlab.streams.two_arm_count_matrices.busy_s": busy["simlab.streams.two_arm_count_matrices"],
        "simlab.streams.two_arm_count_matrices.cells": c["simlab.streams.two_arm_count_matrices.cells"],
        "simlab.streams.single_arm_count_matrices.busy_s": busy["simlab.streams.single_arm_count_matrices"],
        "simlab.streams.single_arm_count_matrices.cells": c["simlab.streams.single_arm_count_matrices.cells"],
        "simlab.methods.reject.busy_s": busy["simlab.methods.reject"],
        "simlab.methods.reject.cells": c["simlab.methods.reject.cells"],
        "simlab.methods.bht_single_losses.busy_s": busy["simlab.methods.bht_single_losses"],
        "simlab.methods.bht_single_losses.cells": c["simlab.methods.bht_single_losses.cells"],
        "simlab.methods.bht_single_losses.useful_ratio": per(
            c["simlab.methods.bht_single_losses.useful"], c["simlab.methods.bht_single_losses.cells"], 1.0),
        "simlab.methods.betainc.evaluations": c["simlab.methods.betainc.evaluations"],
        "simlab.methods.crossing.busy_s": busy["simlab.methods.crossing"],
        "simlab.studies.self_s": own["simlab.studies"],
        "simlab.report.write.busy_s": busy["simlab.report.write"],
        "simlab.report.write.bytes": c["simlab.report.write.bytes"],
        "cli.self_s": wall_s - sum(own.values()),  # self times tile the part of the wall inside spans
        "trace.wall_s": wall_s,
    }
