import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anytime_ab import engine
from anytime_ab.bayes import BetaPosterior, BhtConfig, NonBinaryOutcomeError, binary_counts
from anytime_ab.cli import main as cli_main
from anytime_ab.confseq import ConfSeqParams, msprt_log_lambda, two_sample_scale
from anytime_ab.engine import (
    CrossTab,
    DecisionRecord,
    EventRecord,
    LogParseError,
    UnpairedRecordError,
    _coerce_event,
    analyze,
    analyze_snapshots,
    crosstab,
    ingest,
    parse_events,
)
from anytime_ab.gst import ScheduleMismatchError, compute_boundaries
from anytime_ab.moments import StreamingMoments
from anytime_ab.simlab import SimStudyConfig, run_type1_study
from test_bayes import mp_expected_loss

PARAMS = ConfSeqParams(0.05, 1e-3)


def write_jsonl(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for ts, unit, arm, value in events:
            fh.write(json.dumps({"ts": ts, "unit": unit, "arm": arm, "value": value}) + "\n")


def bernoulli_log(path, rng, n_events, p0, p1):
    events = []
    for i in range(n_events):
        arm = int(rng.random() < 0.5)
        p = p1 if arm == 1 else p0
        events.append((i, f"u{i}", arm, float(rng.random() < p)))
    write_jsonl(path, events)


def digest_log(path, seed, p0, p1, n_events=2_000):
    """A seeded binary log with repeated units, as JSONL or CSV by suffix."""
    rng = np.random.default_rng(seed)
    arms = (rng.random(n_events) < 0.5).astype(int)
    values = (rng.random(n_events) < np.where(arms == 1, p1, p0)).astype(float)
    units = rng.integers(0, n_events * 3 // 4, n_events)
    with open(path, "w", encoding="utf-8") as fh:
        if path.suffix == ".csv":
            fh.write("ts,unit,arm,value\n")
            for i, (unit, arm, value) in enumerate(zip(units, arms, values)):
                fh.write(f"{i},u{unit},{arm},{value}\n")
        else:
            for i, (unit, arm, value) in enumerate(zip(units, arms, values)):
                fh.write(json.dumps({"ts": i, "unit": f"u{unit}", "arm": int(arm), "value": float(value)}) + "\n")


# sha256 of trajectory.csv + decision.json, keyed "log-format-method-dedup-cadence",
# recorded before parsing and ingestion were rewritten to decode each line once
# and fold plain floats: analyze outputs stay byte-identical. A JSONL log and
# its CSV twin give the same files. The five bht digests were re-pinned when
# the exact loss moved to a term-ratio sum: their trajectories are unchanged,
# and each decision's statistic moved in its last digits, towards the mpmath
# value that test_bht_statistic_matches_mpmath pins.
DIGEST_LOGS = {"effect": (11, 0.10, 0.16), "null": (29, 0.30, 0.30)}
ANALYZE_DIGESTS = {
    "effect-csv-asympcs-all-100": "54dd88069b842c3eb2a55dfb8c37ee73118fd4c5db7c66eb28800b18a94486ec",
    "effect-csv-bht-all-100": "cec167928c321e1376642db1fad01a8863ddd4051a324de2c292ee05ff3c7ccb",
    "effect-csv-msprt-all-100": "37b85fea0aa8f1862d303ed27253e6cceee1d8e8ee49c85393d0e9251bc93157",
    "effect-jsonl-asympcs-all-100": "54dd88069b842c3eb2a55dfb8c37ee73118fd4c5db7c66eb28800b18a94486ec",
    "effect-jsonl-bht-all-100": "cec167928c321e1376642db1fad01a8863ddd4051a324de2c292ee05ff3c7ccb",
    "effect-jsonl-bht-dedup-7": "625a17137e63b8bfc260f5717468cd462162961e58e136a2b5cbe3a0dd0d8eb7",
    "effect-jsonl-msprt-all-100": "37b85fea0aa8f1862d303ed27253e6cceee1d8e8ee49c85393d0e9251bc93157",
    "null-csv-asympcs-all-100": "39ca0de3890219dac3b1aa2dd18407015a8009d96ea33d53d18056f4b178d38f",
    "null-csv-bht-all-100": "c755057a03e0702584e6f9ece2d21250b7f22c530cff0d95a7eee6134c4ef6c0",
    "null-csv-msprt-all-100": "0d3f95606b97c705fc53c77c92bd5fa2fdf03c6e3910372b96d5e0bf8add97cc",
    "null-jsonl-asympcs-all-100": "39ca0de3890219dac3b1aa2dd18407015a8009d96ea33d53d18056f4b178d38f",
    "null-jsonl-bht-all-100": "c755057a03e0702584e6f9ece2d21250b7f22c530cff0d95a7eee6134c4ef6c0",
    "null-jsonl-msprt-all-100": "0d3f95606b97c705fc53c77c92bd5fa2fdf03c6e3910372b96d5e0bf8add97cc",
}
# The same digest for the rules and flags the table above leaves out, on the
# JSONL logs with every event used, keyed "log/method/cadence[/intersect]"
# since method names hold hyphens. The ldm cases use ten equally spaced
# peeks, one per snapshot at cadence 200. Recorded while each snapshot was
# still a pair of accumulator objects.
MORE_ANALYZE_DIGESTS = {
    "effect/asympcs-lift/100": "36ed4f124304f5e689f387991cf8359b9bdaecb07f27f8bec6c90c3e1da8eea2",
    "effect/asympcs/100/intersect": "2f4a417478567739fc0f66d0d87ca73757e62461a6cbfc77a129df7081b53792",
    "effect/bf/100": "99634527944116e2da2165a1e0063cb3f4cd2c7741276da8638d63e5bafb4a73",
    "effect/fht-peeking/100": "3e7facd44f650930bb05f338231b3041b5ba913d669cd4d338c2fa063e627b99",
    "effect/ldm/200": "21aa1774b03d13c3c5cb405e65cff19bfdba6c94a0171e74d8fe27e3b6c1d2ca",
    "null/asympcs-lift/100": "953191fe444fd7ad095c9910abcd4e314fae453f440b45251f318d420ca08b0f",
    "null/asympcs/100/intersect": "3d473949e85871f243d9092ae41862b672688fe168d8841972f1dcae097ad9ba",
    "null/bf/100": "9ff98709a770f3a935fd5bfc95f0fffb0877a6794fa25d18cb20397241d7c887",
    "null/fht-peeking/100": "2f5e33a32eea6bf7ae24d5ae6bf4cf22e5fd5c8cf2ff57f4a3b2692c84e34443",
    "null/ldm/200": "33495df9a7d37e1a781b87749738b4357b31127ecc61d02c329ba4f8169ca1e9",
}


def json_loads_error(line):
    """The LogParseError message for a line, from ``json.loads`` on that line."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except RecursionError:
        return "invalid JSON: nested too deeply"
    raise AssertionError(f"{line[:40]!r} is valid JSON")


def reference_parse(path):
    """``parse_events`` as one ``json.loads`` per line: the pairs read, then the error or None."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError):
                return pairs, f"line {line_no}: {json_loads_error(line)}"
            try:
                pairs.append((line_no, _coerce_event(obj, line_no)))
            except LogParseError as exc:
                return pairs, str(exc)
    return pairs, None


def program_parse(path):
    pairs = []
    try:
        for pair in parse_events(str(path)):
            pairs.append(pair)
    except LogParseError as exc:
        return pairs, str(exc)
    return pairs, None


def dictreader_parse(path):
    """``parse_events`` on a CSV log as ``csv.DictReader`` rows: the pairs read, then the error or None."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                pairs.append((reader.line_num, _coerce_event(row, reader.line_num)))
        except LogParseError as exc:
            return pairs, str(exc)
        except csv.Error as exc:
            return pairs, f"line {reader.reader.line_num}: invalid CSV: {exc}"
    return pairs, None


VALID_LINE = '{"ts": 1, "unit": "a", "arm": 0, "value": 1.0}'
# Lines that a bulk "[" + ",".join(lines) + "]" decode reads as three events.
BULK_JOIN_LINES = [
    '{"ts": 1, "unit": "a", "arm": 0, "value": 1, "x": "}',
    '{", "y": 1}',
    '{"ts": 2, "unit": "b", "arm": 1, "value": 0}, {"ts": 3, "unit": "c", "arm": 0, "value": 1}',
]


class TestParse:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        result = ingest(parse_events(str(path)))
        assert result.events_used == 0
        assert result.snapshots == []

    def test_four_line_fixture(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(path, [(1, "a", 0, 1.0), (2, "b", 1, 3.0), (3, "c", 0, 2.0), (4, "d", 1, 5.0)])
        result = ingest(parse_events(str(path)), snapshot_every=2)
        _, count0, mean0, _, count1, mean1, _ = result.snapshots[-1]
        assert count0 == 2
        assert mean0 == pytest.approx(1.5)
        assert count1 == 2
        assert mean1 == pytest.approx(4.0)
        assert [row[0] for row in result.snapshots] == [2, 4]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("ts,unit,arm,value\n1,a,0,1.0\n2,b,1,0.0\n")
        result = ingest(parse_events(str(path)))
        assert result.snapshots[-1][1] == 1 and result.snapshots[-1][4] == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        # The line number, and the message json.loads gives for the line.
        path = tmp_path / "log.jsonl"
        bad_lines = (
            "not json",
            "{} {}",
            "\ufeff" + VALID_LINE,
            "[" * 200_000,
            '{"ts": 1, "unit": "a", "arm": 0, "value": 1,}',
            VALID_LINE + " x",
        )
        for bad_line in bad_lines:
            path.write_text(VALID_LINE + "\n" + bad_line + "\n", encoding="utf-8")
            with pytest.raises(LogParseError) as err:
                list(parse_events(str(path)))
            assert err.value.line_no == 2
            assert str(err.value) == f"line 2: {json_loads_error(bad_line)}", bad_line[:20]

    def test_csv_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("ts,unit,arm,value\n1,a,0,1\n\n\n2,b,7,0\n")
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert err.value.line_no == 5

    def test_csv_line_number_counts_quoted_newlines(self, tmp_path):
        # A row's number is the file line where it ends.
        path = tmp_path / "log.csv"
        path.write_text('ts,unit,arm,value\n1,"a\nb",0,1\n2,"c\n\nd",1,0\n3,e,2,0\n')
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert err.value.line_no == 7
        path.write_text('ts,unit,arm,value\n1,"a\nb",0,1\n2,"c\n\nd",1,0\n')
        pairs = list(parse_events(str(path)))
        assert [n for n, _ in pairs] == [3, 6]
        assert [rec.unit for _, rec in pairs] == ["a\nb", "c\n\nd"]

    def test_csv_oversized_field_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("ts,unit,arm,value\n1,a,0,1\n2," + "x" * 200_000 + ",1,0\n3,c,0,1\n")
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert err.value.line_no == 3
        code = cli_main(["analyze", "--log", str(path), "--method", "asympcs", "--out", str(tmp_path / "out")])
        err_text = capsys.readouterr().err
        assert code == 2
        assert err_text.startswith("error: line 3: invalid CSV:")
        assert "Traceback" not in err_text

    @pytest.mark.parametrize(
        "ts, value",
        [("2", "1" + "0" * 400), ("1e400", "0"), ("2", "1" + "0" * 5000)],
        ids=["value-beyond-float", "ts-beyond-float", "value-too-many-digits"],
    )
    def test_huge_number_exits_2_with_line_number(self, tmp_path, capsys, ts, value):
        # JSON reads each number, but no float holds it (1e400 reads as inf)
        # or Python will not convert its digits.
        path = tmp_path / "log.jsonl"
        path.write_text(f'{VALID_LINE}\n{{"ts": {ts}, "unit": "b", "arm": 1, "value": {value}}}\n')
        code = cli_main(["analyze", "--log", str(path), "--method", "asympcs", "--out", str(tmp_path / "out")])
        err_text = capsys.readouterr().err
        assert code == 2
        assert err_text.startswith("error: line 2: ")
        assert "Traceback" not in err_text

    def test_unknown_arm_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for arm in (2, 1.7, 1.0, True, False, "1.0", " 1", None, [1]):
            write_jsonl(path, [(1, "a", 0, 1.0), (2, "b", arm, 1.0)])
            with pytest.raises(LogParseError) as err:
                list(parse_events(str(path)))
            assert err.value.line_no == 2, arm

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts": 1, "unit": "a", "arm": 0, "value": "nan"}\n')
        with pytest.raises(LogParseError):
            list(parse_events(str(path)))


class TestCsvRows:
    """CSV rows become the dicts csv.DictReader makes of them."""

    def parse(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        result = program_parse(path)
        assert result == dictreader_parse(path)
        return result

    def test_empty_rows_skipped(self, tmp_path):
        pairs, error = self.parse(tmp_path, "ts,unit,arm,value\n\n1,a,0,1\n\n\n2,b,1,0\n\n")
        assert error is None
        assert [(n, rec.unit) for n, rec in pairs] == [(3, "a"), (6, "b")]

    def test_missing_fields_are_none(self, tmp_path):
        pairs, error = self.parse(tmp_path, "ts,unit,arm,value\n1,a,0,1\n2,b,1\n")
        assert len(pairs) == 1
        assert error == "line 3: bad event fields: float() argument must be a string or a real number, not 'NoneType'"

    def test_extra_fields_ignored(self, tmp_path):
        pairs, error = self.parse(tmp_path, "ts,unit,arm,value\n1,a,0,1,x,,y\n")
        assert error is None
        assert pairs == [(2, EventRecord(1, "a", 0, 1.0))]

    def test_repeated_header_name_keeps_last_column(self, tmp_path):
        pairs, error = self.parse(tmp_path, "ts,value,unit,arm,value\n1,x,a,0,7\n")
        assert error is None
        assert pairs == [(2, EventRecord(1, "a", 0, 7.0))]
        # A row too short for the last column has that field missing.
        _, error = self.parse(tmp_path, "ts,value,unit,arm,value\n1,7,a,0\n")
        assert error.startswith("line 2: bad event fields:") and "NoneType" in error

    @pytest.mark.parametrize("text", ["", "ts,unit,arm,value\n", "ts,unit,arm,value\n\n\n"])
    def test_header_only_or_empty_file_yields_no_events(self, tmp_path, text):
        assert self.parse(tmp_path, text) == ([], None)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.sampled_from(["ts", "unit", "arm", "value", "x", ""]), max_size=6),
        st.lists(st.lists(st.sampled_from(["1", "0", "a", "", "2.5", "x", '"q,\n"']), max_size=7), max_size=8),
    )
    def test_rows_match_dictreader(self, tmp_path, header, rows):
        self.parse(tmp_path, "\n".join(",".join(fields) for fields in [header, *rows]) + "\n")


class TestDecodeParity:
    def test_bulk_join_counterexample_fails_at_line_1(self, tmp_path):
        assert len(json.loads("[" + ",".join(BULK_JOIN_LINES) + "]")) == 3
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(BULK_JOIN_LINES) + "\n", encoding="utf-8")
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert str(err.value) == f"line 1: {json_loads_error(BULK_JOIN_LINES[0])}"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.just(VALID_LINE),
        st.builds(
            lambda ts, unit, arm, value: json.dumps({"ts": ts, "unit": unit, "arm": arm, "value": value}),
            st.one_of(st.integers(), st.just("7")), st.text(max_size=4),
            st.sampled_from([0, 1, "0", "1", 2, 1.0, True, None]),
            st.one_of(st.floats(), st.integers(-3, 3), st.just("nan")),
        ),
        st.builds(lambda head, tail: head + tail, st.just(VALID_LINE), st.text(" \t,}]x{\ufeff", max_size=3)),
        st.text('{}[]",:0123456789.e-tsunarmvlxy \t\\\ufeff', max_size=30),
        st.text(max_size=20),
    ), max_size=10))
    def test_parse_matches_per_line_json_loads(self, tmp_path, lines):
        path = tmp_path / "fuzz.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert program_parse(path) == reference_parse(path)


class TestIngest:
    def test_snapshots_equal_reference_fold(self, tmp_path):
        rng = np.random.default_rng(99)
        events = [
            (i, f"u{rng.integers(400)}", int(rng.random() < 0.5), float(rng.normal(3.0, 2.0)))
            for i in range(1_000)
        ]
        path = tmp_path / "log.jsonl"
        write_jsonl(path, events)
        for dedup in (False, True):
            # Welford's recurrence, written out here rather than taken from the program.
            arms = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
            folded = []
            units = set()
            for _, unit, arm, y in events:
                if dedup and unit in units:
                    continue
                units.add(unit)
                n, mean, m2 = arms[arm]
                n += 1
                delta = y - mean
                mean = mean + delta / n
                m2 = max(m2 + delta * (y - mean), 0.0)
                arms[arm] = (n, mean, m2)
                folded.append(tuple(arms))
            for every in (1, 7, 100):
                result = ingest(parse_events(str(path)), snapshot_every=every, dedup=dedup)
                marks = list(range(every, len(folded) + 1, every))
                if marks[-1] != len(folded):
                    marks.append(len(folded))
                expected = [(k, folded[k - 1]) for k in marks]
                got = [(row[0], (row[1:4], row[4:7])) for row in result.snapshots]
                assert got == expected

    def test_accepts_records_or_pairs(self):
        records = [EventRecord(i, f"u{i}", i % 2, float(i)) for i in range(20)]
        assert isinstance(records[0], tuple)
        bare = ingest(records, snapshot_every=3)
        paired = ingest(enumerate(records, start=1), snapshot_every=3)
        assert bare.snapshots == paired.snapshots and bare.events_used == paired.events_used == 20

    def test_dedup_first_event_wins(self):
        events = [
            EventRecord(1, "u1", 0, 1.0),
            EventRecord(2, "u1", 0, 100.0),
            EventRecord(3, "u2", 1, 2.0),
        ]
        result = ingest(events, dedup=True)
        assert result.events_used == 2
        assert result.snapshots[-1][2] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_events=st.integers(1, 3_000),
        p=st.floats(0.0, 1.0),
        n_shards=st.integers(1, 24),
    )
    @example(seed=314, n_events=100_000, p=0.1, n_shards=3)
    @example(seed=314, n_events=100_000, p=0.1, n_shards=7)
    @example(seed=314, n_events=100_000, p=0.1, n_shards=16)
    def test_sharded_last_rows_merge_to_sequential(self, seed, n_events, p, n_shards):
        # Shards keep arrival order within each shard; merging each shard's
        # last row per arm gives the sequential last row.
        rng = np.random.default_rng(seed)
        arms = (rng.random(n_events) < 0.5).astype(int)
        values = (rng.random(n_events) < p).astype(float)
        records = [EventRecord(i, f"u{i}", int(a), float(y)) for i, (a, y) in enumerate(zip(arms, values))]
        sequential = ingest(records).snapshots[-1]
        shard_of = rng.integers(0, n_shards, n_events)
        merged = [StreamingMoments(), StreamingMoments()]
        for k in range(n_shards):
            rows = ingest([r for r, s in zip(records, shard_of) if s == k]).snapshots
            if rows:
                last = rows[-1]
                merged = [acc.merge(StreamingMoments(*arm)) for acc, arm in zip(merged, (last[1:4], last[4:7]))]
        for acc, (count, mean, m2) in zip(merged, (sequential[1:4], sequential[4:7])):
            assert acc.count == count
            assert acc.mean == pytest.approx(mean, rel=1e-12)
            assert acc.m2 == pytest.approx(m2, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0, 1]), st.floats(-1e6, 1e6)), max_size=60),
        st.integers(1, 12),
        st.booleans(),
    )
    def test_cadence_rows_are_every_kth_row(self, events, every, dedup):
        records = [EventRecord(i, f"u{unit}", arm, y) for i, (unit, arm, y) in enumerate(events)]
        each = ingest(records, snapshot_every=1, dedup=dedup).snapshots
        rows = ingest(records, snapshot_every=every, dedup=dedup).snapshots
        expected = each[every - 1::every]
        if len(each) % every:
            expected.append(each[-1])
        assert rows == expected

    def test_final_partial_snapshot(self):
        events = [EventRecord(i, f"u{i}", i % 2, 1.0) for i in range(250)]
        result = ingest(events, snapshot_every=100)
        assert [row[0] for row in result.snapshots] == [100, 200, 250]


class TestAnalyze:
    def test_constant_zero_log(self, tmp_path):
        path = tmp_path / "zeros.jsonl"
        write_jsonl(path, [(i, f"u{i}", i % 2, 0.0) for i in range(400)])
        record, rows = analyze(str(path), "asympcs", PARAMS)
        assert record.verdict == "not-significant"
        for row in rows:
            assert row.lower == 0.0 and row.upper == 0.0

    def test_asympcs_calls_its_kernel_once(self, tmp_path, monkeypatch, capsys):
        # One evaluation over every snapshot column, looked up as engine.asympcs_ate.
        path = tmp_path / "log.jsonl"
        bernoulli_log(path, np.random.default_rng(5), 2_000, 0.3, 0.3)
        kernel, calls = engine.asympcs_ate, []

        def counted(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(engine, "asympcs_ate", counted)
        code = cli_main(["analyze", "--log", str(path), "--method", "asympcs", "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 0
        assert calls == [20]

    def test_partial_flag_gives_running(self, tmp_path):
        path = tmp_path / "zeros.jsonl"
        write_jsonl(path, [(i, f"u{i}", i % 2, 0.0) for i in range(400)])
        record, _ = analyze(str(path), "asympcs", PARAMS, partial=True)
        assert record.verdict == "running"

    def test_null_logs_rarely_significant(self, tmp_path):
        rng = np.random.default_rng(1618)
        not_significant = 0
        for k in range(100):
            path = tmp_path / f"aa{k}.jsonl"
            bernoulli_log(path, rng, 2_000, 0.3, 0.3)
            record, _ = analyze(str(path), "asympcs", PARAMS)
            not_significant += record.verdict == "not-significant"
        assert not_significant >= 95

    def test_byte_identical_outputs(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rng = np.random.default_rng(2)
        bernoulli_log(path, rng, 3_000, 0.3, 0.45)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        analyze(str(path), "asympcs", PARAMS, out_dir=str(out1))
        analyze(str(path), "asympcs", PARAMS, out_dir=str(out2))
        for name in ("trajectory.csv", "decision.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_effect_log_crosses(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        rng = np.random.default_rng(3)
        bernoulli_log(path, rng, 5_000, 0.2, 0.4)
        record, rows = analyze(str(path), "asympcs", PARAMS)
        assert record.verdict == "significant"
        assert record.n_at_decision is not None
        first_sig = next(r for r in rows if r.verdict == "significant")
        assert first_sig.n == record.n_at_decision

    def test_msprt_and_z_paths(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        rng = np.random.default_rng(4)
        bernoulli_log(path, rng, 4_000, 0.2, 0.35)
        for method in ("msprt", "fht-peeking", "bf", "bht"):
            record, _ = analyze(str(path), method, PARAMS)
            assert record.verdict == "significant", method
            if method == "msprt":
                # The statistic is the p-process, min(p, 1/lambda) from p = 1,
                # replayed snapshot by snapshot where the mixture test is defined.
                rows = [r for r in ingest(parse_events(str(path))).snapshots if r[0] <= record.n_at_decision]
                _, n0, mu0, m2_0, n1, mu1, m2_1 = np.array(rows, dtype=float).T
                columns = (n0, n1, mu0, mu1, m2_0 / np.maximum(n0, 1.0), m2_1 / np.maximum(n1, 1.0))
                loglam, valid = msprt_log_lambda(*two_sample_scale(*columns), PARAMS.rho2)
                p = 1.0
                for lam, ok in zip(np.exp(loglam), valid):
                    if ok:
                        p = min(p, 1.0 / lam)
                assert record.statistic == p

    def test_lift_analysis(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        rng = np.random.default_rng(5)
        bernoulli_log(path, rng, 6_000, 0.2, 0.4)
        record, rows = analyze(str(path), "asympcs-lift", PARAMS)
        assert record.verdict == "significant"
        # Constant arm means 2 and 3: the center is the lift 0.5 from the
        # first row with both arms nonempty, before either arm has two events.
        path = tmp_path / "constant.jsonl"
        write_jsonl(path, [(i, f"u{i}", i % 2, 2.0 + i % 2) for i in range(10)])
        _, rows = analyze(str(path), "asympcs-lift", PARAMS, snapshot_every=1)
        assert [r.center for r in rows] == [None] + [0.5] * 9

    def test_lift_rule_tests_theta0(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        bernoulli_log(path, np.random.default_rng(5), 6_000, 0.2, 0.4)
        at_zero, _ = analyze(str(path), "asympcs-lift", PARAMS)
        shifted, _ = analyze(str(path), "asympcs-lift", PARAMS, theta0=0.05)
        # The interval must clear a lift of 0.05, not just 0, so it crosses later.
        assert at_zero.n_at_decision is not None and shifted.n_at_decision is not None
        assert shifted.n_at_decision > at_zero.n_at_decision
        assert shifted.params["theta0"] == 0.05

    def test_bf_rejects_non_binary(self, tmp_path):
        path = tmp_path / "metric.jsonl"
        # A continuous metric, and one whose means overflow to NaN.
        for values in ([0.5 + 0.1 * i for i in range(300)], [(-1) ** (i // 2) * 1e308 for i in range(300)]):
            write_jsonl(path, [(i, f"u{i}", i % 2, y) for i, y in enumerate(values)])
            with pytest.raises(NonBinaryOutcomeError):
                analyze(str(path), "bf", PARAMS)

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(path, [(1, "a", 0, 1.0)])
        with pytest.raises(ValueError):
            analyze(str(path), "magic", PARAMS)

    def test_intersect_mode_narrows(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        rng = np.random.default_rng(6)
        bernoulli_log(path, rng, 3_000, 0.3, 0.3)
        _, plain = analyze(str(path), "asympcs", PARAMS)
        _, intersected = analyze(str(path), "asympcs", PARAMS, intersect=True)
        for p, q in zip(plain, intersected):
            if p.lower is None:
                continue
            assert q.lower >= p.lower - 1e-15
            assert q.upper <= p.upper + 1e-15

    @pytest.mark.parametrize("magnitude", [1e160, 1e308])
    def test_overflowed_bounds_never_cross(self, tmp_path, magnitude):
        # Squares of 1e160 and sums of 1e308 overflow: a null log must not
        # turn the resulting NaN or wrong-side infinite bounds into a verdict.
        signs = np.where(np.random.default_rng(0).random(400) < 0.5, 1.0, -1.0)
        path = tmp_path / "huge.jsonl"
        write_jsonl(path, [(i, f"u{i}", i % 2, s * magnitude) for i, s in enumerate(signs)])
        for method in ("asympcs", "asympcs-lift", "msprt", "fht-peeking"):
            for every in (1, 100):
                if method == "fht-peeking" and every == 1:
                    continue  # its zero-variance first peek crosses at any scale
                for intersect in (False, True):
                    record, _ = analyze(str(path), method, PARAMS, snapshot_every=every, intersect=intersect)
                    assert record.verdict == "not-significant", (method, every, intersect)

    def test_ldm_analysis_with_schedule(self, tmp_path):
        path = tmp_path / "ab.jsonl"
        rng = np.random.default_rng(8)
        bernoulli_log(path, rng, 1_000, 0.2, 0.45)
        schedule = compute_boundaries((np.arange(1, 11) / 10.0).tolist(), 0.05)
        record, rows = analyze(str(path), "ldm", PARAMS, schedule=schedule, snapshot_every=100)
        assert record.verdict == "significant"
        assert record.peek_count == 10
        with pytest.raises(ScheduleMismatchError):
            analyze(str(path), "ldm", PARAMS, schedule=schedule, snapshot_every=50)
        with pytest.raises(ValueError):
            analyze(str(path), "ldm", PARAMS)

    @pytest.mark.parametrize("case", sorted(ANALYZE_DIGESTS))
    def test_analyze_digest_pinned(self, tmp_path, case):
        log, fmt, method, dedup, every = case.split("-")
        path = tmp_path / f"{log}.{fmt}"
        digest_log(path, *DIGEST_LOGS[log])
        out = tmp_path / "out"
        analyze(str(path), method, PARAMS, out_dir=str(out), snapshot_every=int(every), dedup=dedup == "dedup")
        files = (out / "trajectory.csv").read_bytes() + (out / "decision.json").read_bytes()
        assert hashlib.sha256(files).hexdigest() == ANALYZE_DIGESTS[case]

    @pytest.mark.parametrize("log, dedup, every", [("effect", False, 100), ("effect", True, 7),
                                                    ("null", False, 100), ("null", True, 7)])
    def test_bht_statistic_matches_mpmath(self, tmp_path, log, dedup, every):
        # The expected loss at the crossing, against a 40-digit sum of the same Beta tails.
        path = tmp_path / f"{log}.jsonl"
        digest_log(path, *DIGEST_LOGS[log])
        record, _ = analyze(str(path), "bht", PARAMS, snapshot_every=every, dedup=dedup)
        snapshots = ingest(parse_events(str(path)), snapshot_every=every, dedup=dedup).snapshots
        _, n0, mean0, m2_0, n1, mean1, m2_1 = next(s for s in snapshots if s[0] == record.n_at_decision)
        cfg = BhtConfig()
        prior = BetaPosterior(cfg.prior_a, cfg.prior_b)
        post0 = prior.update(int(binary_counts(n0, mean0, m2_0)), n0)
        post1 = prior.update(int(binary_counts(n1, mean1, m2_1)), n1)
        expected = min(mp_expected_loss(post0, post1, choice) for choice in ("arm0", "arm1"))
        assert record.statistic == pytest.approx(float(expected), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", sorted(MORE_ANALYZE_DIGESTS))
    def test_more_analyze_digests_pinned(self, tmp_path, case):
        log, method, every, *flags = case.split("/")
        path = tmp_path / f"{log}.jsonl"
        digest_log(path, *DIGEST_LOGS[log])
        schedule = compute_boundaries((np.arange(1, 11) / 10.0).tolist(), 0.05) if method == "ldm" else None
        out = tmp_path / "out"
        analyze(
            str(path), method, PARAMS, out_dir=str(out), snapshot_every=int(every),
            schedule=schedule, intersect="intersect" in flags,
        )
        files = (out / "trajectory.csv").read_bytes() + (out / "decision.json").read_bytes()
        assert hashlib.sha256(files).hexdigest() == MORE_ANALYZE_DIGESTS[case]

    @pytest.mark.parametrize("method", ["asympcs", "asympcs-lift", "msprt", "fht-peeking", "bf"])
    def test_matches_simlab_decisions_on_identical_stream(self, method):
        # Build an event list whose block statistics equal a harness stream,
        # then check the engine replay reaches the same first crossing.
        from anytime_ab.simlab import methods as sim_methods
        from anytime_ab.simlab import streams

        simlab_reject = {
            "asympcs": lambda *c: sim_methods.ate_reject(*c, 0.05, 1e-3),
            "asympcs-lift": lambda *c: sim_methods.lift_reject(*c, 0.05, 1e-3),
            "msprt": lambda *c: sim_methods.msprt_reject(*c, 0.05, 1e-3),
            "fht-peeking": lambda *c: sim_methods.z_reject(*c, 0.05),
            "bf": lambda *c: sim_methods.bf_reject(*c, 1.0, 1.0, 20.0),
        }[method]
        crossings = 0
        grid = np.arange(100, 4_001, 100)
        blocks = np.diff(grid, prepend=0)
        for rep in range(8):
            rng = streams.replication_rng(404, rep)
            m1 = rng.binomial(blocks, 0.5)
            c1 = rng.binomial(m1, 0.42)
            c0 = rng.binomial(blocks - m1, 0.3)
            events = []
            ts = 0
            for b, k1, x1, x0 in zip(blocks, m1, c1, c0):
                k0 = b - k1
                for arm, count, conv in ((1, int(k1), int(x1)), (0, int(k0), int(x0))):
                    for i in range(count):
                        ts += 1
                        events.append(EventRecord(ts, f"u{ts}", arm, float(i < conv)))
            result = ingest(events, snapshot_every=100)
            rows, crossed_at, _ = analyze_snapshots(result.snapshots, method, PARAMS)
            n1m = np.cumsum(m1).astype(float)[None, :]
            s1m = np.cumsum(c1).astype(float)[None, :]
            s0m = np.cumsum(c0).astype(float)[None, :]
            n0m = grid.astype(float)[None, :] - n1m
            (stop_idx,) = sim_methods.first_crossing(simlab_reject(n0m, n1m, s0m, s1m))
            if stop_idx >= 0:
                assert crossed_at == grid[stop_idx]
                crossings += 1
            else:
                assert crossed_at is None
        assert crossings > 0


def _ldm_snapshots(differences, per_arm_step=50):
    """Snapshot rows of two arms with variance 0.25 and mean difference ``d`` at each peek."""
    snapshots = []
    for k, d in enumerate(differences, start=1):
        n = per_arm_step * k
        snapshots.append((2 * n, n, 0.5, 0.25 * n, n, 0.5 + d, 0.25 * n))
    return snapshots


class TestLdmDecisions:
    """The LDM rule |z| >= boundary at the registered peeks, through ``analyze_snapshots`` and simlab."""

    @pytest.fixture(scope="class")
    def schedule(self):
        return compute_boundaries((np.arange(1, 11) / 10.0).tolist(), 0.05)

    def test_zero_statistics_never_cross(self, schedule):
        rows, crossed_at, statistic = analyze_snapshots(_ldm_snapshots([0.0] * 10), "ldm", PARAMS, schedule=schedule)
        assert crossed_at is None and statistic is None
        assert all(row.verdict == "running" for row in rows)

    def test_final_peek_crossing(self, schedule):
        # z = 0.2 / sqrt(2 * 0.25 / 500) = 6.3 at the last peek, 0 before it.
        rows, crossed_at, statistic = analyze_snapshots(
            _ldm_snapshots([0.0] * 9 + [0.2]), "ldm", PARAMS, schedule=schedule
        )
        assert crossed_at == 1000 and statistic >= schedule.boundaries[-1]
        assert [row.verdict for row in rows] == ["running"] * 9 + ["significant"]

    def test_first_crossing_wins(self, schedule):
        rows, crossed_at, statistic = analyze_snapshots(_ldm_snapshots([0.4] * 10), "ldm", PARAMS, schedule=schedule)
        assert crossed_at == 100 and statistic >= schedule.boundaries[0]
        assert all(row.verdict == "significant" for row in rows)

    def test_schedule_mismatch(self, schedule):
        with pytest.raises(ScheduleMismatchError):
            analyze_snapshots(_ldm_snapshots([0.0]), "ldm", PARAMS, schedule=schedule)

    def test_null_bernoulli_rejection_rate(self):
        # simlab's LDM path: null A/B streams, z statistics at the 100
        # registered peeks of its own schedule.
        cfg = SimStudyConfig(
            method="LDM", arm_means=(0.3, 0.3), design_mde=0.03, replications=2_000, master_seed=2718,
        )
        report = run_type1_study(cfg)
        assert report.cumulative_rejection_by_peek[-1] == pytest.approx(0.05, abs=0.015)


class TestCrossTab:
    def test_published_counts_reproduce_formatting(self):
        table = CrossTab(593, 308, 3, 1185)
        assert table.percentages() == ("28%", "15%", "0.1%", "57%")
        assert table.row_totals == (901, 1188)
        assert table.col_totals == (596, 1493)
        assert table.total == 2089
        text = table.format_table()
        assert "28% (593)" in text
        assert "15% (308)" in text
        assert "0.1% (3)" in text
        assert "57% (1185)" in text
        assert "2089" in text

    def test_all_agree_not_significant(self):
        records = []
        for k in range(7):
            records.append(DecisionRecord(f"e{k}", "fht-peeking", "not-significant", 10, 5, 5, 1))
            records.append(DecisionRecord(f"e{k}", "asympcs", "not-significant", 10, 5, 5, 1))
        table = crosstab(records)
        assert table.fht_not_cs_not == 7 and table.total == 7
        assert table.percentages()[3] == "100%"

    def test_unpaired_records_rejected(self):
        records = [DecisionRecord("e1", "fht-peeking", "significant", 10, 5, 5, 1)]
        with pytest.raises(UnpairedRecordError):
            crosstab(records)

    def test_running_verdict_rejected(self):
        records = [
            DecisionRecord("e1", "fht-peeking", "running", 10, 5, 5, 1),
            DecisionRecord("e1", "asympcs", "not-significant", 10, 5, 5, 1),
        ]
        with pytest.raises(UnpairedRecordError):
            crosstab(records)

    def test_duplicate_side_rejected(self):
        records = [
            DecisionRecord("e1", "fht-peeking", "significant", 10, 5, 5, 1),
            DecisionRecord("e1", "fht-peeking", "significant", 10, 5, 5, 1),
        ]
        with pytest.raises(UnpairedRecordError):
            crosstab(records)
