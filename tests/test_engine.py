import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import threading

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
from anytime_ab.moments import welford_merge, welford_step
from anytime_ab.simlab import SimStudyConfig, run_type1_study
from test_bayes import mp_expected_loss
from test_moments import EMPTY
from test_simlab import cumulative_counts

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
# value that test_bht_statistic_matches_mpmath pins. They were re-pinned again
# when the anchored sum's log t_m became one fsum of its log factors and log
# ratios, not two rounded partial sums: trajectories unchanged, and each
# statistic's relative error against mpmath fell from at most 9.6e-14 to
# at most 1.5e-14.
DIGEST_LOGS = {"effect": (11, 0.10, 0.16), "null": (29, 0.30, 0.30)}
ANALYZE_DIGESTS = {
    "effect-csv-asympcs-all-100": "54dd88069b842c3eb2a55dfb8c37ee73118fd4c5db7c66eb28800b18a94486ec",
    "effect-csv-bht-all-100": "d70a472a37b6cad6df0f182a1402da2aad6fae92fee50b89c4be9a5568f3c0e4",
    "effect-csv-msprt-all-100": "37b85fea0aa8f1862d303ed27253e6cceee1d8e8ee49c85393d0e9251bc93157",
    "effect-jsonl-asympcs-all-100": "54dd88069b842c3eb2a55dfb8c37ee73118fd4c5db7c66eb28800b18a94486ec",
    "effect-jsonl-bht-all-100": "d70a472a37b6cad6df0f182a1402da2aad6fae92fee50b89c4be9a5568f3c0e4",
    "effect-jsonl-bht-dedup-7": "b2a630d676d464253200c79b0619fc3b8c0c12dec6b0f3368713a0355dfebb27",
    "effect-jsonl-msprt-all-100": "37b85fea0aa8f1862d303ed27253e6cceee1d8e8ee49c85393d0e9251bc93157",
    "null-csv-asympcs-all-100": "39ca0de3890219dac3b1aa2dd18407015a8009d96ea33d53d18056f4b178d38f",
    "null-csv-bht-all-100": "cdd0a3e26e9f70566a986baafc6de6c6fa16befe8b3a5a07e556167706b464d9",
    "null-csv-msprt-all-100": "0d3f95606b97c705fc53c77c92bd5fa2fdf03c6e3910372b96d5e0bf8add97cc",
    "null-jsonl-asympcs-all-100": "39ca0de3890219dac3b1aa2dd18407015a8009d96ea33d53d18056f4b178d38f",
    "null-jsonl-bht-all-100": "cdd0a3e26e9f70566a986baafc6de6c6fa16befe8b3a5a07e556167706b464d9",
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
    except ValueError as exc:  # an integer too long to convert
        return f"invalid JSON: {exc}"
    except RecursionError:
        return "invalid JSON: nested too deeply"
    raise AssertionError(f"{line[:40]!r} is valid JSON")


def reference_parse(path):
    """``parse_events`` as one ``json.loads`` per line: the records read, then the error or None."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                return records, f"line {line_no}: {json_loads_error(line)}"
            try:
                records.append(_coerce_event(obj, line_no))
            except LogParseError as exc:
                return records, str(exc)
    return records, None


def program_parse(path):
    records = []
    try:
        for record in parse_events(str(path)):
            records.append(record)
    except LogParseError as exc:
        return records, str(exc)
    return records, None


def dictreader_parse(path):
    """``parse_events`` on a CSV log as ``csv.DictReader`` rows: the records read, then the error or None."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                records.append(_coerce_event(row, reader.line_num))
        except LogParseError as exc:
            return records, str(exc)
        except csv.Error as exc:
            return records, f"line {reader.reader.line_num}: invalid CSV: {exc}"
    return records, None


VALID_LINE = '{"ts": 1, "unit": "a", "arm": 0, "value": 1.0}'
# Enough VALID_LINEs to fill the first 64 KB read chunk, so that the line
# after them is parsed in a later chunk.
PAD_LINES = 1_500
# Raw texts placed in a JSONL line of the common shape, where float(text)
# and JSON's reading of it could differ, or no float or int holds it.
NUMBER_TEXTS = [
    "0", "-0", "-0.0", "0e5", "-0e5", "01", "-01.5", "1E-5", "5e-324", "1e300", "1e99", "-1e-99", "1e400",
    "1" * 17, "9" * 20, "7" * 200, "7" * 201, "1" * 300, "1" + "0" * 400, "1" + "0" * 5000,
]
TS_TEXTS = ["0", "-0", "-3", "01", str(10**18 - 1), str(10**18), "1.5", "1e3"]
UNIT_TEXTS = ["", "u1", "\u00e9\u4e2d", "\u2028", "\x7f", "\x01", "a\\\\b", "\\u0041", "\U0001f600"]
ARM_TEXTS = ["0", "1", "2", "-0", "1.0", '"1"', "true"]


def common_line(ts="1", unit="a", arm="0", value="1"):
    """A JSONL event line in the documented order with json.dumps' separators, from raw field texts."""
    return f'{{"ts": {ts}, "unit": "{unit}", "arm": {arm}, "value": {value}}}'


# Valid JSONL events, the common shape's field texts, near-misses and arbitrary text, one per line.
JSONL_LINES = st.one_of(
    st.just(VALID_LINE),
    st.builds(
        lambda ts, unit, arm, value: json.dumps({"ts": ts, "unit": unit, "arm": arm, "value": value}),
        st.one_of(st.integers(), st.just("7")), st.text(max_size=4),
        st.sampled_from([0, 1, "0", "1", 2, 1.0, True, None]),
        st.one_of(st.floats(), st.integers(-3, 3), st.just("nan")),
    ),
    st.builds(
        common_line,
        st.sampled_from(TS_TEXTS), st.one_of(st.sampled_from(UNIT_TEXTS), st.text(max_size=4)),
        st.sampled_from(ARM_TEXTS), st.sampled_from(NUMBER_TEXTS),
    ),
    st.builds(lambda head, tail: head + tail, st.just(VALID_LINE), st.text(" \t,}]x{\ufeff", max_size=3)),
    st.text('{}[]",:0123456789.e-tsunarmvlxy \t\\\ufeff', max_size=30),
    st.text(max_size=20),
)
# CSV rows under the canonical header: odd field texts of the common shape, and rows that are not.
CSV_ROWS = st.one_of(
    st.builds(
        lambda *fields: ",".join(fields),
        st.sampled_from(["2", "-0", "007", "+4", " 5", "1_0", str(10**18)]),
        st.sampled_from(["u", "", "\u00e9", "\u2028", "\x7f", " v ", "\x00"]),
        st.sampled_from(["0", "1", "2", "-0", " 1"]),
        st.sampled_from(["0", "1", "-0", "-0.0", "01", "1e400", "1" * 250, "nan", "inf", "1_0", ".5", "1."]),
    ),
    st.sampled_from([
        "", "3,c,1", '4,"q\nr",1,0', '5,"a,b",0,1', "6,w,0,1,extra", "7," + "x" * 140_000 + ",1,0",
    ]),
)
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
        assert [rec.unit for rec in parse_events(str(path))] == ["a\nb", "c\n\nd"]

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("pad", [0, 7_000], ids=["line-2", "past-first-chunk"])
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_invalid_utf8_exits_2_with_line_number(self, tmp_path, capsys, suffix, pad, newline):
        # The line is counted as text mode reads lines: at \n, \r and \r\n.
        if suffix == ".csv":
            good = ["ts,unit,arm,value"] + [f"{i},u{i},{i % 2},1" for i in range(pad + 1)]
            bad = b"2,b\xff,1,0"
        else:
            good = [common_line(ts=str(i), unit=f"u{i}", arm=str(i % 2)) for i in range(pad + 1)]
            bad = common_line(ts="2", unit="b\udcff", arm="1").encode("utf-8", "surrogateescape")
        path = tmp_path / f"log{suffix}"
        eol = newline.encode()
        path.write_bytes(eol.join([*(line.encode() for line in good), bad, good[-1].encode()]) + eol)
        line_no = len(good) + 1
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: invalid UTF-8: invalid start byte"
        code = cli_main(["analyze", "--log", str(path), "--method", "asympcs", "--out", str(tmp_path / "out")])
        err_text = capsys.readouterr().err
        assert code == 2
        assert err_text.startswith(f"error: line {line_no}: invalid UTF-8:")
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
        records, error = self.parse(tmp_path, "ts,unit,arm,value\n\n1,a,0,1\n\n\n2,b,1,0\n\n")
        assert error is None
        assert [rec.unit for rec in records] == ["a", "b"]

    def test_missing_fields_are_none(self, tmp_path):
        records, error = self.parse(tmp_path, "ts,unit,arm,value\n1,a,0,1\n2,b,1\n")
        assert len(records) == 1
        assert error == "line 3: bad event fields: float() argument must be a string or a real number, not 'NoneType'"

    def test_extra_fields_ignored(self, tmp_path):
        records, error = self.parse(tmp_path, "ts,unit,arm,value\n1,a,0,1,x,,y\n")
        assert error is None
        assert records == [EventRecord(1, "a", 0, 1.0)]

    def test_repeated_header_name_keeps_last_column(self, tmp_path):
        records, error = self.parse(tmp_path, "ts,value,unit,arm,value\n1,x,a,0,7\n")
        assert error is None
        assert records == [EventRecord(1, "a", 0, 7.0)]
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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(CSV_ROWS, max_size=6), st.sampled_from([0, 7_000]))
    def test_canonical_header_rows_match_dictreader(self, tmp_path, rows, pad):
        # Under the canonical header, common rows are scanned a chunk at a
        # time; padded past the first chunk, the odd rows sit in a later one.
        path = tmp_path / "log.csv"
        common = [f"{i},u{i},{i % 2},{i % 3}" for i in range(pad)]
        path.write_text("\n".join(["ts,unit,arm,value", *common, *rows]) + "\n", encoding="utf-8")
        assert repr(program_parse(path)) == repr(dictreader_parse(path))


class TestDecodeParity:
    def test_bulk_join_counterexample_fails_at_line_1(self, tmp_path):
        assert len(json.loads("[" + ",".join(BULK_JOIN_LINES) + "]")) == 3
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(BULK_JOIN_LINES) + "\n", encoding="utf-8")
        with pytest.raises(LogParseError) as err:
            list(parse_events(str(path)))
        assert str(err.value) == f"line 1: {json_loads_error(BULK_JOIN_LINES[0])}"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(JSONL_LINES, max_size=10), st.sampled_from([0, PAD_LINES]))
    def test_parse_matches_per_line_json_loads(self, tmp_path, lines, pad):
        # Padded past the first read chunk, an odd line's number counts the
        # chunks before it. repr tells -0.0 from 0.0, where == does not.
        path = tmp_path / "fuzz.jsonl"
        path.write_text("\n".join([VALID_LINE] * pad + lines) + "\n", encoding="utf-8")
        assert repr(program_parse(path)) == repr(reference_parse(path))

    @pytest.mark.parametrize("pad", [0, PAD_LINES], ids=["first-chunk", "later-chunk"])
    @pytest.mark.parametrize(
        "field, texts",
        [("value", NUMBER_TEXTS), ("ts", TS_TEXTS), ("unit", UNIT_TEXTS), ("arm", ARM_TEXTS)],
    )
    def test_common_shape_field_texts_match_json_loads(self, tmp_path, field, texts, pad):
        # Each raw text, alone in an otherwise common line between common lines.
        path = tmp_path / "log.jsonl"
        for text in texts:
            lines = [VALID_LINE] * pad + [common_line(**{field: text}), VALID_LINE]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert repr(program_parse(path)) == repr(reference_parse(path)), text[:20]


def fifo_parse(path, data: bytes):
    """``program_parse`` of ``data`` written into a named pipe at ``path``, which can be read only once."""
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the parser stopped at an error and closed its end
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return program_parse(path)
    finally:
        writer.join(timeout=60)
        os.unlink(path)
        assert not writer.is_alive()


def with_bytes(line: str, raw: bytes, at: int) -> bytes:
    """``line`` as UTF-8 with ``raw`` inserted at byte ``at`` (or at its end)."""
    data = line.encode("utf-8")
    return data[:at] + raw + data[at:]


# Bytes that leave a line invalid UTF-8 wherever they are inserted: a bad
# start byte, a truncated sequence, an encoded surrogate and an overlong form.
BAD_BYTES = [b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


class TestReadOnce:
    """A log is read once, so a pipe gives what a file with the same bytes gives."""

    def test_piped_invalid_utf8_exits_2_with_line_number(self, tmp_path):
        bad = common_line(ts="2", unit="b\udcff", arm="1").encode("utf-8", "surrogateescape")
        log = (VALID_LINE + "\n").encode() + bad + b"\n"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "anytime_ab.cli", "analyze", "--log", "/dev/stdin", "--method", "asympcs",
             "--out", str(tmp_path / "out")],
            input=log, capture_output=True, env=env, timeout=120,
        )
        err_text = done.stderr.decode()
        assert done.returncode == 2, err_text
        assert err_text.startswith("error: line 2: invalid UTF-8: invalid start byte")
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_fifo_invalid_utf8_past_first_chunk(self, tmp_path, suffix):
        # The bad line 5001 lies past the first 64 KB chunk.
        if suffix == ".csv":
            good = ["ts,unit,arm,value"] + [f"{i},u{i},{i % 2},1" for i in range(4_999)]
            bad = with_bytes("5000,bad,1,0", b"\xe2\x82", 6)
        else:
            good = [common_line(ts=str(i), unit=f"u{i}", arm=str(i % 2)) for i in range(5_000)]
            bad = with_bytes(common_line(ts="5000", unit="bad", arm="1"), b"\xe2\x82", 26)
        data = b"\n".join([*(line.encode() for line in good), bad, good[-1].encode()]) + b"\n"
        assert data.index(bad) > 1 << 16
        (tmp_path / f"log{suffix}").write_bytes(data)
        records, error = fifo_parse(tmp_path / f"pipe{suffix}", data)
        assert error == "line 5001: invalid UTF-8: invalid continuation byte"
        assert (records, error) == program_parse(tmp_path / f"log{suffix}")
        # No event of the bad line's chunk is yielded before its error.
        assert 0 < len(records) < len(good) - 1

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from([".jsonl", ".csv"]),
        st.lists(st.tuples(st.one_of(JSONL_LINES, CSV_ROWS), st.sampled_from([b""] * 4 + BAD_BYTES),
                           st.integers(0, 40)), max_size=8),
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
        st.sampled_from([0, 7_000]),
    )
    def test_fifo_matches_file(self, tmp_path, suffix, lines, eol, pad):
        # The same records or the same error, line number included, from a
        # pipe as from a file, for lines in the first chunk or a later one.
        if suffix == ".csv":
            head = ["ts,unit,arm,value"] + [f"{i},u{i},{i % 2},1" for i in range(pad)]
        else:
            head = [VALID_LINE] * pad
        data = eol.join([*(line.encode() for line in head), *(with_bytes(*line) for line in lines)]) + eol
        (tmp_path / f"log{suffix}").write_bytes(data)
        assert repr(fifo_parse(tmp_path / f"pipe{suffix}", data)) == repr(program_parse(tmp_path / f"log{suffix}"))


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0, 1]),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1.0, -1.0]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
            ),
            max_size=250,
        ),
        st.sampled_from([1, 7, 100]),
        st.booleans(),
    )
    def test_rows_equal_welford_step_fold_bit_for_bit(self, events, every, dedup):
        # ingest inlines welford_step; repr tells -0.0 from 0.0 and keeps NaN.
        records = [EventRecord(i, f"u{unit}", arm, y) for i, (unit, arm, y) in enumerate(events)]
        arms, rows, units, used = [EMPTY, EMPTY], [], set(), 0
        for record in records:
            if dedup and record.unit in units:
                continue
            units.add(record.unit)
            arms[record.arm] = welford_step(*arms[record.arm], record.value)
            used += 1
            if used % every == 0:
                rows.append((used, *arms[0], *arms[1]))
        if used % every:
            rows.append((used, *arms[0], *arms[1]))
        assert repr(ingest(records, snapshot_every=every, dedup=dedup).snapshots) == repr(rows)

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
        merged = [EMPTY, EMPTY]
        for k in range(n_shards):
            rows = ingest([r for r, s in zip(records, shard_of) if s == k]).snapshots
            if rows:
                last = rows[-1]
                merged = [welford_merge(acc, arm) for acc, arm in zip(merged, (last[1:4], last[4:7]))]
        for acc, (count, mean, m2) in zip(merged, (sequential[1:4], sequential[4:7])):
            assert acc[0] == count
            assert acc[1] == pytest.approx(mean, rel=1e-12)
            assert acc[2] == pytest.approx(m2, rel=1e-10)

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

    @pytest.mark.parametrize(
        "method, alpha",
        [pytest.param(method, alpha, id=method if alpha == 0.05 else f"{method}-alpha-{alpha}")
         for alpha in (0.05, 0.1) for method in ("asympcs", "asympcs-lift", "msprt", "fht-peeking", "bf")],
    )
    def test_matches_simlab_decisions_on_identical_stream(self, method, alpha):
        # Build an event list whose block statistics equal a harness stream,
        # then check the engine replay reaches the same first crossing. On
        # this stream, BF's thresholds 10 and 20 cross apart in 3 of 8
        # replications, so alpha = 0.1 tells 1 / alpha from a fixed 20.
        from anytime_ab.simlab import methods as sim_methods
        from anytime_ab.simlab import streams

        simlab_reject = {
            "asympcs": lambda *c: sim_methods.ate_reject(*c, alpha, 1e-3),
            "asympcs-lift": lambda *c: sim_methods.lift_reject(*c, alpha, 1e-3),
            "msprt": lambda *c: sim_methods.msprt_reject(*c, alpha, 1e-3),
            "fht-peeking": lambda *c: sim_methods.z_reject(*c, alpha),
            "bf": lambda *c: sim_methods.bf_reject(*c, 1.0, 1.0, 1 / alpha),
        }[method]
        crossings = 0
        grid = np.arange(100, 4_001, 100)
        blocks = np.diff(grid, prepend=0)
        counts = cumulative_counts(streams.two_arm_count_matrices(404, 8, grid, 0.3, 0.42), grid)
        for rep in range(8):
            n0m, n1m, s0m, s1m = (matrix[rep:rep + 1] for matrix in counts)
            m1, c1, c0 = (np.diff(matrix[0], prepend=0.0).astype(int) for matrix in (n1m, s1m, s0m))
            events = []
            ts = 0
            for b, k1, x1, x0 in zip(blocks, m1, c1, c0):
                k0 = b - k1
                for arm, count, conv in ((1, int(k1), int(x1)), (0, int(k0), int(x0))):
                    for i in range(count):
                        ts += 1
                        events.append(EventRecord(ts, f"u{ts}", arm, float(i < conv)))
            result = ingest(events, snapshot_every=100)
            rows, crossed_at, _ = analyze_snapshots(result.snapshots, method, ConfSeqParams(alpha, 1e-3))
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


SCALED_METHODS = ("asympcs", "asympcs-lift", "msprt", "fht-peeking", "ldm")


def _scaled_log_snapshots(log):
    """For a seeded log of {1, 2} or normal values, the function from k to its snapshot rows with values times 2^k."""
    rng = np.random.default_rng(log["seed"])
    n_events = log["every"] * log["peeks"]
    arms = (rng.random(n_events) < 0.5).astype(int)
    if log["binary"]:
        values = 1.0 + (rng.random(n_events) < 0.25 + log["effect"] * arms)
    else:
        values = rng.normal(1.0 + log["effect"] * arms, 0.5)

    def snapshots(k):
        records = [EventRecord(i, f"u{i}", int(a), math.ldexp(float(y), k)) for i, (a, y) in enumerate(zip(arms, values))]
        return ingest(records, snapshot_every=log["every"]).snapshots

    return snapshots


@st.composite
def _scaled_logs(draw):
    # Event counts are whole multiples of the cadence: a trailing partial
    # snapshot puts two peeks close together, which the LDM solver settles
    # only on a much larger grid.
    every = draw(st.integers(30, 300))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "every": every,
        "peeks": draw(st.integers(-(-200 // every), 3_000 // every)),
        "binary": draw(st.booleans()),
        "effect": draw(st.sampled_from([0.0, 0.05, 0.15])),
    }


def _ldm_schedule(snapshots):
    return compute_boundaries([row[0] / snapshots[-1][0] for row in snapshots], 0.05)


class TestScaleEquivariance:
    """Values times 2^k move every interval rule's trajectory by exactly 2^k, or not at all for the lift."""

    @settings(max_examples=25, deadline=None)
    @given(_scaled_logs())
    def test_power_of_two_scaling_is_exact(self, log):
        snapshots = _scaled_log_snapshots(log)
        original = snapshots(0)
        schedule = _ldm_schedule(original)
        expected = {method: analyze_snapshots(original, method, PARAMS, schedule=schedule) for method in SCALED_METHODS}
        for k in (-500, -200, 200, 500):
            scaled = snapshots(k)
            for method in SCALED_METHODS:
                # mSPRT's mixing variance is in squared data units; AsympCS's rho2 has none.
                params = ConfSeqParams(PARAMS.alpha, math.ldexp(PARAMS.rho2, 2 * k)) if method == "msprt" else PARAMS
                rows, crossed_at, statistic = analyze_snapshots(scaled, method, params, schedule=schedule)
                base_rows, base_crossed_at, base_statistic = expected[method]
                assert crossed_at == base_crossed_at, (method, k)
                assert statistic == base_statistic, (method, k)
                for row, base in zip(rows, base_rows, strict=True):
                    assert row.verdict == base.verdict, (method, k, row.n)
                    if method == "asympcs-lift":
                        assert (row.center, row.lower, row.upper) == (base.center, base.lower, base.upper)
                    else:
                        for got, want in ((row.center, base.center), (row.lower, base.lower), (row.upper, base.upper)):
                            assert got == (None if want is None else math.ldexp(want, k)), (method, k, row.n)

    @settings(max_examples=10, deadline=None)
    @given(_scaled_logs())
    def test_out_of_range_scaling_crosses_only_on_sound_entries(self, log):
        # At these k squared deviations overflow, or underflow to 0. No crossing
        # may come from such moments, nor from a non-finite center or bound.
        snapshots = _scaled_log_snapshots(log)
        schedule = _ldm_schedule(snapshots(0))
        for k in (520, 1000, -1000):
            scaled = snapshots(k)
            for method in SCALED_METHODS:
                rows, crossed_at, statistic = analyze_snapshots(scaled, method, PARAMS, schedule=schedule)
                if crossed_at is None:
                    continue
                snapshot = next(s for s in scaled if s[0] == crossed_at)
                assert 0.0 < snapshot[3] < math.inf and 0.0 < snapshot[6] < math.inf, (method, k)
                row = next(r for r in rows if r.n == crossed_at)
                assert row.center is not None and math.isfinite(row.center), (method, k)
                if method == "ldm":
                    assert math.isfinite(statistic), (method, k)
                else:
                    # The bound on theta0's side decided the crossing.
                    decisive = row.lower if row.lower is not None and row.lower > 0.0 else row.upper
                    assert decisive is not None and math.isfinite(decisive), (method, k)


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
