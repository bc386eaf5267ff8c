import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anytime_ab.cli import main
from anytime_ab.gst import compute_boundaries


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_log(path, rng, n_events, p0, p1):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_events):
            arm = int(rng.random() < 0.5)
            p = p1 if arm == 1 else p0
            value = float(rng.random() < p)
            fh.write(json.dumps({"ts": i, "unit": f"u{i}", "arm": arm, "value": value}) + "\n")


class TestDesignCommand:
    def test_reference_settings_emit_both_sizes(self, capsys):
        code, out, _ = run_cli(
            ["design", "--p0", "0.1", "--mde", "0.01", "--alpha", "0.05",
             "--power", "0.8", "--rho2", "1e-3", "--fixed-horizon"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fixed_horizon_n_per_arm"] == 14_749
        assert payload["feasible"] is True
        assert payload["hypothesized_n"] > payload["fixed_horizon_n_total"]

    def test_infeasible_population(self, capsys):
        code, out, _ = run_cli(
            ["design", "--p0", "0.1", "--mde", "0.0001", "--population-cap", "1000"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False and payload["hypothesized_n"] is None


class TestAnalyzeCommand:
    def test_analyze_writes_files(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_log(log, np.random.default_rng(1), 2_000, 0.2, 0.35)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["analyze", "--log", str(log), "--method", "asympcs", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] in ("significant", "not-significant")
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "decision.json").exists()
        header = (out_dir / "trajectory.csv").read_text().splitlines()[0]
        assert header == "n,n0,n1,center,lower,upper,verdict"

    def test_invalid_method_no_output(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_log(log, np.random.default_rng(2), 300, 0.2, 0.2)
        out_dir = tmp_path / "nope"
        code, _, err = run_cli(
            ["analyze", "--log", str(log), "--method", "magic", "--out", str(out_dir)],
            capsys,
        )
        assert code != 0
        assert "error" in err
        assert not out_dir.exists()

    def test_parse_error_exit(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("definitely not json\n")
        code, _, err = run_cli(
            ["analyze", "--log", str(log), "--method", "asympcs", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code != 0 and "line 1" in err

    def test_z_rule_needs_two_events_per_arm(self, tmp_path, capsys):
        # With one event per arm the variances are 0, so the z interval had
        # zero width and a +-1 log was significant at n = 2.
        log = tmp_path / "pm1.jsonl"
        values = [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1]
        log.write_text("".join(
            json.dumps({"ts": i, "unit": f"u{i}", "arm": i % 2, "value": v}) + "\n" for i, v in enumerate(values)
        ))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["analyze", "--log", str(log), "--method", "fht-peeking", "--snapshot-every", "1", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "not-significant"
        rows = (out_dir / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows[1:3]] == ["2", "3"]
        assert all(row.split(",")[4:6] == ["", ""] for row in rows[1:3])
        assert rows[3].split(",")[4] != ""

    @pytest.mark.parametrize("k", [0, 540, 1000])
    def test_underflowed_log_gives_no_verdict(self, tmp_path, capsys, k):
        # A null log of 1s and 2s scaled by 2^-k. For k >= 540 the squares
        # underflow, ingest's rows hold m2 = 0, and every rule read a zero
        # variance as a crossing at n = 50.
        rng = np.random.default_rng(0)
        arms, values = rng.integers(0, 2, 3000), rng.integers(1, 3, 3000)
        log = tmp_path / "tiny.jsonl"
        log.write_text("".join(
            json.dumps({"ts": i, "unit": f"u{i}", "arm": int(a), "value": math.ldexp(float(v), -k)}) + "\n"
            for i, (a, v) in enumerate(zip(arms, values))
        ))
        schedule = tmp_path / "schedule.json"
        schedule.write_text(compute_boundaries((np.arange(1, 61) / 60).tolist(), 0.05).to_json())
        for method in ("asympcs", "asympcs-lift", "msprt", "fht-peeking", "ldm"):
            argv = ["analyze", "--log", str(log), "--method", method, "--snapshot-every", "50",
                    "--schedule", str(schedule), "--out", str(tmp_path / method)]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            assert json.loads(out)["verdict"] == "not-significant", method

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_variance_gives_blank_msprt_bounds(self, tmp_path, capsys):
        # A null log of 1s and 2s scaled by 2^-512: the mixture variance is
        # subnormal, so the mSPRT half-width overflows. Such an entry is
        # invalid: its bounds once read -inf, inf, with a numpy overflow
        # warning on stderr.
        rng = np.random.default_rng(4)
        arms, values = rng.integers(0, 2, 3000), rng.integers(1, 3, 3000)
        log = tmp_path / "tiny.jsonl"
        log.write_text("".join(
            json.dumps({"ts": i, "unit": f"u{i}", "arm": int(a), "value": math.ldexp(float(v), -512)}) + "\n"
            for i, (a, v) in enumerate(zip(arms, values))
        ))
        out_dir = tmp_path / "out"
        argv = ["analyze", "--log", str(log), "--method", "msprt", "--snapshot-every", "50", "--out", str(out_dir)]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["verdict"] == "not-significant"
        assert record["lower"] is None and record["upper"] is None
        rows = (out_dir / "trajectory.csv").read_text().splitlines()[1:]
        assert "inf" not in "".join(rows)
        assert rows[-1].split(",")[4:6] == ["", ""]

    def test_scaled_msprt_statistic_is_strict_json(self, tmp_path, capsys):
        # A log of 1s and 2s with an effect, scaled by 2^500, with rho2 scaled
        # by 4^500: the mixture's products once overflowed, and decision.json
        # held "statistic": NaN, which strict JSON readers reject.
        rng = np.random.default_rng(1)
        arms = rng.integers(0, 2, 3000)
        values = np.where(rng.random(3000) < 0.5 + 0.1 * arms, 2, 1)
        statistics = []
        for k in (0, 500):
            log = tmp_path / f"scaled{k}.jsonl"
            log.write_text("".join(
                json.dumps({"ts": i, "unit": f"u{i}", "arm": int(a), "value": math.ldexp(float(v), k)}) + "\n"
                for i, (a, v) in enumerate(zip(arms, values))
            ))
            out_dir = tmp_path / f"out{k}"
            argv = ["analyze", "--log", str(log), "--method", "msprt", "--rho2", repr(math.ldexp(1e-3, 2 * k)),
                    "--snapshot-every", "50", "--out", str(out_dir)]
            code, _, err = run_cli(argv, capsys)
            assert code == 0, err

            def reject(constant):
                raise ValueError(f"decision.json holds {constant}")

            record = json.loads((out_dir / "decision.json").read_text(), parse_constant=reject)
            assert record["verdict"] == "significant"
            statistics.append(record["statistic"])
        assert statistics[1] == statistics[0]

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([1], "schedule must be a JSON object, got list"),
            ({"fractions": [1.0], "spends": [0.05], "boundaries": ["x"]},
             """schedule 'boundaries' must be a list of numbers, got ["x"]"""),
            ({"fractions": 1, "spends": [0.05], "boundaries": [1.96]},
             "schedule 'fractions' must be a list of numbers, got 1"),
            ({"fractions": [1.0], "spends": [0.05], "boundaries": [10**400]},
             "schedule 'boundaries' must be a list of numbers, got [1000"),
        ],
        ids=["list", "text-boundary", "scalar-fractions", "boundary-beyond-float"],
    )
    def test_bad_schedule_rejected(self, tmp_path, capsys, schedule, message):
        log = tmp_path / "log.jsonl"
        write_log(log, np.random.default_rng(3), 300, 0.2, 0.2)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["analyze", "--log", str(log), "--method", "ldm", "--schedule", str(path), "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--method", "asympcs", "--theta0", "nan"], "theta0 must be finite, got nan"),
        (["analyze", "--method", "asympcs", "--theta0", "inf"], "theta0 must be finite, got inf"),
        (["analyze", "--method", "asympcs", "--rho2", "nan"], "rho2 must be finite and positive, got nan"),
        (["analyze", "--method", "asympcs", "--rho2", "inf"], "rho2 must be finite and positive, got inf"),
        (["analyze", "--method", "bht", "--epsilon", "nan"], "epsilon must be positive, got nan"),
        (["design", "--p0", "0.1", "--mde", "0.01", "--rho2", "nan"], "rho2 must be finite and positive, got nan"),
        (["design", "--p0", "0.1", "--mde", "0.01", "--rho2", "inf"], "rho2 must be finite and positive, got inf"),
    ],
    ids=["analyze-theta0-nan", "analyze-theta0-inf", "analyze-rho2-nan", "analyze-rho2-inf", "analyze-epsilon-nan",
         "design-rho2-nan", "design-rho2-inf"],
)
def test_bad_argument_rejected(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    if argv[0] == "analyze":
        log = tmp_path / "log.jsonl"
        write_log(log, np.random.default_rng(3), 300, 0.2, 0.35)
        argv = [*argv, "--log", str(log), "--out", str(out_dir)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "nope"], "unknown method 'nope'"),
        (["--method", "asympcs", "--theta0", "nan"], "theta0 must be finite, got nan"),
        (["--method", "ldm"], "ldm analysis needs a spending schedule"),
    ],
    ids=["method-unknown", "theta0-nan", "ldm-without-schedule"],
)
def test_bad_setting_named_before_log_is_read(tmp_path, capsys, argv, message):
    # The log does not exist, so a setting's error shows it was checked first.
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["analyze", "--log", str(tmp_path / "missing.jsonl"), *argv, "--out", str(out_dir)],
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == "" and not out_dir.exists()


TINY_TYPE1 = {"methods": ["AsympCS"], "arm_means": [0.1, 0.1], "design_mde": 0.01, "replications": 5}
TINY_STOP_QUALITY = {"methods": ["AsympCS"], "truth_prior": [100, 100], "theta0": 0.5, "horizon": 2000,
                     "num_peeks": 20, "replications": 5}
TINY_LIFT_POWER = {"methods": ["AsympCS-lift"], "arm_means": [0.1, 0.12], "horizon_multiples": [1.0],
                   "replications": 5}


class TestSimulateCommand:
    def test_tiny_type1_run(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "methods": ["AsympCS", "mSPRT"],
            "arm_means": [0.1, 0.1],
            "design_mde": 0.01,
            "replications": 50,
            "horizon": 10_000,
            "peek_every": 500,
            "master_seed": 99,
        }))
        out_dir = tmp_path / "study"
        code, _, _ = run_cli(
            ["simulate", "--study", "type1", "--config", str(config), "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        rows = (out_dir / "report.csv").read_text().splitlines()
        assert rows[0] == "study,method,peek_n,value"
        assert any(",AsympCS," in r for r in rows[1:])
        payload = json.loads((out_dir / "report.json").read_text())
        assert {r["method"] for r in payload} == {"AsympCS", "mSPRT"}

    def test_seed_override_changes_stream(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "methods": ["AsympCS"],
            "arm_means": [0.1, 0.1],
            "design_mde": 0.01,
            "replications": 30,
            "horizon": 8_000,
            "peek_every": 400,
        }))
        outs = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"study{seed}"
            code, _, _ = run_cli(
                ["simulate", "--study", "type1", "--config", str(config),
                 "--seed", seed, "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            outs.append(json.loads((out_dir / "report.json").read_text()))
        assert outs[0][0]["master_seed"] != outs[1][0]["master_seed"]

    @pytest.mark.parametrize("study, conf", [("type1", TINY_TYPE1), ("stop-quality", TINY_STOP_QUALITY)])
    @pytest.mark.parametrize("seed, ok", [(-1, False), (2**64, False), (0, True), (2**64 - 1, True)])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, study, conf, seed, ok):
        # Seeds outside [0, 2^64 - 1] would alias a seed inside it, so they exit 2 and write nothing.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(conf))
        out_dir = tmp_path / "study"
        code, _, err = run_cli(
            ["simulate", "--study", study, "--config", str(config), "--seed", str(seed), "--out", str(out_dir)], capsys
        )
        if ok:
            assert code == 0, err
            assert json.loads((out_dir / "report.json").read_text())[0]["master_seed"] == seed
        else:
            assert code == 2
            assert f"error: master_seed must be in [0, 2^64 - 1], got {seed}" in err
            assert "Traceback" not in err and not out_dir.exists()

    def test_lift_power_rejects_nonzero_theta0(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"methods": ["AsympCS-lift"], "arm_means": [0.1, 0.11], "theta0": 0.05}))
        out_dir = tmp_path / "study"
        code, _, err = run_cli(
            ["simulate", "--study", "lift-power", "--config", str(config), "--out", str(out_dir)], capsys
        )
        assert code == 2
        assert "theta0=0.05" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "study, conf, ok",
        [
            ("lift-power", {"methods": ["mSPRT", "LDM"], "arm_means": [0.1, 0.11]}, "AsympCS-lift"),
            ("lift-power", {"methods": ["AsympCS"], "arm_means": [0.1, 0.11]}, "AsympCS-lift"),
            ("mde-misspec", {"methods": ["mSPRT", "AsympCS", "FHT-peeking"], "arm_means": [0.1, 0.1],
                             "effects": [0.01]}, "AsympCS"),
            ("mde-misspec", {"methods": ["AsympCS-lift"], "arm_means": [0.1, 0.1], "effects": [0.01]}, "AsympCS"),
        ],
        ids=["lift-msprt", "lift-asympcs", "misspec-msprt", "misspec-lift"],
    )
    def test_single_method_study_names_the_wrong_method(self, tmp_path, capsys, study, conf, ok):
        # These studies run one rule; another method's name must not label its numbers.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**conf, "replications": 5}))
        out_dir = tmp_path / "study"
        code, _, err = run_cli(
            ["simulate", "--study", study, "--config", str(config), "--out", str(out_dir)], capsys
        )
        assert code == 2
        wrong = next(m for m in conf["methods"] if m != ok)
        assert f"{study} study runs {ok} only, got {wrong!r}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("study", ["power", "lift-power"])
    @pytest.mark.parametrize(
        "extra",
        [
            {"horizon_multiples": [], "horizon": 6000},
            {"horizon_multiples": []},
            {"horizon_multiples": [-1.0]},
            {"horizon_multiples": [0.0]},
            {"horizon_multiples": [0.0, 1.0]},
        ],
        ids=["empty-with-horizon", "empty", "negative", "zero", "zero-and-one"],
    )
    def test_bad_horizon_multiples_rejected(self, tmp_path, capsys, study, extra):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"methods": ["AsympCS-lift"], "arm_means": [0.1, 0.12], "replications": 5, **extra}))
        out_dir = tmp_path / "study"
        code, _, err = run_cli(
            ["simulate", "--study", study, "--config", str(config), "--out", str(out_dir)], capsys
        )
        assert code == 2
        assert "horizon_multiples must be a nonempty list of positive numbers" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_unknown_study_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--study", "nope", "--config", "x.json", "--out", str(tmp_path)],
            capsys,
        )
        assert code != 0

    @pytest.mark.parametrize(
        "study, conf, message",
        [
            (
                "type1",
                {"methods": ["AsympCS"], "arm_means": [0.1, 0.1], "design_mde": 0.01, "horizon": 2000,
                 "peek_every": 500, "replication": 5},
                "unknown config keys: replication",
            ),
            (
                "stop-quality",
                {"methods": ["AsympCS"], "truth_prior": [100, 100], "theta0": 0.5, "horizon": 2000,
                 "num_peeks": 20, "replications": 5, "grid_start": 50},
                "unknown config keys: grid_start",
            ),
            ("type1", [{"methods": ["AsympCS"]}], "config must be a JSON object, got list"),
            (
                "stop-quality",
                {"methods": ["BHT-uninformed"], "truth_prior": [100, 100], "theta0": 1.5, "horizon": 2000,
                 "num_peeks": 20, "replications": 5},
                "theta0 in [0, 1], got 1.5",
            ),
            ("type1", {**TINY_TYPE1, "methods": ["BHT-uninformed"], "prior": 5},
             "bad config values: prior must be a pair of numbers, got 5"),
            ("type1", {**TINY_TYPE1, "replications": "5"}, 'bad config values: replications must be an integer, got "5"'),
            ("type1", {**TINY_TYPE1, "alpha": "0.05"}, 'bad config values: alpha must be a number, got "0.05"'),
            ("type1", {**TINY_TYPE1, "arm_means": 0.1}, "bad config values: arm_means must be a pair of numbers, got 0.1"),
            ("type1", {**TINY_TYPE1, "methods": "AsympCS"},
             'bad config values: methods must be a list of strings, got "AsympCS"'),
            ("type1", {**TINY_TYPE1, "rho2": True}, "bad config values: rho2 must be a number, got true"),
            ("type1", {**TINY_TYPE1, "peek_every": 100.0}, "bad config values: peek_every must be an integer, got 100.0"),
            ("type1", {**TINY_TYPE1, "theta0": 10**400}, "bad config values: theta0 must be a number, got 1000"),
            ("type1", {**TINY_TYPE1, "design_mde": 10**400},
             "bad config values: design_mde must be a number or null, got 1000"),
            # BF's odds threshold is 1 / alpha.
            ("type1", {**TINY_TYPE1, "methods": ["BF-uninformed"], "alpha": 0}, "alpha must be in (0, 1), got 0"),
            # Stop-quality peeks are log spaced from 100 to the horizon.
            ("stop-quality", {**TINY_STOP_QUALITY, "num_peeks": 0}, "num_peeks of at least 1, got 0"),
            ("stop-quality", {**TINY_STOP_QUALITY, "num_peeks": -3}, "num_peeks of at least 1, got -3"),
            ("stop-quality", {**TINY_STOP_QUALITY, "horizon": 50, "peek_every": 10},
             "horizon of at least 100, got 50"),
            # A 1e-8 MDE puts ~8.5e14 peeks on the grid: 6 PiB, beyond any
            # 47-bit address space, so numpy's request fails at once.
            ("type1", {**TINY_TYPE1, "design_mde": 1e-8}, "error: Unable to allocate"),
            # A master seed is one 64-bit key word; masking it would alias seeds.
            ("type1", {**TINY_TYPE1, "master_seed": -1}, "error: master_seed must be in [0, 2^64 - 1], got -1"),
            # A required key that is missing is named before any study runs.
            ("mde-misspec", TINY_TYPE1, "error: mde-misspec config needs effects"),
            ("rho2-sweep", {**TINY_TYPE1, "arm_means": [0.1, 0.12]}, "error: rho2-sweep config needs rho2_grid"),
            ("type1", {key: v for key, v in TINY_TYPE1.items() if key != "methods"},
             "error: type1 config needs method or a nonempty methods list"),
            ("type1", {**TINY_TYPE1, "methods": []}, "error: type1 config needs method or a nonempty methods list"),
            # JSON's NaN and Infinity are numbers, but no setting may be either.
            ("type1", {**TINY_TYPE1, "theta0": math.nan}, "error: theta0 must be finite, got nan"),
            ("type1", {**TINY_TYPE1, "rho2": math.inf}, "error: rho2 must be finite and positive, got inf"),
            ("stop-quality", {**TINY_STOP_QUALITY, "methods": ["BHT-uninformed"], "epsilon": math.nan},
             "error: epsilon must be positive, got nan"),
            ("type1", {**TINY_TYPE1, "methods": ["BHT-uninformed"], "prior": [math.inf, 1]},
             "error: prior parameters must be finite and positive, got (inf, 1)"),
            # A stop-quality rate prior and each lift are named before any stream is drawn.
            ("stop-quality", {**TINY_STOP_QUALITY, "truth_prior": [math.nan, 1]},
             "error: truth_prior must be a pair of finite positive numbers, got (nan, 1)"),
            ("stop-quality", {**TINY_STOP_QUALITY, "truth_prior": [math.inf, 1]},
             "error: truth_prior must be a pair of finite positive numbers, got (inf, 1)"),
            ("lift-power", {**TINY_LIFT_POWER, "lift_grid": [math.nan]},
             "error: lift_grid needs finite lifts with p0 * (1 + lift) in [0, 1], got nan at p0 = 0.1"),
        ],
        ids=["misspelt-key", "grid_start", "list", "theta0-above-1", "prior-scalar", "replications-text",
             "alpha-text", "arm_means-scalar", "methods-text", "rho2-bool", "peek_every-float",
             "theta0-beyond-float", "design_mde-beyond-float", "BF-alpha-zero", "num_peeks-zero",
             "num_peeks-negative", "horizon-below-start", "grid-beyond-memory", "master_seed-negative",
             "effects-missing", "rho2_grid-missing", "method-missing", "methods-empty", "theta0-nan",
             "rho2-infinite", "epsilon-nan", "prior-infinite", "truth_prior-nan", "truth_prior-infinite",
             "lift_grid-nan"],
    )
    def test_bad_config_rejected(self, tmp_path, capsys, study, conf, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(conf))
        out_dir = tmp_path / "study"
        code, _, err = run_cli(
            ["simulate", "--study", study, "--config", str(config), "--out", str(out_dir)], capsys
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_bundled_configs_parse(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in ("type1", "power", "lift_power", "rho2_sweep", "mde_misspec", "stop_quality"):
            with open(os.path.join(here, "configs", f"{name}.json"), encoding="utf-8") as fh:
                conf = json.load(fh)
            assert "methods" in conf


# sha256 of report.json at 20 replications for every bundled config, plus a
# flat-prior BHT stop-quality run, two-arm BHT type1 and power runs (flat
# and matched prior), an mSPRT tuning sweep, and a type-1 run of FHT and
# AsympCS-lift: reports stay byte-identical at fixed seeds.
# Recorded with numpy 2.4.6 and scipy 1.17.1; other library versions may
# legitimately move the last bits of a float.
GOLDEN_REPORTS = {
    "type1": ("type1", "cd2233044f706c022b3b0b29fb1ba1b778ba1e0e79722e9327d79d95da7491ec"),
    "power": ("power", "93cfde4a6f793422b0b0ca2eeeb0b5b8305c4ace6eaf6377b28d98db4b6ef7bf"),
    "lift_power": ("lift-power", "50d5118bf6dcd930578116fafbd8a3b9324b1faa941ebff0064064732ecd2584"),
    "rho2_sweep": ("rho2-sweep", "e151e0f1fcfb87014df7a49330d25ced96c6e659a26a2faacbde80b13433bcf7"),
    "mde_misspec": ("mde-misspec", "f43bd483e3833195ae2047a2c3fc04bbe0fcce0d21e0eb6e23c4c8f3792cd938"),
    "stop_quality": ("stop-quality", "996a2fabb5984b1c88cb064008ec6ff96dd1f322e9e11ba2620dcc859c8cd3f6"),
    "stop_quality_bht": ("stop-quality", "957a0393ead3efcdf5f92b42f2a66b5b01f3665c7d4514f4610e2ff252a67fe3"),
    "type1_bht": ("type1", "701fc71ad3fdb4aac043a92315d67e0d5d292a3f59a37119f8a25fa2f4e22530"),
    "power_bht": ("power", "2cbe919120904ab6049d69c515f7bc88b2ed26c77ba18fdc5af2ca97655affb0"),
    "power_bht_matched": ("power", "9db1f69e8a468cec9cd2eb241f2b6d962f7e6e885f0f223ce391af2e70b8e7cb"),
    "rho2_sweep_msprt": ("rho2-sweep", "40418b9a95264f6863841ac8b1856e4081500e374e710bb941ec872ca5cb0d15"),
    "type1_fht_lift": ("type1", "ffa466ccd092911ab20a54c5af91de650a9bdbfbd6e51bff4e192ca3cdae50ee"),
    # Blocks of up to 300 events: two-arm increments in uint16.
    "type1_peek300": ("type1", "a78317017b18de9ee269b694696ad786a7952056db3efe2bcf99719f7e0cff67"),
    # Blocks past 65,535 events and a grid past 2^31 - 1: uint32 increments, counts past 2^31 - 1.
    "stop_quality_bht_wide": ("stop-quality", "7a96156aba4e5d02b8b8bb29ae61922964e42d004305dc7bce1a17b05715a914"),
}
INLINE_CONFIGS = {
    "stop_quality_bht": {
        "methods": ["BHT-uninformed"], "truth_prior": [100, 100], "theta0": 0.5, "horizon": 200_000,
        "num_peeks": 200, "epsilon": 1e-3, "master_seed": 20240508,
    },
    "type1_bht": {
        "methods": ["BHT-uninformed"], "arm_means": [0.1, 0.1], "design_mde": 0.02, "peek_every": 100,
        "epsilon": 1e-4, "master_seed": 7,
    },
    "power_bht": {
        "methods": ["BHT-uninformed"], "arm_means": [0.1, 0.12], "peek_every": 100, "epsilon": 1e-3,
        "master_seed": 8, "horizon_multiples": [1.0, 2.0],
    },
    "power_bht_matched": {
        "methods": ["BHT-matched"], "arm_means": [0.1, 0.12], "prior": [10, 90], "peek_every": 100,
        "epsilon": 1e-4, "master_seed": 10, "horizon_multiples": [1.0, 2.0],
    },
    "rho2_sweep_msprt": {
        "methods": ["mSPRT"], "arm_means": [0.1, 0.13], "peek_every": 100, "alpha": 0.05,
        "rho2_grid": [1e-4, 1e-3, 1e-2], "master_seed": 9,
    },
    "type1_fht_lift": {
        "methods": ["FHT", "AsympCS-lift"], "arm_means": [0.1, 0.1], "design_mde": 0.02, "peek_every": 100,
        "alpha": 0.3, "master_seed": 33,
    },
    "type1_peek300": {
        "methods": ["AsympCS", "mSPRT", "FHT-peeking", "LDM", "BF-uninformed"], "arm_means": [0.1, 0.1],
        "design_mde": 0.01, "peek_every": 300, "alpha": 0.05, "rho2": 0.001, "master_seed": 20240501,
    },
    "stop_quality_bht_wide": {
        "methods": ["BHT-uninformed"], "truth_prior": [100, 100], "theta0": 0.5, "horizon": 3_000_000_000,
        "num_peeks": 60, "epsilon": 1e-3, "master_seed": 20240508,
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_digest_pinned(tmp_path, capsys, name):
    study, digest = GOLDEN_REPORTS[name]
    if name in INLINE_CONFIGS:
        conf = dict(INLINE_CONFIGS[name])
    else:
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "configs", f"{name}.json"), encoding="utf-8") as fh:
            conf = json.load(fh)
    conf["replications"] = 20
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(conf))
    code, _, _ = run_cli(
        ["simulate", "--study", study, "--config", str(config), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["type1", "power", "lift_power", "rho2_sweep", "mde_misspec", "stop_quality"])
def test_method_key_matches_one_item_methods(tmp_path, capsys, name):
    # A config may name its one method with "method" (as the benchmark's
    # stop-quality config does) or as a one-item "methods"; both run alike.
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", f"{name}.json"), encoding="utf-8") as fh:
        conf = json.load(fh)
    method = conf.pop("methods")[0]
    reports = []
    for key, value in (("method", method), ("methods", [method])):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({**conf, key: value, "replications": 20}))
        out_dir = tmp_path / key
        code, _, err = run_cli(
            ["simulate", "--study", GOLDEN_REPORTS[name][0], "--config", str(config), "--out", str(out_dir)], capsys
        )
        assert code == 0, err
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


# A well-formed decision file; analyze writes an infinite bound as JSON's Infinity.
DECISION = (
    '{"experiment_id": "e0", "method": "asympcs", "verdict": "significant", "n": 100, "n0": 50, "n1": 50,'
    ' "peek_count": 1, "n_at_decision": null, "lower": -Infinity, "upper": Infinity, "statistic": null,'
    ' "params": {}}'
)
BAD = "decision record has bad values: "


class TestReportCommand:
    def test_crosstab_end_to_end(self, tmp_path, capsys):
        decisions = tmp_path / "decisions"
        decisions.mkdir()
        rng = np.random.default_rng(7)
        for k, (fht_v, cs_v) in enumerate(
            [("significant", "significant"), ("significant", "not-significant"),
             ("not-significant", "not-significant")]
        ):
            for method, verdict in (("fht-peeking", fht_v), ("asympcs", cs_v)):
                record = {
                    "experiment_id": f"e{k}", "method": method, "verdict": verdict,
                    "n": 100, "n0": 50, "n1": 50, "peek_count": 1,
                    "n_at_decision": None, "lower": None, "upper": None,
                    "statistic": None, "params": {},
                }
                with open(decisions / f"e{k}_{method}.json", "w", encoding="utf-8") as fh:
                    json.dump(record, fh)
        out = tmp_path / "crosstab.json"
        code, stdout, _ = run_cli(
            ["report", "crosstab", "--decisions", str(decisions), "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["counts"] == {
            "fht_sig_cs_sig": 1, "fht_sig_cs_not": 1, "fht_not_cs_sig": 0, "fht_not_cs_not": 1,
        }
        assert "AsympCS Significant" in stdout

    def test_infinite_bounds_accepted(self, tmp_path, capsys):
        decisions = tmp_path / "decisions"
        decisions.mkdir()
        (decisions / "e0_cs.json").write_text(DECISION)
        (decisions / "e0_fht.json").write_text(DECISION.replace('"asympcs"', '"fht-peeking"'))
        out = tmp_path / "crosstab.json"
        code, _, _ = run_cli(["report", "crosstab", "--decisions", str(decisions), "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["counts"]["fht_sig_cs_sig"] == 1

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"x": 1}', "decision record has unknown keys: x; missing fields: "),
            ("[1]", "decision record must be a JSON object, got list"),
            ('{"experiment_id": "e", "method": "asympcs", "n": 1, "n0": 1, "n1": 0, "peek_count": 1}',
             "decision record has missing fields: verdict"),
            ('{"experiment_id": "e", "method": "asympcs", "verdict": "significant", "n": 1, "n0": 1, "n1": 0,'
             ' "peek_count": 1, "bogus": 2}', "decision record has unknown keys: bogus"),
            ("{bad", "Expecting property name enclosed in double quotes"),
            (DECISION.replace('"e0"', '["e0"]'), BAD + 'experiment_id must be a string, got ["e0"]'),
            (DECISION.replace('"verdict": "significant"', '"verdict": null'), BAD + "verdict must be a string, got null"),
            (DECISION.replace('"n": 100', '"n": true'), BAD + "n must be an integer, got true"),
            (DECISION.replace('"n0": 50', '"n0": 50.0'), BAD + "n0 must be an integer, got 50.0"),
            (DECISION.replace('"n_at_decision": null', '"n_at_decision": 1.5'),
             BAD + "n_at_decision must be an integer or null, got 1.5"),
            (DECISION.replace('"lower": -Infinity', '"lower": "-inf"'), BAD + 'lower must be a number or null, got "-inf"'),
            (DECISION.replace('"params": {}', '"params": []'), BAD + "params must be an object, got []"),
            (DECISION.replace('"peek_count": 1', '"peek_count": "1"').replace('"statistic": null', '"statistic": [0]'),
             BAD + 'peek_count must be an integer, got "1"; statistic must be a number or null, got [0]'),
        ],
        ids=["unknown-key", "list", "missing-field", "extra-key", "json-syntax", "list-id", "null-verdict",
             "bool-count", "float-count", "float-n-at-decision", "string-bound", "list-params", "two-fields"],
    )
    def test_bad_decision_file_rejected(self, tmp_path, capsys, body, message):
        decisions = tmp_path / "decisions"
        decisions.mkdir()
        (decisions / "e0.json").write_text(body)
        out = tmp_path / "crosstab.json"
        code, stdout, err = run_cli(
            ["report", "crosstab", "--decisions", str(decisions), "--out", str(out)], capsys
        )
        assert code == 2
        assert f"{decisions / 'e0.json'}: {message}" in err
        assert "Traceback" not in err
        assert stdout == "" and not out.exists()


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    captured = capsys.readouterr()
    assert code != 0
    assert "usage" in captured.err.lower()


# Every path argument of every subcommand, as an argv with PATH in its place,
# and the bad paths it is given: a missing path (one under a missing
# directory), a directory, a regular file, and a path that goes through a
# regular file as if it were a directory. A missing output directory is
# created and an existing one is used, so --out of analyze and simulate
# takes only the last two.
PATH = "<path>"
PATH_ARGUMENTS = [
    (["analyze", "--log", PATH, "--method", "asympcs", "--out", "{out}"], ("missing", "directory", "under-file")),
    (["analyze", "--log", "{log}", "--method", "asympcs", "--out", PATH], ("file", "under-file")),
    (["analyze", "--log", "{log}", "--method", "ldm", "--schedule", PATH, "--out", "{out}"],
     ("missing", "directory", "under-file")),
    (["simulate", "--study", "type1", "--config", PATH, "--out", "{out}"], ("missing", "directory", "under-file")),
    (["simulate", "--study", "type1", "--config", "{config}", "--out", PATH], ("file", "under-file")),
    (["report", "crosstab", "--decisions", PATH, "--out", "{out}/crosstab.json"], ("missing", "file", "under-file")),
    (["report", "crosstab", "--decisions", "{decisions}", "--out", PATH], ("missing", "directory", "under-file")),
]


@pytest.mark.parametrize(
    "argv, kind",
    [(argv, kind) for argv, kinds in PATH_ARGUMENTS for kind in kinds],
    ids=[f"{argv[0]}{argv[argv.index(PATH) - 1]}-{kind}" for argv, kinds in PATH_ARGUMENTS for kind in kinds],
)
def test_bad_path_exits_2_with_message(tmp_path, capsys, argv, kind):
    log = tmp_path / "log.jsonl"
    write_log(log, np.random.default_rng(3), 300, 0.2, 0.2)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(TINY_TYPE1))
    (tmp_path / "decisions").mkdir()
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").write_text("{}")
    path = {
        "missing": tmp_path / "missing" / "x",
        "directory": tmp_path / "directory",
        "file": tmp_path / "file",
        "under-file": tmp_path / "file" / "x",
    }[kind]
    fields = {"log": log, "config": config, "decisions": tmp_path / "decisions", "out": tmp_path / "out"}
    code, out, err = run_cli([str(path) if a == PATH else a.format(**fields) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err
    assert out == ""


def test_type1_battery_draws_one_stream(tmp_path, capsys, monkeypatch):
    from anytime_ab.simlab import streams, studies

    calls = []
    draw = streams.two_arm_count_matrices

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(streams, "two_arm_count_matrices", counting)
    studies._cached_two_arm_counts.cache_clear()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "methods": ["AsympCS", "mSPRT", "FHT-peeking", "BF-uninformed"], "arm_means": [0.1, 0.1],
        "design_mde": 0.02, "replications": 30, "master_seed": 9,
    }))
    code, _, _ = run_cli(["simulate", "--study", "type1", "--config", str(config), "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert len(calls) == 1
    assert len(json.loads((tmp_path / "out" / "report.json").read_text())) == 4


def test_stop_quality_past_int32_keeps_its_counts(tmp_path, capsys, monkeypatch):
    # A grid ending past 2^31 - 1 cumulates into float64 counts, exact below
    # 2^53; at a true rate near 0.9 the last ones pass 2^31 - 1, where an int32
    # would have wrapped negative. Its blocks pass 65,535 events, so the
    # increments are uint32.
    from anytime_ab.simlab import methods, streams

    drawn = []
    draw = streams.single_arm_count_matrices

    def recording(*args):
        drawn.append((args[2], draw(*args)))
        return drawn[-1][1]

    monkeypatch.setattr(streams, "single_arm_count_matrices", recording)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_STOP_QUALITY, "truth_prior": [900, 100], "horizon": 3_000_000_000,
                                  "num_peeks": 5, "replications": 2}))
    code, _, err = run_cli(["simulate", "--study", "stop-quality", "--config", str(config),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err
    ((grid, (_, increments)),) = drawn
    s = methods.cumulative_blocks(increments)(np.arange(2), slice(0, len(grid)))
    assert grid[-1] == 3_000_000_000 and increments.dtype == np.uint32 and s.dtype == np.float64
    np.testing.assert_array_equal(s, np.cumsum(increments, axis=1, dtype=np.int64))
    assert (s <= grid).all() and (s[:, -1] > 2**31 - 1).all()


def test_cli_import_and_stop_quality_leave_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs most of a cold start, so nothing on the CLI's path may import it.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(INLINE_CONFIGS["stop_quality_bht"], replications=20)))
    script = (
        "import sys\n"
        "import anytime_ab.cli\n"
        "loaded = 'scipy.stats' in sys.modules\n"
        f"code = anytime_ab.cli.main(['simulate', '--study', 'stop-quality', '--config', {str(config)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, loaded, 'scipy.stats' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["0", "False", "False"]
    assert (tmp_path / "out" / "report.json").exists()


# Arbitrary text, valid events and near-misses of them, one per line.
_FUZZ_LINES = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda ts, unit, arm, value: json.dumps({"ts": ts, "unit": unit, "arm": arm, "value": value}),
        st.integers(-5, 5), st.text(max_size=3), st.sampled_from([0, 1, "0", "1", 2, 1.0, True, None]),
        st.one_of(st.floats(allow_nan=True), st.sampled_from([0, 1, "1", "x", None])),
    ),
    st.builds(
        lambda ts, unit, arm, value: f"{ts},{unit},{arm},{value}",
        st.integers(-5, 5), st.text(max_size=3), st.sampled_from(["0", "1", "2", "", "1.0"]),
        st.sampled_from(["0", "1", "0.5", "nan", "inf", "", "x"]),
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_FUZZ_LINES, max_size=12), fmt=st.sampled_from(["jsonl", "csv"]))
def test_analyze_fuzzed_log_exits_0_or_2(tmp_path, capsys, lines, fmt):
    log = tmp_path / f"fuzz.{fmt}"
    header = "ts,unit,arm,value\n" if fmt == "csv" else ""
    log.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    # main runs in this process, so an uncaught exception fails the test itself.
    code, _, _ = run_cli(
        ["analyze", "--log", str(log), "--method", "asympcs", "--snapshot-every", "3", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code in (0, 2)
