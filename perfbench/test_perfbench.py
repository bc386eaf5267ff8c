"""Tests of the benchmark itself: inputs, checker, tracer and BENCHMARK.json."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from anytime_ab import bayes, cli, engine, simlab
from anytime_ab.bayes import BetaPosterior, two_arm_expected_loss
from anytime_ab.simlab import methods, streams, studies
from perfbench import check, oracle, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _analyze_case(tmp_path, method, fmt="jsonl", events=10_000, every=50, seed=1):
    # Seed 1 at 10k events crosses under both rules, so the decision has a verdict to flip.
    command = workloads.AnalyzeCommand(f"test-{method}", fmt, method, events, every)
    return command.prepare(seed, str(tmp_path / "work"))


def _run_cli(case, out_dir, capsys):
    assert cli.main(case.cli_argv(str(out_dir))) == 0
    capsys.readouterr()


def _edit_json(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def test_same_seed_gives_same_inputs(tmp_path):
    w = workloads.AnalyzeCommand("test-seeded", "csv", "bht", 3000, 50)
    first = w.prepare(7, str(tmp_path / "a"))
    again = w.prepare(7, str(tmp_path / "b"))
    other = w.prepare(8, str(tmp_path / "c"))
    assert first.inputs == again.inputs
    assert list(first.inputs.values()) != list(other.inputs.values())
    assert first.reference["n"] == again.reference["n"]


@pytest.mark.parametrize("method,fmt", [("asympcs", "jsonl"), ("bht", "csv")])
def test_checker_fails_perturbed_decision(tmp_path, capsys, method, fmt):
    case = _analyze_case(tmp_path, method, fmt)
    out = tmp_path / "out"
    _run_cli(case, out, capsys)
    assert case.check(str(out)) == []
    decision_path = out / "decision.json"
    with open(decision_path, "r", encoding="utf-8") as fh:
        decision = json.load(fh)
    assert decision["verdict"] == "significant"
    original = decision_path.read_text()

    _edit_json(decision_path, lambda d: d.update(verdict="not-significant"))
    assert case.check(str(out))
    decision_path.write_text(original)
    _edit_json(decision_path, lambda d: d.update(n_at_decision=d["n_at_decision"] + 50))
    assert case.check(str(out))
    decision_path.write_text(original)
    if method == "bht":
        _edit_json(decision_path, lambda d: d.update(statistic=d["statistic"] * (1 + 1e-6)))
        assert case.check(str(out))
        decision_path.write_text(original)
        _edit_json(decision_path, lambda d: d.update(statistic=d["statistic"] * (1 + 1e-10)))
        assert case.check(str(out)) == []


def test_checker_fails_moved_interval(tmp_path, capsys):
    case = _analyze_case(tmp_path, "asympcs")
    out = tmp_path / "out"
    _run_cli(case, out, capsys)
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    row = lines[10].split(",")
    row[4] = repr(float(row[4]) * (1 + 1e-9))
    lines[10] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert any("interval" in p for p in case.check(str(out)))


def _simulate(tmp_path, capsys, study, conf, seed):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(conf))
    out = tmp_path / "sim"
    argv = ["simulate", "--study", study, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return out


STOP_CONF = {
    "method": "BHT-uninformed", "truth_prior": [100, 100], "theta0": 0.5, "horizon": 20000,
    "num_peeks": 60, "replications": 200, "epsilon": 1e-3,
}


def test_checker_fails_perturbed_stop_report(tmp_path, capsys):
    out = _simulate(tmp_path, capsys, "stop-quality", STOP_CONF, 11)
    ref = [oracle.stop_quality_report(STOP_CONF, 11)]
    assert check.check_simulate(str(out), ref) == []
    path = out / "report.json"
    original = path.read_text()

    def move_crossing(reports):
        curve = reports[0]["cumulative_rejection_by_peek"]
        k = next(i for i, v in enumerate(curve) if v > 0)
        curve[k - 1] = curve[k]

    for edit in (
        move_crossing,
        lambda r: r[0]["stop_time_quantiles"].update({"0.5": r[0]["stop_time_quantiles"]["0.5"] + 1}),
        lambda r: r[0].update(mean_loss_at_stop=r[0]["mean_loss_at_stop"] * (1 + 1e-6)),
    ):
        path.write_text(original)
        _edit_json(path, edit)
        assert check.check_simulate(str(out), ref)
    path.write_text(original)
    _edit_json(path, lambda r: r[0].update(mean_loss_at_stop=r[0]["mean_loss_at_stop"] * (1 + 1e-10)))
    assert check.check_simulate(str(out), ref) == []


def test_checker_fails_perturbed_type1_report(tmp_path, capsys):
    conf = workloads.SimulateCommand("type1", "type1", "type1.json").load_config()
    conf["replications"] = 20
    out = _simulate(tmp_path, capsys, "type1", conf, 4)
    with open(os.path.join(workloads.BENCH_DIR, "reference", "type1_ldm.json"), "r", encoding="utf-8") as fh:
        ldm = json.load(fh)
    assert ldm["fht_total"] == oracle.fixed_horizon_total(0.1, 0.01, 0.05, 0.8)
    assert ldm["peek_ns"] == oracle.ldm_peek_ns(ldm["fht_total"]).tolist()
    ref = oracle.type1_reports(conf, 4, ldm["boundaries"])
    assert check.check_simulate(str(out), ref) == []
    _edit_json(out / "report.json", lambda r: r[1].update(power=r[1]["power"] + 0.05))
    assert check.check_simulate(str(out), ref)


def test_quadrature_reference_matches_exact_loss():
    for c0, n0, c1, n1 in ((3, 40, 9, 41), (120, 1000, 150, 1000), (2500, 25000, 2760, 25100)):
        loss0, loss1 = oracle.two_arm_losses([c0], [n0], [c1], [n1])
        post0, post1 = BetaPosterior(1 + c0, 1 + n0 - c0), BetaPosterior(1 + c1, 1 + n1 - c1)
        assert loss0[0] == pytest.approx(two_arm_expected_loss(post0, post1, "arm0", backend="exact"), rel=1e-9)
        assert loss1[0] == pytest.approx(two_arm_expected_loss(post0, post1, "arm1", backend="exact"), rel=1e-9)


def _patched_targets():
    targets = [(cli, "analyze")] + [(engine, n) for n in ("parse_events", "ingest", "analyze_snapshots",
                                                         "asympcs_ate", "bht_decide")]
    targets += [(bayes, "beta_prob_greater"), (studies, "compute_boundaries"), (methods, "betainc")]
    targets += [(simlab, n) for n in tracing.STUDIES + ("write_json", "write_csv")]
    targets += [(streams, n) for n in ("two_arm_count_matrices", "single_arm_count_matrices")]
    targets += [(methods, n) for n in tracing.REJECT_KERNELS + ("bht_single_losses", "first_crossing",
                                                               "cumulative_fraction")]
    return targets


def test_tracer_accounts_and_restores(tmp_path, capsys):
    targets = _patched_targets()
    originals = [getattr(obj, name) for obj, name in targets]
    case = _analyze_case(tmp_path, "bht", "csv")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(obj, name) is not orig for (obj, name), orig in zip(targets, originals))
        _run_cli(case, tmp_path / "out", capsys)
        _simulate(tmp_path, capsys, "stop-quality", STOP_CONF, 3)
    finally:
        tracer.restore()
    assert all(getattr(obj, name) is orig for (obj, name), orig in zip(targets, originals))

    totals = tracer.totals(wall_s=100.0)
    layers = tracing.layer_metrics(tracing.add_totals(totals, totals))
    assert layers == pytest.approx({
        k: v if k.endswith(("ratio", "us_per_event", "us_per_snapshot")) else 2 * v
        for k, v in tracing.layer_metrics(totals).items()
    })
    layers = tracing.layer_metrics(totals)
    assert set(layers) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER)
    assert layers["engine.parse_events.events"] == case.events == layers["engine.ingest.events"]
    assert layers["engine.analyze_snapshots.snapshots"] == case.cells == layers["bayes.bht_decide.calls"]
    assert 0 < layers["engine.analyze_snapshots.useful_ratio"] < 1
    assert layers["bayes.beta_prob_greater.calls"] == 4 * layers["bayes.bht_decide.calls"]
    assert layers["simlab.methods.betainc.evaluations"] == 4 * layers["simlab.methods.bht_single_losses.cells"]
    assert 0 < layers["simlab.methods.bht_single_losses.useful_ratio"] < 1
    spans = sum(tracer.self_time.values())
    assert math.isclose(layers["cli.self_s"] + spans, 100.0)
    assert layers["engine.parse_events.busy_s"] + layers["engine.ingest.busy_s"] <= tracer.busy["engine.ingest"] + 1e-9


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracing.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile(list(range(1, 51)))
    assert (p, value) == (80, 40)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", next(iter(workloads.WORKLOADS)), "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a source checkout" in proc.stderr
