"""The two workloads: seeded inputs, CLI commands, and references.

A workload's operation is a fixed sequence of CLI commands. ``analyze``
streams two synthetic event logs through two rules; ``simulate`` runs
two studies from configs kept in ``perfbench/configs``. Inputs depend
only on the seed and the command's size, and are cached under the work
directory together with their reference outputs, so the timed runs
never pay for generating them.
"""

import hashlib
import json
import os
from dataclasses import astuple, dataclass

import numpy as np

from . import check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT = "{out}"
P0, P1 = 0.10, 0.11
ALPHA, RHO2, BHT_EPSILON = 0.05, 1e-3, 1e-4


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Case:
    """One command of a workload, prepared for one seed."""

    argv: list          # CLI arguments; OUT stands for the output directory
    inputs: dict        # input file name -> sha256
    events: int         # log lines, or simulated Bernoulli outcomes
    cells: int          # rule evaluations the output covers
    reference: object   # what the checker compares against

    def cli_argv(self, out_dir: str) -> list:
        return [out_dir if arg == OUT else arg for arg in self.argv]

    def check(self, out_dir: str) -> list:
        if self.argv[0] == "analyze":
            return check.check_analyze(out_dir, self.reference)
        return check.check_simulate(out_dir, self.reference)


def _write_atomic(path: str, write) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    write(tmp)
    os.replace(tmp, path)


@dataclass(frozen=True)
class AnalyzeCommand:
    """A seeded two-arm Bernoulli event log analyzed by one rule.

    Events split 50/50 between arms with conversion rates ``P0`` and
    ``P1``; every unit is unique and ``ts`` increases, so ``--dedup`` and
    ordering never matter.
    """

    name: str
    fmt: str
    method: str
    events: int
    snapshot_every: int

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, self.events, 1 if self.fmt == "csv" else 0])
        arm = rng.integers(0, 2, self.events)
        value = (rng.random(self.events) < np.where(arm == 1, P1, P0)).astype(np.int64)
        return arm, value

    def write_log(self, path: str, arm, value) -> None:
        triples = zip(range(1, arm.size + 1), arm.tolist(), value.tolist())
        if self.fmt == "csv":
            lines = ["ts,unit,arm,value\n"] + [f"{t},u{t},{a},{v}\n" for t, a, v in triples]
        else:
            lines = [f'{{"ts": {t}, "unit": "u{t}", "arm": {a}, "value": {v}}}\n' for t, a, v in triples]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))

    def reference(self, arm, value) -> dict:
        from . import oracle

        ref = oracle.snapshot_counts(arm, value, self.snapshot_every)
        n0, n1, s0, s1 = (ref[k].astype(float) for k in ("n0", "n1", "s0", "s1"))
        ref["mu0"] = np.where(n0 > 0, s0 / np.maximum(n0, 1.0), 0.0)
        ref["mu1"] = np.where(n1 > 0, s1 / np.maximum(n1, 1.0), 0.0)
        if self.method == "asympcs":
            _, ref["lower"], ref["upper"] = oracle.asympcs_intervals(n0, n1, s0, s1, ALPHA, RHO2)
        elif self.method == "bht":
            loss0, loss1 = oracle.two_arm_losses(ref["s0"], ref["n0"], ref["s1"], ref["n1"])
            ref["min_loss"] = np.minimum(loss0, loss1)
        else:
            raise ValueError(f"no reference for method {self.method!r}")
        return ref

    def prepare(self, seed: int, work_dir: str) -> Case:
        spec = hashlib.sha256(repr(astuple(self)[1:]).encode()).hexdigest()[:12]
        stem = os.path.join(work_dir, "inputs", f"{self.name}-s{seed}-{spec}")
        log_path, ref_path = f"{stem}.{self.fmt}", f"{stem}.ref.npz"
        if not (os.path.exists(log_path) and os.path.exists(ref_path)):
            os.makedirs(os.path.dirname(stem), exist_ok=True)
            arm, value = self.generate(seed)
            _write_atomic(log_path, lambda p: self.write_log(p, arm, value))
            ref = self.reference(arm, value)
            _write_atomic(ref_path, lambda p: _save_npz(ref, p))
        with np.load(ref_path) as data:
            ref = {key: data[key].tolist() for key in data.files}
        ref.update(method=self.method, epsilon=BHT_EPSILON)
        n_snap = len(ref["n"])
        argv = [
            "analyze", "--log", log_path, "--method", self.method,
            "--alpha", repr(ALPHA), "--rho2", repr(RHO2), "--epsilon", repr(BHT_EPSILON),
            "--snapshot-every", str(self.snapshot_every), "--out", OUT,
        ]
        return Case(argv, {os.path.basename(log_path): sha256_file(log_path)}, self.events, n_snap, ref)


@dataclass(frozen=True)
class SimulateCommand:
    """A ``simulate`` study from a bench-owned config; the seed is the master seed."""

    name: str
    study: str
    config: str

    def load_config(self) -> dict:
        with open(os.path.join(BENCH_DIR, "configs", self.config), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def reference(self, conf: dict, seed: int) -> list:
        from . import oracle

        if self.study == "type1":
            with open(os.path.join(BENCH_DIR, "reference", "type1_ldm.json"), "r", encoding="utf-8") as fh:
                ldm = json.load(fh)
            return oracle.type1_reports(conf, seed, ldm["boundaries"])
        if self.study == "stop-quality":
            return [oracle.stop_quality_report(conf, seed)]
        raise ValueError(f"no reference for study {self.study!r}")

    def prepare(self, seed: int, work_dir: str) -> Case:
        config_path = os.path.join(BENCH_DIR, "configs", self.config)
        config_sha = sha256_file(config_path)
        ref_path = os.path.join(work_dir, "inputs", f"{self.name}-s{seed}-{config_sha[:12]}.ref.json")
        if not os.path.exists(ref_path):
            os.makedirs(os.path.dirname(ref_path), exist_ok=True)
            ref = self.reference(self.load_config(), seed)
            _write_atomic(ref_path, lambda p: _dump_json(ref, p))
        with open(ref_path, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        events = sum(r["replications"] * r["horizon"] for r in ref)
        cells = sum(r["replications"] * len(r["peek_ns"]) for r in ref)
        argv = ["simulate", "--study", self.study, "--config", config_path, "--seed", str(seed), "--out", OUT]
        return Case(argv, {self.config: config_sha}, events, cells, ref)


def _save_npz(arrays: dict, path: str) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple

    def prepare(self, seed: int, work_dir: str) -> list:
        return [command.prepare(seed, work_dir) for command in self.commands]


# Each operation runs both commands back to back, each in a fresh
# interpreter. Every layer the roadmap targets does most of its work in
# exactly one command; the per-layer trace keeps them apart.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze",
            "AsympCS over a 400k-event JSONL log (parse and ingest bound), then BHT over a 100k-event CSV log"
            " (exact two-arm loss bound); no simlab",
            (
                AnalyzeCommand("asympcs-jsonl", "jsonl", "asympcs", 400_000, 100),
                AnalyzeCommand("bht-csv", "csv", "bht", 100_000, 50),
            ),
        ),
        Workload(
            "simulate",
            "type1 battery (two-arm streams, LDM boundaries, reject kernels), then BHT stop-quality"
            " (single-arm streams, betainc losses); no engine",
            (
                SimulateCommand("type1", "type1", "type1.json"),
                SimulateCommand("stop-bht", "stop-quality", "stop_bht.json"),
            ),
        ),
    )
}
