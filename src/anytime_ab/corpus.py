"""Synthetic event-log corpus with known decision ground truth.

Builds a directory of logs whose (peeking z-test, anytime interval)
verdict pairs hit exact target counts, by simulating candidate
experiments and keeping the ones that land in each still-open bucket.
Used to exercise the analyze -> decisions -> crosstab pipeline against a
generator that knows the answer.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .simlab import methods

CATEGORIES = ("both-sig", "fht-only-sig", "cs-only-sig", "neither-sig")
MAX_CANDIDATES = 20000


@dataclass(frozen=True)
class CorpusSpec:
    counts: dict  # category -> number of logs
    p0: float = 0.3
    effect: float = 0.15
    events_per_log: int = 3000
    snapshot_every: int = 100
    alpha: float = 0.05
    rho2: float = 1e-3
    seed: int = 2024


def _classify(n0, n1, s0, s1, spec: CorpusSpec) -> str:
    fht = bool(methods.z_reject(n0, n1, s0, s1, spec.alpha).any())
    cs = bool(methods.ate_reject(n0, n1, s0, s1, spec.alpha, spec.rho2).any())
    if fht and cs:
        return "both-sig"
    if fht:
        return "fht-only-sig"
    if cs:
        return "cs-only-sig"
    return "neither-sig"


def _simulate_counts(rng, spec: CorpusSpec, effect: float):
    grid = np.arange(spec.snapshot_every, spec.events_per_log + 1, spec.snapshot_every)
    blocks = np.diff(grid, prepend=0)
    m1 = rng.binomial(blocks, 0.5)
    c1 = rng.binomial(m1, spec.p0 + effect)
    c0 = rng.binomial(blocks - m1, spec.p0)
    n1 = np.cumsum(m1).astype(float)[None, :]
    s1 = np.cumsum(c1).astype(float)[None, :]
    s0 = np.cumsum(c0).astype(float)[None, :]
    n0 = grid.astype(float)[None, :] - n1
    return grid, blocks, m1, c1, c0, n0, n1, s0, s1


def _write_log(path: str, blocks, m1, c1, c0) -> None:
    """Emit per-event JSONL whose block-level statistics match the draws."""
    lines = []
    ts = 0
    unit = 0
    for b, k1, x1, x0 in zip(blocks, m1, c1, c0):
        k0 = b - k1
        for arm, count, conv in ((1, k1, x1), (0, k0, x0)):
            for i in range(count):
                value = 1 if i < conv else 0
                ts += 1
                unit += 1
                lines.append(json.dumps({"ts": ts, "unit": f"u{unit}", "arm": arm, "value": value}))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_corpus(out_dir: str, spec: CorpusSpec) -> dict:
    """Fill the per-category quotas and write logs plus a manifest.

    Null experiments feed the fht-only / cs-only / neither buckets;
    experiments with the configured effect feed the both-sig bucket.
    Returns the manifest (category per log, expected crosstab counts).
    """
    unknown = set(spec.counts) - set(CATEGORIES)
    if unknown:
        raise ValueError(f"unknown categories: {sorted(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    remaining = {cat: int(spec.counts.get(cat, 0)) for cat in CATEGORIES}
    assignments: dict[str, str] = {}
    log_index = 0
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    for candidate in range(MAX_CANDIDATES):
        if not any(remaining.values()):
            break
        want_effect = remaining["both-sig"] > 0
        effect = spec.effect if want_effect else 0.0
        grid, blocks, m1, c1, c0, n0, n1, s0, s1 = _simulate_counts(rng, spec, effect)
        category = _classify(n0, n1, s0, s1, spec)
        if remaining.get(category, 0) <= 0:
            continue
        remaining[category] -= 1
        name = f"exp{log_index:04d}.jsonl"
        _write_log(os.path.join(out_dir, name), blocks, m1, c1, c0)
        assignments[name] = category
        log_index += 1
    unfilled = {cat: k for cat, k in remaining.items() if k > 0}
    if unfilled:
        raise RuntimeError(f"could not fill quotas within {MAX_CANDIDATES} candidates: {unfilled}")
    manifest = {
        "spec": {
            "p0": spec.p0,
            "effect": spec.effect,
            "events_per_log": spec.events_per_log,
            "snapshot_every": spec.snapshot_every,
            "alpha": spec.alpha,
            "rho2": spec.rho2,
            "seed": spec.seed,
        },
        "assignments": assignments,
        "expected_counts": {cat: int(spec.counts.get(cat, 0)) for cat in CATEGORIES},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest
