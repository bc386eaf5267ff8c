"""Build a synthetic event-log corpus and run the decision pipeline on it.

Generates logs hitting exact per-cell verdict quotas (the generator
knows the ground truth), analyzes each log with both the peeking z-test
and the anytime interval, assembles the cross-tab, and checks it against
the manifest.

Usage: python scripts/make_synthetic_corpus.py [--out DIR] [--total N]
"""

import argparse
import json
import pathlib
import sys

from anytime_ab.confseq import ConfSeqParams
from anytime_ab.corpus import CorpusSpec, generate_corpus
from anytime_ab.engine import analyze, crosstab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/corpus")
    parser.add_argument("--total", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    # Cell mix mirroring the shape of real fixed-horizon vs anytime
    # disagreement: peeking inflates significance, the reverse is rare.
    total = args.total
    counts = {"fht_sig_cs_sig": round(0.28 * total), "fht_sig_cs_not": round(0.15 * total), "fht_not_cs_sig": 0}
    counts["fht_not_cs_not"] = total - sum(counts.values())
    out_dir = pathlib.Path(args.out)
    spec = CorpusSpec(counts=counts, seed=args.seed)
    manifest = generate_corpus(str(out_dir), spec)
    print(f"corpus: {len(manifest['assignments'])} logs in {out_dir}")

    params = ConfSeqParams(spec.alpha, spec.rho2)
    records = []
    for name in sorted(manifest["assignments"]):
        log = str(out_dir / name)
        for method in ("fht-peeking", "asympcs"):
            record, _ = analyze(log, method, params, snapshot_every=spec.snapshot_every)
            records.append(record)
    table = crosstab(records)
    print(table.format_table())

    expected = manifest["expected_counts"]
    got = table.to_dict()["counts"]
    if got != expected:
        print(f"MISMATCH: expected {expected}, got {got}", file=sys.stderr)
        return 1
    print("cross-tab matches generator ground truth")
    with open(out_dir / "crosstab.json", "w", encoding="utf-8") as fh:
        json.dump(table.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
