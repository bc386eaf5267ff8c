"""Run the bundled simulation studies and drop CSV/JSON reports in out/.

Usage: python scripts/run_studies.py [--out DIR] [--only STUDY ...]

The full battery at the bundled desk scales took 14-17 s on a 2-vCPU VM
(Python 3.11, numpy 2.4.6, scipy 1.17.1), mde-misspec 1.4-1.8 s of it;
pass --only to run a subset.
"""

import argparse
import pathlib
import sys
import time

from anytime_ab.cli import main as cli_main

REPO = pathlib.Path(__file__).resolve().parent.parent
STUDY_CONFIGS = {
    "type1": "configs/type1.json",
    "power": "configs/power.json",
    "lift-power": "configs/lift_power.json",
    "rho2-sweep": "configs/rho2_sweep.json",
    "mde-misspec": "configs/mde_misspec.json",
    "stop-quality": "configs/stop_quality.json",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "out" / "studies"))
    parser.add_argument("--only", nargs="*", choices=sorted(STUDY_CONFIGS), default=None)
    args = parser.parse_args()
    studies = args.only or list(STUDY_CONFIGS)
    for study in studies:
        config = REPO / STUDY_CONFIGS[study]
        out_dir = pathlib.Path(args.out) / study
        t0 = time.time()
        code = cli_main(
            ["simulate", "--study", study, "--config", str(config), "--out", str(out_dir)]
        )
        if code != 0:
            print(f"{study}: FAILED (exit {code})", file=sys.stderr)
            return code
        print(f"{study}: wrote {out_dir} in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
