"""Run one CLI operation in this fresh interpreter and record its timings.

    python3 perfbench/child.py T0 RESULT_JSON TRACE ROOT CLI_ARG...

T0 is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start-up plus
``import anytime_ab.cli``, as a user of the CLI pays it. ``wall_s``
runs from the call into ``cli.main`` until it returns with its outputs
written. ``peak_rss_mb`` is this process's high-water RSS (VmHWM): the
rusage of a child also counts the parent's pages it held between fork
and exec, so it would move with the harness's own memory. With TRACE=1
the layer spans are installed after set-up and removed before the
result is written.
"""

import os
import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def main() -> int:
    t0, result_path, traced, root = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    sys.path[0] = os.path.join(root, "src")
    from anytime_ab import cli

    setup_s = time.monotonic() - t0
    import json

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"anytime_ab was imported from {cli.__file__}, not from {root}/src", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        sys.path.insert(1, root)
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        status = cli.main(sys.argv[5:])
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"status": status, "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.totals(wall_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
