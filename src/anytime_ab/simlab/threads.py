"""Split a block's rows across the CPUs this process may use.

``split_rows`` runs ``fn(lo, hi)`` over consecutive parts of a block's
rows: the calling thread runs the first part, and a thread pool, made on
first use, runs the rest. It helps only where ``fn`` spends its time in
native code that releases the GIL (scipy's ``betainc``, numpy's
binomial sampler); the kernels that use it are elementwise or keyed per
row, so every cell holds the bits one inline call would give.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Fewest cells a part may have. On a 2-vCPU VM (medians of 40-60
# interleaved calls), two parts took BHT loss blocks of 512/768/1,024/2,048
# cells 1.47/1.34/0.74/0.58x the inline time, and two-arm draws of 2/4 rows
# of 984 peeks 0.99/0.87x.
MIN_PART_CELLS = 512

_pool = None
_pool_lock = threading.Lock()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="simlab")
        return _pool


def split_rows(fn, rows: int, cells_per_row: int) -> list:
    """``[fn(lo, hi) for each part]`` over parts of ``range(rows)``, in row order.

    There are as many parts as usable CPUs, but no more than leave each
    part ``MIN_PART_CELLS`` cells; with one part, ``fn(0, rows)`` runs
    inline and no thread is made. Parts run concurrently, so ``fn`` must
    touch only its own rows of any shared output. Every part finishes
    before this returns; an exception from any part is raised here.
    """
    cpus = usable_cpus()
    parts = min(cpus, rows, rows * cells_per_row // MIN_PART_CELLS)
    if parts <= 1:
        return [fn(0, rows)]
    bounds = [rows * i // parts for i in range(parts + 1)]
    pool = _executor(cpus - 1)
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]
