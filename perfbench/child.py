"""One measured process: import hdp_lab.cli, run CLI commands, write a record.

Usage: python3 child.py RESULT_JSON SRC_DIR [TRACE_DIR] < commands.json

stdin holds a JSON list of argv lists for ``hdp_lab.cli.main``; an empty
list only imports.  With TRACE_DIR the package is traced (see spans.py).
The record holds the monotonic time at which the import finished (the
parent subtracts its spawn time), the wall, CPU (this process plus reaped
pool workers) and peak RSS of the commands, the seconds of a fixed
reference kernel run just before and just after them, their exit codes,
and the trace counters when traced.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """Seconds this process takes for a fixed mix of work like the workloads' own.

    Elementwise numpy on 10 000-wide vectors (the lockstep kernels),
    random draws, cumulative sums and sorts (the single paths) and a scalar
    Python loop (the quadrature callbacks).  Its arrays are small, so the
    peak RSS stays the command's.  Timed next to each command, it measures
    the host's speed at that moment.
    """
    import math

    import numpy as np

    start = time.perf_counter()
    y = np.linspace(-1.0, 1.0, 10_000)
    for _ in range(1_500):
        y = np.where(y > 0.0, y * 0.999, y * 1.001) + 1e-3 * np.sqrt(np.abs(y))
    rng = np.random.default_rng(1)
    for _ in range(100):
        np.sort(np.abs(rng.standard_normal(10_000).cumsum()))
    acc = 0.0
    for i in range(1, 400_000):
        acc += math.sqrt(i) * math.exp(-1e-6 * i)
    return time.perf_counter() - start


def main() -> None:
    result_path, src = sys.argv[1], sys.argv[2]
    trace_dir = sys.argv[3] if len(sys.argv) > 3 else None
    commands = json.load(sys.stdin)
    sys.path.insert(0, src)
    import_start = time.perf_counter()
    import hdp_lab.cli

    imported_at = time.monotonic()
    import_s = time.perf_counter() - import_start
    if not os.path.abspath(hdp_lab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"hdp_lab was imported from {hdp_lab.cli.__file__}, not from {src}")
    tracer = None
    if trace_dir is not None:
        from spans import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()
    reference = [reference_s()] if commands else []
    codes = []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    for argv in commands:
        codes.append(hdp_lab.cli.main(argv))
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    if commands:
        reference.append(reference_s())
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "imported_at": imported_at,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "reference_s": reference,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit_codes": codes,
        "trace": tracer.merged() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
