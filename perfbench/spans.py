"""Per-function span tracing for the hdp_lab package.

``Tracer.install`` wraps every public function defined in each hdp_lab
module (``__all__`` is not used: it leaves out the lockstep kernels) plus
``SeedSpec.generator``, and rebinds each wrapper at every place the
function is looked up: module globals, names imported into other modules,
and the check lists in ``experiments.SUITES``.  Each wrapper counts calls
and accumulates inclusive and self time, self time being the span minus the
spans it encloses.  Forked worker processes start from zeroed counters and
write theirs to ``trace_dir`` when they exit, so pool work reaches the
report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from multiprocessing import util as mp_util

PACKAGE = "hdp_lab"
#: package modules, which are also the benchmark's layers
MODULES = ("core", "skew", "solutions", "integrals", "analytics", "stats", "experiments", "cli")


def traceable_functions() -> dict:
    """``{"<module>.<name>": function}`` for every function the tracer wraps."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                found[f"{short}.{name}"] = obj
    core = importlib.import_module(f"{PACKAGE}.core")
    found["core.SeedSpec.generator"] = core.SeedSpec.generator
    return found


class Tracer:
    """Call counts and inclusive/self seconds per wrapped function."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self._stack: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        traced.__traced_original__ = fn
        return traced

    def install(self) -> dict:
        """Wrap and rebind every traceable function; returns ``{original: wrapper}``."""
        wrappers = {fn: self.wrap(name, fn) for name, fn in traceable_functions().items()}
        core = importlib.import_module(f"{PACKAGE}.core")
        core.SeedSpec.generator = wrappers[core.SeedSpec.generator]
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        suites = importlib.import_module(f"{PACKAGE}.experiments").SUITES
        for checks in suites.values():
            checks[:] = [wrappers.get(check, check) for check in checks]
        # A multiprocessing child clears its finalizers, runs these hooks,
        # and runs the finalizers when it ends (it skips atexit).
        mp_util.register_after_fork(self, Tracer._start_worker)
        return wrappers

    def _start_worker(self) -> None:
        # The parent's open spans never close in the child; start clean.
        self._stack.clear()
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's counters to ``trace_dir/<pid>.json``."""
        os.makedirs(self.trace_dir, exist_ok=True)
        called = {name: stats for name, stats in self.stats.items() if stats[0]}
        with open(os.path.join(self.trace_dir, f"{os.getpid()}.json"), "w") as fh:
            json.dump(called, fh)

    def merged(self) -> dict:
        """Counters of this process plus every worker that flushed."""
        total = {name: list(stats) for name, stats in self.stats.items()}
        if os.path.isdir(self.trace_dir):
            for entry in sorted(os.listdir(self.trace_dir)):
                with open(os.path.join(self.trace_dir, entry)) as fh:
                    for name, (calls, inclusive, self_s) in json.load(fh).items():
                        acc = total.setdefault(name, [0, 0.0, 0.0])
                        acc[0] += calls
                        acc[1] += inclusive
                        acc[2] += self_s
        return total
