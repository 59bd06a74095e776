"""Uniform time grids, discrete paths, seeded RNG streams, Brownian sampling.

Every stochastic routine in the package draws from a counter-based Philox
generator addressed by ``(master_seed, stream_index)``.  Stream k is the
master generator jumped ahead k times, so ensemble members are independent
and bit-for-bit reproducible regardless of the order in which they are
simulated (or of how work is split across processes).  ``_fork_map`` is
the one way the package forks workers: ``verify`` runs its shares of units
on it, ``simulate`` and ``reverse`` their ranges of paths.
"""

from __future__ import annotations

import operator
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # loaded here, not at the first draw: almost every command draws

__all__ = [
    "TimeGrid",
    "Path",
    "SeedSpec",
    "sample_brownian",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_n = t_end with step h.

    Parameters
    ----------
    t_end : positive horizon.
    n_steps : number of steps n >= 1; the grid has n + 1 nodes.  The step
        t_end / n_steps must not round to 0.
    """

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps}")
        if not self.t_end / self.n_steps > 0.0:
            raise ValueError(f"the step t_end / n_steps = {self.t_end} / {self.n_steps} rounds to 0")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def h(self) -> float:
        """Mesh width t_end / n_steps."""
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        """All n_steps + 1 node times, including both endpoints."""
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class Path:
    """A real-valued path sampled on a :class:`TimeGrid` (one value per node)."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"values must have shape ({self.grid.n_steps + 1},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must all be finite")
        object.__setattr__(self, "values", vals)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


def _require_positive(name: str, value: float) -> None:
    """Reject a scale parameter unless 0 < value < inf; nan fails too."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_same_grid(a: Path, b: Path) -> None:
    if a.grid != b.grid:
        raise ValueError(
            f"paths live on different grids: ({a.grid.t_end}, {a.grid.n_steps}) "
            f"vs ({b.grid.t_end}, {b.grid.n_steps})"
        )


@dataclass(frozen=True)
class SeedSpec:
    """Address of one reproducible random stream.

    ``master_seed`` keys a Philox counter generator; ``stream_index`` jumps
    it ahead, yielding independent streams for ensemble members.  Merging
    results from streams is deterministic and order-independent.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 bits")
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        bitgen = np.random.Philox(key=self.master_seed)
        if self.stream_index:
            bitgen = bitgen.jumped(self.stream_index)
        return np.random.Generator(bitgen)


#: 64-bit outputs per Philox4x64 counter value
_PHILOX_BLOCK = 4


def _skip_doubles(rng: np.random.Generator, m: int) -> None:
    """Leave a Philox generator in the state ``rng.random(m)`` would, without making the values.

    Every double takes one 64-bit output.  Philox serves them from a buffer
    of the four outputs of its current counter; each refill first adds one
    to the 256-bit counter.  So the skip uses up the buffer, advances the
    counter past the whole blocks passed over (``Philox.advance``, which
    also empties the buffer), and draws the at most four outputs read from
    the last block, which leaves that block in the buffer as the draws
    would have.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    left = m - (_PHILOX_BLOCK - state["buffer_pos"])
    if left <= 0:
        state["buffer_pos"] += m
        bitgen.state = state
        return
    skipped = (left - 1) // _PHILOX_BLOCK
    bitgen.advance(skipped)
    bitgen.random_raw(left - _PHILOX_BLOCK * skipped)


def _fork_map(work: Callable, shares: list) -> list:
    """``[work(share) for share in shares]``, the first share here and each other in a forked worker.

    Every worker starts before this process runs its own share, so all run
    at once.  A worker sends back its result, or the exception it raised,
    pickled through a pipe.  Once its own share is done, this process reads
    the pipes as they become ready, whatever the share order, and raises the
    first failure it reads, so a worker that fails early is not reported
    only after the others finish.  The exception is raised here: a worker out
    of memory still reads ``error: out of memory``, and one whose exception
    does not survive the trip sends its text in a :class:`ChildProcessError`.
    A worker that died with no message raises :class:`ChildProcessError`.
    On any exit the workers still running are terminated and every one is
    joined.  Forked, not spawned: workers start with the modules imported
    here, in their state as it is here.  A module the work imports only as
    it runs, every worker imports again, so callers import it first
    (``run_suite`` imports its checks' declared ``imports``).  They are
    ``multiprocessing`` processes, not bare forks, so the after-fork hooks
    and exit finalizers registered with ``multiprocessing.util`` (a
    tracer's, say) run in them; ``multiprocessing`` is imported only for a
    second share, so a run on one process never loads it.  SIGINT is
    blocked while the workers start and ignored in them: on a Ctrl-C, which
    reaches the whole process group, this process alone gets the
    ``KeyboardInterrupt``, and never between forking a worker and recording
    it.
    """
    if len(shares) == 1:
        return [work(shares[0])]
    import multiprocessing
    import signal
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    workers = []  # (process, read end of its pipe)
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for share in shares[1:]:
                read_fd, write_fd = os.pipe()
                process = context.Process(target=_run_share, args=(write_fd, work, share))
                workers.append((process, read_fd))
                try:
                    process.start()
                finally:
                    os.close(write_fd)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        results = [work(shares[0]), *(None for _ in workers)]
        pending = {read_fd: (k, process) for k, (process, read_fd) in enumerate(workers, start=1)}
        while pending:
            for read_fd in wait(list(pending)):
                k, process = pending.pop(read_fd)
                with open(read_fd, "rb", closefd=False) as pipe:
                    message = pipe.read()
                process.join()
                if not message:
                    raise ChildProcessError(
                        f"a forked worker died before its work finished (exit code {process.exitcode})"
                    )
                ok, value = pickle.loads(message)
                if not ok:
                    raise value
                results[k] = value
        return results
    finally:
        for process, read_fd in workers:
            if process.pid is not None:  # started
                if process.is_alive():
                    process.terminate()
                process.join()
            os.close(read_fd)


def _run_share(pipe_fd: int, work: Callable, share) -> None:
    """A forked worker: sends ``(True, work(share))``, or ``(False, exception)``, through its pipe."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        message = pickle.dumps((True, work(share)))
    except Exception as exc:  # the worker's boundary: its failure goes back to the parent
        try:
            message = pickle.dumps((False, exc))
            pickle.loads(message)
        except Exception:  # an exception that does not survive the trip goes back as text
            message = pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))
    with open(pipe_fd, "wb") as pipe:
        pipe.write(message)


def sample_brownian(grid: TimeGrid, seed: SeedSpec) -> Path:
    """One standard Brownian path on ``grid``, started at 0.

    Increments are i.i.d. N(0, h); the value at node k is their running sum.
    """
    rng = seed.generator()
    steps = rng.normal(0.0, np.sqrt(grid.h), grid.n_steps)
    values = np.empty(grid.n_steps + 1)
    values[0] = 0.0
    np.cumsum(steps, out=values[1:])
    return Path(grid, values)
