"""Uniform time grids, discrete paths, seeded RNG streams, Brownian sampling.

Every stochastic routine in the package draws from a counter-based Philox
generator addressed by ``(master_seed, stream_index)``.  Stream k is the
master generator jumped ahead k times, so ensemble members are independent
and bit-for-bit reproducible regardless of the order in which they are
simulated (or of how work is split across processes).  ``_fork_pool`` is
the process pool that ``verify`` spreads its units over; ensemble path
ranges go to forked workers of their own (``cli._fork_ranges``).
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded here, not at the first draw: almost every command draws

__all__ = [
    "TimeGrid",
    "Path",
    "SeedSpec",
    "make_grid",
    "sample_brownian",
    "refine",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_n = t_end with step h.

    Parameters
    ----------
    t_end : positive horizon.
    n_steps : number of steps n >= 1; the grid has n + 1 nodes.
    """

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps}")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def h(self) -> float:
        """Mesh width t_end / n_steps."""
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        """All n_steps + 1 node times, including both endpoints."""
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def same_as(self, other: "TimeGrid") -> bool:
        return self.t_end == other.t_end and self.n_steps == other.n_steps


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
    if not a.grid.same_as(b.grid):
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

    def stream(self, offset: int) -> "SeedSpec":
        """A SeedSpec addressing stream ``stream_index + offset`` of the same master."""
        return SeedSpec(self.master_seed, self.stream_index + offset)


#: 64-bit outputs per Philox4x64 counter value
_PHILOX_BLOCK = 4


def _skip_doubles(rng: np.random.Generator, m: int) -> None:
    """Leave a Philox generator in the state ``rng.random(m)`` would, without making the values.

    Every double takes one 64-bit output.  Philox serves them from a buffer
    of the four outputs of its current counter; each refill first adds one
    to the 256-bit counter.  So the skip uses up the buffer, adds the number
    of whole blocks passed over to the counter, and draws the at most four
    outputs read from the last block, which leaves that block in the buffer
    as the draws would have.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    left = m - (_PHILOX_BLOCK - state["buffer_pos"])
    if left <= 0:
        state["buffer_pos"] += m
        bitgen.state = state
        return
    skipped = (left - 1) // _PHILOX_BLOCK
    counter = state["state"]["counter"]  # four 64-bit words, least significant first
    carry = skipped
    for i in range(counter.size):
        total = int(counter[i]) + carry
        counter[i], carry = total & (2**64 - 1), total >> 64
    state["buffer_pos"] = _PHILOX_BLOCK
    bitgen.state = state
    bitgen.random_raw(left - _PHILOX_BLOCK * skipped)


@contextlib.contextmanager
def _fork_pool(workers: int, what: str):
    """A process pool of ``workers`` forked processes, every one joined on exit.

    ``verify`` alone uses it: its units need a work queue and returned
    reports, and its parent only waits in ``pool.map``.  Forked, not
    spawned: workers start with the modules imported here, in their state as
    it is here, and the pool forks them all before it starts a thread of its
    own.  A module the work imports only as it runs, every worker imports
    again, so callers import it first (``run_suite`` imports its checks'
    declared ``imports``).  The pool modules are imported only here, so
    importing the package starts no pool machinery.  A worker that dies
    raises :class:`ChildProcessError` naming the ``what`` pool; on any exit
    the pending tasks are cancelled and every worker is joined.  Workers
    ignore SIGINT: on a Ctrl-C, which reaches the whole process group, this
    process alone gets the ``KeyboardInterrupt`` and ends them, so the
    shutdown does not wait for their work.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        yield pool
    except BrokenProcessPool as exc:
        message = f"a worker process of the {what} pool died before its work finished ({exc})"
        raise ChildProcessError(message) from None
    except KeyboardInterrupt:
        # the executor has no public call that ends its workers before Python 3.14
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def make_grid(t_end: float, n_steps: int) -> TimeGrid:
    """Validated constructor for a uniform grid on [0, t_end]."""
    return TimeGrid(t_end, n_steps)


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


def refine(path: Path, factor: int, seed: SeedSpec) -> Path:
    """Refine a Brownian path by Brownian-bridge interpolation.

    Each coarse interval is subdivided into ``factor`` sub-steps; interior
    values are drawn sequentially from the bridge conditional on the two
    coarse endpoints, so the restriction of the output to the coarse nodes
    reproduces the input exactly.  With one coarse step of length t the
    inserted midpoint (factor = 2) has conditional variance t / 4.
    """
    if int(factor) != factor or factor < 2:
        raise ValueError(f"factor must be an integer >= 2, got {factor}")
    factor = int(factor)
    rng = seed.generator()
    n = path.grid.n_steps
    sub_h = path.grid.h / factor

    # block[i, j] = value at sub-node j of coarse interval i
    block = np.empty((n, factor + 1))
    block[:, 0] = path.values[:-1]
    block[:, factor] = path.values[1:]
    current = block[:, 0].copy()
    for j in range(1, factor):
        remaining = factor - (j - 1)  # sub-steps from current position to the right end
        mean = current + (block[:, factor] - current) / remaining
        var = sub_h * (remaining - 1) / remaining
        current = mean + np.sqrt(var) * rng.standard_normal(n)
        block[:, j] = current

    values = np.empty(n * factor + 1)
    values[0] = path.values[0]
    values[1:] = block[:, 1:].ravel()
    return Path(TimeGrid(path.grid.t_end, n * factor), values)
