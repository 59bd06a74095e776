"""Grid, path, and seeded-stream foundations."""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdp_lab import Path, SeedSpec, TimeGrid, sample_brownian
from hdp_lab.core import _fork_map, _skip_doubles, _step_draws


class TestTimeGrid:
    def test_basic_fields(self):
        grid = TimeGrid(2.0, 8)
        assert grid.t_end == 2.0
        assert grid.n_steps == 8
        assert grid.h == 0.25

    def test_times_cover_both_endpoints(self):
        times = TimeGrid(1.0, 4).times()
        np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_horizon_rejected(self, t_end):
        with pytest.raises(ValueError):
            TimeGrid(t_end, 10)

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5])
    def test_bad_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError):
            TimeGrid(1.0, n_steps)

    def test_a_step_that_rounds_to_zero_rejected(self):
        # 5e-324 / 10 is 0: a zero step divided the skew walk's start by 0
        with pytest.raises(ValueError, match="rounds to 0"):
            TimeGrid(5e-324, 10)


class TestPath:
    def test_shape_must_match_grid(self):
        with pytest.raises(ValueError, match="shape"):
            Path(TimeGrid(1.0, 4), np.zeros(4))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Path(TimeGrid(1.0, 2), np.array([0.0, np.nan, 1.0]))

    def test_increments_and_terminal(self):
        path = Path(TimeGrid(1.0, 3), np.array([0.0, 1.0, -0.5, 2.0]))
        np.testing.assert_allclose(path.increments(), [1.0, -1.5, 2.5])
        assert path.terminal == 2.0


class TestSeedSpec:
    def test_same_spec_same_stream(self):
        a = SeedSpec(99, 3).generator().standard_normal(5)
        b = SeedSpec(99, 3).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = SeedSpec(99, 0).generator().standard_normal(5)
        b = SeedSpec(99, 1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_master_seed_range(self, master):
        with pytest.raises(ValueError):
            SeedSpec(master)

    def test_negative_stream_index_rejected(self):
        with pytest.raises(ValueError, match="stream_index must be >= 0"):
            SeedSpec(0, -1)

    @pytest.mark.parametrize("fields", [(1.7,), (3, 1.5), ("3",)])
    def test_non_integer_fields_rejected(self, fields):
        with pytest.raises(ValueError, match="must be an integer"):
            SeedSpec(*fields)

    def test_numpy_integer_fields_accepted(self):
        spec = SeedSpec(np.uint64(99), np.int32(3))
        assert spec == SeedSpec(99, 3)
        a = spec.generator().standard_normal(5)
        np.testing.assert_array_equal(a, SeedSpec(99, 3).generator().standard_normal(5))


class TestSampleBrownian:
    def test_starts_at_zero_and_is_deterministic(self):
        grid = TimeGrid(1.0, 100)
        a = sample_brownian(grid, SeedSpec(5))
        b = sample_brownian(grid, SeedSpec(5))
        assert a.values[0] == 0.0
        np.testing.assert_array_equal(a.values, b.values)

    def test_increment_moments(self):
        grid = TimeGrid(1.0, 20_000)
        inc = sample_brownian(grid, SeedSpec(6)).increments()
        assert abs(np.mean(inc)) < 4.0 * np.sqrt(grid.h / inc.size)
        assert abs(np.var(inc) - grid.h) < 4.0 * grid.h * np.sqrt(2.0 / inc.size)


def _full_state(rng):
    """Every field of a Philox generator's state, comparable with ==."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["state"]["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


class TestSkipDoubles:
    """Skipping m uniforms leaves the stream exactly where drawing them does."""

    @settings(max_examples=300)
    @given(
        master=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 3),
        prefix=st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=4),
        buffer_pos=st.integers(0, 4),
        below_carry=st.none() | st.integers(1, 12),
        top_word=st.sampled_from([0, 7, 2**64 - 1]),
        m=st.integers(0, 40) | st.integers(41, 5000),
    )
    def test_state_and_next_draws_equal_drawing(
        self, master, stream, prefix, buffer_pos, below_carry, top_word, m
    ):
        def generator():
            rng = SeedSpec(master, stream).generator()
            if below_carry is not None:  # the skip carries through the 64-bit counter words
                state = rng.bit_generator.state
                state["state"]["counter"] = np.array(
                    [2**64 - below_carry, 2**64 - 1, 2**64 - 1, top_word], dtype=np.uint64
                )
                rng.bit_generator.state = state
            for normal, size in prefix:
                (rng.standard_normal if normal else rng.random)(size)
            state = rng.bit_generator.state
            state["buffer_pos"] = buffer_pos
            rng.bit_generator.state = state
            return rng

        drawn, skipped = generator(), generator()
        drawn.random(m)
        _skip_doubles(skipped, m)
        assert _full_state(skipped) == _full_state(drawn)
        np.testing.assert_array_equal(skipped.random(9), drawn.random(9))
        np.testing.assert_array_equal(skipped.standard_normal(9), drawn.standard_normal(9))


class TestStepDraws:
    """A step's uniforms and skips leave every stream as ``random(m)`` does, one shared or one per path."""

    @pytest.mark.parametrize("per_path", [False, True])
    @pytest.mark.parametrize("draws", range(1, 10))
    def test_uniform_is_random_taken_and_skip_is_random(self, per_path, draws):
        # 1-9 draws in a row cross the four-output Philox buffer at every offset
        m = 5
        made, drawn = ([SeedSpec(23, j).generator() for j in range(m if per_path else 1)] for _ in range(2))
        for g in (made[-1], drawn[-1]):
            g.random(3)  # a stream part-way through its buffer
        _, uniform, skip = _step_draws(made if per_path else made[0], m)
        indexes = [None, np.array([], dtype=np.intp), np.array([1, 3]), np.arange(m)]  # None skips
        for k in range(draws):
            want = np.array([g.random() for g in drawn]) if per_path else drawn[0].random(m)
            index = indexes[k % len(indexes)]
            if index is None:
                skip()
            else:
                got = uniform(index)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got.view(np.int64), want.take(index).view(np.int64))
            assert [_full_state(g) for g in made] == [_full_state(g) for g in drawn]


def _share_and_pid(share):
    return share, os.getpid()


def _exit_in_a_worker(share):
    if share:
        os._exit(3)


class TestForkPool:
    """The one fork primitive, ``_fork_map``: its first share runs here, each other in a forked worker."""

    def test_first_share_here_the_others_in_workers_in_order(self):
        results = _fork_map(_share_and_pid, ["a", "b", "c"])
        assert [share for share, _ in results] == ["a", "b", "c"]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_workers_ignore_sigint(self):
        handlers = _fork_map(lambda share: signal.getsignal(signal.SIGINT), [0, 1])
        assert handlers[1] == signal.SIG_IGN
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def test_a_worker_exception_is_raised_here(self):
        with pytest.raises(ZeroDivisionError):
            _fork_map(lambda share: 1 / share, [1, 0])

    def test_a_worker_that_dies_raises_child_process_error(self):
        with pytest.raises(ChildProcessError, match="exit code 3"):
            _fork_map(_exit_in_a_worker, [0, 1])

    def test_interrupt_ends_a_busy_worker_at_once(self, tmp_path):
        """The interrupted parent ends its workers; it does not wait out their work."""
        busy = tmp_path / "busy"

        def work(share):
            if share:
                busy.touch()
                time.sleep(60.0)
            while not busy.exists():
                time.sleep(0.01)
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _fork_map(work, [0, 1])
        assert time.monotonic() - start < 30.0

    def test_a_failed_worker_is_raised_before_a_slower_earlier_one_finishes(self):
        """Share 2 dies at once while share 1 sleeps: the failure is read first, not in share order."""

        def work(share):
            if share == 1:
                time.sleep(3.0)
            elif share == 2:
                os._exit(1)

        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="exit code 1"):
            _fork_map(work, [0, 1, 2])
        assert time.monotonic() - start < 1.0

    def test_results_come_back_in_share_order_whatever_order_the_workers_end(self):
        def work(share):
            time.sleep(0.1 * (3 - share))
            return share

        assert _fork_map(work, [0, 1, 2, 3]) == [0, 1, 2, 3]
