import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsim
from lgsim import streams
from lgsim.errors import ValidationError
from lgsim.streams import (
    BIT_GENERATOR,
    DEFAULT_CHUNK_SIZE,
    aligned_empty,
    check_seed,
    chunk_sizes,
    from_words,
    series_words,
    stream_words,
    substream,
)

# seeds of one and of two 32-bit words, and the edges between them
SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
# 1 to 6 paths of one length, 0 to 3 entries of one 32-bit word each
PATHS = st.integers(0, 3).flatmap(lambda length: st.lists(
    st.tuples(*[st.integers(0, 2**32 - 1)] * length), min_size=1, max_size=6))


def reference_words(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(3, np.uint64)


class TestSubstream:
    def test_same_path_reproduces_draws(self):
        a = substream(42, 3, 7).uniform(size=100)
        b = substream(42, 3, 7).uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_are_independent(self):
        a = substream(42, 0, 0).uniform(size=1000)
        b = substream(42, 0, 1).uniform(size=1000)
        c = substream(42, 1, 0).uniform(size=1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # crude independence screen: correlations at noise level
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.15
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.15

    def test_different_seeds_differ(self):
        a = substream(1, 0).uniform(size=100)
        b = substream(2, 0).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_stream_identity_ignores_other_streams(self):
        # drawing from one stream never perturbs another
        a = substream(9, 5)
        _ = substream(9, 6).normal(size=12345)
        b = substream(9, 5)
        np.testing.assert_array_equal(a.uniform(size=50), b.uniform(size=50))


    @pytest.mark.parametrize("entry, message", [
        (-1, "stream path entries must lie in [0, 2**32), got -1"),
        (2**32, "stream path entries must lie in [0, 2**32), got 4294967296"),
        (1.5, "stream path entries must be integers, got 1.5"),
        (True, "stream path entries must be integers, got True"),
        ("3", "stream path entries must be integers, got '3'"),
    ])
    def test_refuses_path_entries_that_are_not_32_bit_words(self, entry, message):
        # each entry is one word of the seed hash; numpy would raise its own
        # ValueError for -1, split 2**32 into two words, and int() would turn
        # 1.5 and True into 1
        with pytest.raises(ValidationError) as info:
            substream(1, entry)
        assert str(info.value) == message

    def test_accepts_numpy_integer_entries(self):
        a = substream(3, np.uint32(2**32 - 1), np.int64(7)).random(4)
        np.testing.assert_array_equal(a, substream(3, 2**32 - 1, 7).random(4))


def path_table(paths):
    """The (N, L) int64 table of N paths of one length L."""
    return np.array(paths, np.int64).reshape(len(paths), -1)


class TestStreamWords:
    """``stream_words`` is numpy's SeedSequence hash, computed for many paths
    at once; numpy's own SeedSequence is the reference."""

    @settings(deadline=None)
    @given(seed=SEEDS, paths=PATHS)
    def test_rows_are_seed_sequence_state(self, seed, paths):
        got = stream_words(seed, path_table(paths))
        assert got.dtype == np.uint64 and got.shape == (len(paths), 3)
        want = np.array([reference_words(seed, path) for path in paths])
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None, max_examples=30)
    @given(seed=SEEDS, paths=PATHS)
    def test_generator_is_seed_sequence_sfc64(self, seed, paths):
        words = stream_words(seed, path_table(paths))
        for row, path in enumerate(paths):
            want = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path))
            got = from_words(words, row).bit_generator
            np.testing.assert_array_equal(got.random_raw(1000), want.random_raw(1000))

    def test_every_generator_is_fresh(self):
        # two chunks of one row never share a bit generator or its state
        words = stream_words(5, path_table([(0, 0)]))
        a, b = from_words(words, 0), from_words(words, 0)
        assert a.bit_generator is not b.bit_generator
        np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_seed_words_refuse_any_other_request(self):
        seq = from_words(stream_words(5, path_table([(0, 0)])), 0).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seq.generate_state(4, np.uint64)
        with pytest.raises(ValueError):
            seq.generate_state(3, np.uint32)
        # SFC64 reads three words from the buffer it is given, so a row of
        # any other size never reaches it
        with pytest.raises(ValueError, match="got shape"):
            from_words(np.zeros((1, 2), np.uint64), 0)

    def test_any_layout_of_the_table_seeds_the_same_stream(self):
        words = stream_words(5, path_table([(0, 0), (0, 1)]))
        want = from_words(words, 1).random(4)
        np.testing.assert_array_equal(from_words(np.asfortranarray(words), 1).random(4), want)

    @pytest.mark.parametrize("table, message", [
        (np.array([[0, 1], [-2, 0]]), r"got -2$"),
        (np.arange(3), r"\(N, L\) integer array, got ndarray \(3,\)$"),
        (np.zeros((1, 2)), r"\(N, L\) integer array, got ndarray \(1, 2\)$"),
        ([(0, 1)], r"\(N, L\) integer array, got list \(1, 2\)$"),
    ], ids=["negative", "one-axis", "float", "list"])
    def test_refuses_bad_tables(self, table, message):
        with pytest.raises(ValidationError, match=message):
            stream_words(1, table)

    def test_refuses_a_bad_seed(self):
        with pytest.raises(ValidationError, match="seed must be"):
            stream_words(-1, path_table([(0,)]))

    def test_no_paths_no_rows(self):
        assert stream_words(1, np.empty((0, 2), np.int64)).shape == (0, 3)


class TestSeriesWords:
    def test_rows_are_each_series_chunks(self, monkeypatch):
        # series i gets the words of paths (streams[i], 0), (streams[i], 1), ...
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 100)
        got = series_words(7, [4, 9, 2], [100, 250, 1])
        assert [len(w) for w in got] == [1, 3, 1]
        for stream, words in zip([4, 9, 2], got):
            for c, row in enumerate(words):
                np.testing.assert_array_equal(row, reference_words(7, (stream, c)))


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first draw, not at import: at import it cost
    # 5-20% of setup time and 0.7 MB of peak RSS
    code = "import sys, lgsim; print('numpy.random' in sys.modules)"
    src = str(Path(lgsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "False\n"


class TestStreamPin:
    """Every stream is SFC64, pinned by the first raw words of two addresses,
    so a change of generator or of its seeding fails here rather than
    silently changing every stochastic payload."""

    def test_bit_generator_is_sfc64(self):
        assert getattr(np.random, BIT_GENERATOR) is np.random.SFC64
        for path in ((0,), (5, 0, 0), (11, 107, 3)):
            assert type(substream(*path).bit_generator) is np.random.SFC64

    @pytest.mark.parametrize("path, words", [
        ((0, 0, 0), [6436986145989974540, 15791485155117540672, 10798289216808124728]),
        ((42, 3, 7), [16052872178147697903, 13096533914751326895, 8806184087595207997]),
    ], ids=["0-0-0", "42-3-7"])
    def test_first_raw_words(self, path, words):
        assert substream(*path).bit_generator.random_raw(3).tolist() == words


class TestCheckSeed:
    def test_accepts_u64_range(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1

    def test_rejects_negative_and_oversized(self):
        with pytest.raises(ValidationError):
            check_seed(-1)
        with pytest.raises(ValidationError):
            check_seed(2**64)

    def test_rejects_non_integers(self):
        with pytest.raises(ValidationError):
            check_seed(1.5)
        with pytest.raises(ValidationError):
            check_seed(True)


class TestChunkSizes:
    """Every batch is cut into chunks of ``DEFAULT_CHUNK_SIZE`` and a remainder."""

    def test_exact_multiple(self):
        assert chunk_sizes(2 * DEFAULT_CHUNK_SIZE) == [DEFAULT_CHUNK_SIZE] * 2

    def test_remainder_chunk(self):
        assert chunk_sizes(2 * DEFAULT_CHUNK_SIZE + 50) == [DEFAULT_CHUNK_SIZE] * 2 + [50]

    def test_small_n_single_chunk(self):
        assert chunk_sizes(7) == [7]

    def test_zero_events(self):
        assert chunk_sizes(0) == []

    def test_fixed_size(self):
        # 65,536 events per chunk, the size the README and every stream
        # address (seed, series, chunk) are written against
        assert DEFAULT_CHUNK_SIZE == 1 << 16
        assert sum(chunk_sizes(123_456)) == 123_456

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            chunk_sizes(-1)


class TestAlignedEmpty:
    @pytest.mark.parametrize("shape, dtype", [
        ((1,), np.float64), ((7,), np.float64), ((3, 5), np.float64),
        ((9,), bool), ((7, 4224), bool), ((65536,), np.float64),
    ])
    def test_starts_on_a_64_byte_boundary(self, shape, dtype):
        # over many allocations, whatever numpy's own placement of each
        arrays = [aligned_empty(shape, dtype) for _ in range(50)]
        for a in arrays:
            assert a.shape == shape and a.dtype == dtype
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.ctypes.data % 64 == 0
