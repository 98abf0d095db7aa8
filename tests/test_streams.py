import numpy as np
import pytest

from lgsim.errors import ValidationError
from lgsim.streams import (
    BIT_GENERATOR,
    DEFAULT_CHUNK_SIZE,
    aligned_empty,
    check_seed,
    chunk_sizes,
    substream,
)


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
