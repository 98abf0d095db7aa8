"""Reproducible, splittable random streams for chunked Monte Carlo.

Every stream is an SFC64 generator seeded from the three 64-bit words of
``SeedSequence(seed, spawn_key=path).generate_state(3, uint64)``; the spawn
key alone keeps streams apart, so no stream needs to skip ahead. A stream's
identity depends only on the root seed and its integer path - never on the
order streams are used in or how many draws other streams made - so a run
is reproducible chunk for chunk whatever order its chunks are run in.

``stream_words`` computes those words for many paths at once: the seed's
share of numpy's ``SeedSequence`` hash once in Python, then each path entry
mixed into every path's pool with uint32 array arithmetic. ``from_words``
gives a fresh generator from one row of the table, and ``substream`` is the
two for a single path, so every stream is seeded by the one hash below;
the tests hold it to numpy's ``SeedSequence`` word for word.

Event batches are carved into fixed-size chunks; chunk ``c`` of series
``s`` (verify's sampler check is s = 107) draws from the stream at path
(s, c), and ``protocol._chunk_moments`` merges the chunks' moments in chunk
order, so merged statistics are bit-identical whatever order chunks ran in
and however many threads ran them.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_CHUNK_SIZE = 1 << 16
MAX_SEED = 2**64 - 1
# a chunk index is one 32-bit word of a stream path, so a series holds at
# most 2^32 chunks
MAX_EVENTS = DEFAULT_CHUNK_SIZE << 32
# the numpy.random bit generator behind every stream, which reports name in
# meta.env; a name, not the class, so importing lgsim leaves numpy.random
# unloaded until the first draw
BIT_GENERATOR = "SFC64"

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the entropy hash constants (A) and the output ones (B)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
# SFC64 takes three uint64 words, six uint32 output words of the pool
_STATE_WORDS = 3


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not (0 <= int(seed) <= MAX_SEED):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _check_entry(entry) -> int:
    """One stream path entry: an integer in [0, 2^32), one word of the hash."""
    if not isinstance(entry, (int, np.integer)) or isinstance(entry, bool):
        raise ValidationError(f"stream path entries must be integers, got {entry!r}")
    if not 0 <= entry <= _MASK32:
        raise ValidationError(f"stream path entries must lie in [0, 2**32), got {entry}")
    return int(entry)


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of a hash constant, init * mult^t mod 2^32:
    hash step t xors in value t and multiplies by value t + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _seed_pool(seed: int, hc: list[int]) -> list[int]:
    """The pool after the seed's words (low word first, zero-padded to the
    pool size) are hashed in with the entropy constants ``hc``, and every
    pool word is mixed into every other; the path entries follow, in
    ``stream_words``."""
    words = [seed & _MASK32, seed >> 32][:1 + (seed > _MASK32)]
    pool = []
    for t, w in enumerate(words + [0] * (_POOL - len(words))):
        h = (w ^ hc[t]) * hc[t + 1] & _MASK32
        pool.append(h ^ h >> _SHIFT)
    t = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h = (pool[src] ^ hc[t]) * hc[t + 1] & _MASK32
                r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> _SHIFT)) & _MASK32
                pool[dst] = r ^ r >> _SHIFT
                t += 1
    return pool


def stream_words(seed: int, table: np.ndarray) -> np.ndarray:
    """(N, 3) uint64 SFC64 seed words of the N streams whose paths are the
    rows of ``table``, row i equal to ``SeedSequence(seed,
    spawn_key=table[i]).generate_state(3, np.uint64)``.

    ``table`` is an (N, L) integer array; every entry lies in [0, 2^32).
    """
    if not (isinstance(table, np.ndarray) and table.dtype.kind in "iu" and table.ndim == 2):
        raise ValidationError("stream paths must form an (N, L) integer array, got "
                              f"{type(table).__name__} {np.shape(table)}")
    if table.size and not (table.min() >= 0 and table.max() <= _MASK32):
        _check_entry(int(table[(table < 0) | (table > _MASK32)][0]))
    n, length = table.shape
    hc = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + length))
    # path entry j hashes in once per pool word, at hash steps 16 + 4j to
    # 19 + 4j; no step depends on the pool, so all run at once
    steps = np.array(hc, np.uint32)[_POOL * _POOL:]
    hashed = table.astype(np.uint32)[:, :, None] ^ steps[:-1].reshape(length, _POOL)
    hashed *= steps[1:].reshape(length, _POOL)
    hashed ^= hashed >> _SHIFT
    hashed *= np.uint32(_MIX_R)
    pool = np.empty((n, _POOL), np.uint32)
    pool[:] = _seed_pool(check_seed(seed), hc)
    for j in range(length):
        pool *= np.uint32(_MIX_L)
        pool -= hashed[:, j]
        pool ^= pool >> _SHIFT
    # output word k hashes pool word k mod 4, so words 4 and 5 pool words 0
    # and 1; words 2k and 2k + 1 are the low and high halves of uint64 word
    # k, read little-endian as numpy does
    hb = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _STATE_WORDS), np.uint32)
    state = np.concatenate([pool, pool[:, :2 * _STATE_WORDS - _POOL]], axis=1)
    state ^= hb[:-1]
    state *= hb[1:]
    state ^= state >> _SHIFT
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_class():
    """The seed sequence stand-in that hands SFC64 one row of words, made on
    first use so that importing lgsim leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A stream's three precomputed seed words; any other request is refused."""

        def __init__(self, words: np.ndarray):
            # SFC64 reads three uint64 words from the returned buffer as is
            self.words = np.ascontiguousarray(words, np.uint64)
            if self.words.shape != (_STATE_WORDS,):
                raise ValueError(f"seed words are {_STATE_WORDS} uint64 words, "
                                 f"got shape {self.words.shape}")

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
                raise ValueError(f"seed words hold {_STATE_WORDS} uint64 words only, "
                                 f"not {n_words} of {np.dtype(dtype)}")
            return self.words

    return SeedWords


def from_words(words: np.ndarray, row: int) -> np.random.Generator:
    """A fresh ``BIT_GENERATOR`` stream seeded from row ``row`` of a
    ``stream_words`` table; each call builds its own, so no two threads
    share a generator."""
    return np.random.Generator(
        getattr(np.random, BIT_GENERATOR)(_seed_words_class()(words[row])))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent ``BIT_GENERATOR`` stream addressed by (seed, path...)."""
    row = np.array([[_check_entry(entry) for entry in path]], np.int64)
    return from_words(stream_words(seed, row), 0)


def chunk_sizes(n: int) -> list[int]:
    """Fixed partition of n events into chunks of ``DEFAULT_CHUNK_SIZE`` and a remainder."""
    if n < 0:
        raise ValidationError(f"event count must be >= 0, got {n}")
    full, rem = divmod(n, DEFAULT_CHUNK_SIZE)
    return [DEFAULT_CHUNK_SIZE] * full + ([rem] if rem else [])


def series_words(seed: int, streams: Sequence[int], ns: Sequence[int]) -> list[np.ndarray]:
    """Seed words of every chunk of several series, from one ``stream_words``
    call: series i, of ``ns[i]`` events on stream ``streams[i]``, gets the
    (chunks, 3) table whose row c seeds its chunk c, the stream (streams[i], c).
    A series of more than ``MAX_EVENTS`` events is refused before any table
    is built."""
    for n in ns:
        if n > MAX_EVENTS:
            raise ValidationError(f"event count must be <= MAX_EVENTS = {MAX_EVENTS} "
                                  f"(2**32 chunks of {DEFAULT_CHUNK_SIZE}), got {n}")
    # len(chunk_sizes(n)) for each n; the runners refuse n < 2 beforehand
    counts = -(-np.asarray(ns, np.int64) // DEFAULT_CHUNK_SIZE)
    ends = np.cumsum(counts)
    paths = np.empty((int(ends[-1]) if len(ends) else 0, 2), np.int64)
    paths[:, 0] = np.repeat(streams, counts)
    paths[:, 1] = np.arange(len(paths)) - np.repeat(ends - counts, counts)
    words = stream_words(seed, paths)
    return [words[end - count:end] for end, count in zip(ends.tolist(), counts.tolist())]


def aligned_empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Uninitialised array whose data starts on a 64-byte boundary. numpy's
    own start on 16, and an elementwise pass over an array that starts inside
    a cache line ran up to twice as slow (AVX-512), as each vector split."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)
