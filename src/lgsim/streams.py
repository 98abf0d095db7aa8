"""Reproducible, splittable random streams for chunked Monte Carlo.

Every stream is an SFC64 generator seeded from
``SeedSequence(seed, spawn_key=path)``; the spawn key alone keeps streams
apart, so no stream needs to skip ahead. A stream's identity depends only
on the root seed and its integer path - never on the order streams are
used in or how many draws other streams made - so a run is reproducible
chunk for chunk whatever order its chunks are run in.

Event batches are carved into fixed-size chunks; chunk ``c`` of series
``s`` (verify's sampler check is s = 107) draws from ``substream(seed, s,
c)``, and ``protocol._chunk_moments`` merges the chunks' moments in chunk
order, so merged statistics are bit-identical whatever order chunks ran in
and however many threads ran them.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

DEFAULT_CHUNK_SIZE = 1 << 16
MAX_SEED = 2**64 - 1
# the numpy.random bit generator behind every stream, which reports name in
# meta.env; a name, not the class, so importing lgsim leaves numpy.random
# unloaded until the first draw
BIT_GENERATOR = "SFC64"


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not (0 <= int(seed) <= MAX_SEED):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent ``BIT_GENERATOR`` stream addressed by (seed, path...).

    This is the only place lgsim builds a generator, so every random draw,
    in the Monte Carlo kernels and in verify alike, comes from one of these.
    """
    seq = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(seq))


def chunk_sizes(n: int) -> list[int]:
    """Fixed partition of n events into chunks of ``DEFAULT_CHUNK_SIZE`` and a remainder."""
    if n < 0:
        raise ValidationError(f"event count must be >= 0, got {n}")
    full, rem = divmod(n, DEFAULT_CHUNK_SIZE)
    return [DEFAULT_CHUNK_SIZE] * full + ([rem] if rem else [])


def aligned_empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Uninitialised array whose data starts on a 64-byte boundary. numpy's
    own start on 16, and an elementwise pass over an array that starts inside
    a cache line ran up to twice as slow (AVX-512), as each vector split."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)
