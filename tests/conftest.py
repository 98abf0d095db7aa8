"""Fixtures and the random-input helpers the tests share."""

import numpy as np
import pytest

from lgsim import protocol
from lgsim.quantum import DensityMatrix, pure_state, random_density_matrices


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chunk_of(monkeypatch):
    """The chunk index of a stream that ``protocol._chunk_moments`` handed a
    draw, as a function of the stream: chunks may run on several threads and
    in any order, so a spy keys what it records by chunk. Chunk c's generator
    is built from row c of its series' seed words."""
    chunks, make = {}, protocol.from_words

    def keyed(words, row):
        rng = make(words, row)
        chunks[id(rng)] = row
        return rng

    monkeypatch.setattr(protocol, "from_words", keyed)
    return lambda rng: chunks[id(rng)]


def single_correlator(dyn, t_first, t_second, n, seed, pointer=None):
    """One two-time correlator outside any plan: pair (1, 2) of n events on
    stream 0, its earlier reading through ``pointer``, or strong when it is
    None."""
    return protocol._estimates(dyn, [((1, 2), t_first, t_second, pointer, n)], seed)[0]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix(random_density_matrices(1, dim, rng)[0])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pair list of a square complex matrix."""
    a = np.asarray(m, dtype=np.complex128)
    return [[float(x.real), float(x.imag)] for x in a.ravel(order="C")]
