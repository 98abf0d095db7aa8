"""Leggett-Garg measurement scheduling and two-time correlator estimation.

A plan over k times t_1 < ... < t_k runs k series, one per time pair
(1,2), (2,3), ..., (k-1,k), (1,k). Each series consumes a freshly
prepared subensemble: every event evolves the initial state to the
earlier time, measures (strong, or weak through a Gaussian pointer),
evolves the conditional state to the later time, measures strongly, and
contributes the product of the two readings to the correlator estimate.

The earlier measurement of each series is the one that must approximate
a non-invasive measurement, which is why only it can be weak: the runners
read it out through their ``pointer``, or strongly when that is None.

Sampling is chunked and vectorized: ``_chunk_moments`` runs chunk c of
series s on ``substream(seed, s, c)`` and merges each chunk's sum and
squared deviations in chunk order, so an estimate does not depend on the
order the chunks are run in, and a spectrum far from zero costs no digits.

Both modes read one table per series, G[b, i, j] = tr(B_b P_i rho P_j),
with B_b the projector onto outcome b carried back over the gap. A
strong event is the outcome pair (i, b), with joint law Re G[b, i, i],
and its product a_i a_b depends on nothing else; so a strong chunk is
one multinomial draw of its m events over the d^2 pairs. A weak reading
p leaves the second-outcome weights sum_ij phi_i(p) Re G[b, i, j] phi_j(p)
with real pointer amplitudes phi, so weak events are drawn one by one: a
chunk draws all its random numbers first, and then builds its per-event
tables one column block of ``_BLOCK`` events at a time. Its first readings
come from the sampler behind ``measurement.sample_weak_readings``: one
multinomial count vector of the first outcomes over the Born weights p,
readings grouped by outcome, then the pointer noise. The tables are
outcome-major, shape (d, block), and the second draw compares unnormalised
cumulative weights against u times their total, sum_i p_i phi_i(p)^2, as
the B_b sum to the identity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_same_dim
from .measurement import (
    MODE_STRONG,
    MODE_WEAK,
    PointerModel,
    _warn_if_not_weak,
    _weak_readings,
)
from .quantum import (
    DensityMatrix,
    Observable,
    _as_complex_matrix,
    _check_hermitian,
    basis_state,
    evolve,
    pauli,
    propagator,
    spectral_decompose,
)
from .streams import chunk_sizes, substream

# Events per column block of a chunk. A (d, 8192) float64 table is 512 KiB
# at d = 8, so the three tables of a weak block fit in a 2 MiB L2 together.
# Results do not depend on it: every event sees the same random numbers and
# the sums run over the whole chunk.
_BLOCK = 8192


@dataclass(frozen=True)
class SeriesPlan:
    """k measurement times and the k time pairs they are visited in."""

    k: int
    times: tuple[float, ...]

    def __post_init__(self):
        if self.k < 3:
            raise ValidationError(f"a plan needs k >= 3 time slices, got {self.k}")
        times = tuple(float(t) for t in self.times)
        if len(times) != self.k:
            raise ValidationError(
                f"expected {self.k} times, got {len(times)}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(f"times must be strictly increasing, got {times}")
        object.__setattr__(self, "times", times)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """1-based index pairs (1,2), (2,3), ..., (k-1,k), (1,k)."""
        seq = [(i, i + 1) for i in range(1, self.k)]
        seq.append((1, self.k))
        return tuple(seq)

    def pair_times(self, pair: tuple[int, int]) -> tuple[float, float]:
        i, j = pair
        return self.times[i - 1], self.times[j - 1]


@dataclass(frozen=True)
class DynamicsSpec:
    """System under test: Hamiltonian, measured observable, prepared state.

    The state is prepared at time 0; plan times are measured from there.
    The observable is fixed, with the Heisenberg picture realized by
    evolving the state between measurements.
    """

    hamiltonian: np.ndarray
    observable: Observable
    initial_state: DensityMatrix

    def __post_init__(self):
        h = _as_complex_matrix(self.hamiltonian, "hamiltonian")
        _check_hermitian(h, "hamiltonian")
        require_same_dim(h.shape[0], self.observable.dim, self.initial_state.dim)
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Monte Carlo estimate of one two-time correlator."""

    pair: tuple[int, int]
    value: float
    std_error: float
    n_events: int


def precession_qubit(omega: float = 1.0) -> DynamicsSpec:
    """Canonical benchmark: qubit precessing under (omega/2) sigma_x, measuring sigma_z."""
    return DynamicsSpec(
        hamiltonian=0.5 * omega * pauli("x"),
        observable=spectral_decompose(pauli("z")),
        initial_state=basis_state(2, 0),
    )


# ---------------------------------------------------------------------------
# series execution


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index of each draw in ``u`` against cumulative weights ``cum``.

    ``cum`` runs over outcomes on axis 0, shape (d, 1) for one table shared
    by every draw or (d, m) for one column per draw. The index is the count
    of cumulative weights, the last one excluded, at or below u, so a u
    above a total that round-off left short of 1 lands on the last outcome.
    """
    return (cum[:-1] <= u).sum(axis=0)


class _SeriesKernel:
    """Precomputed per-series tables; maps one rng chunk to outcome products.
    Its ``first_mode`` label is "strong" when ``pointer`` is None, else "weak".

    Weak per-event tables are outcome-major, shape (d, block): outcome on the
    first axis, event on the second, so every reduction over the short
    outcome axis is an elementwise pass over whole rows of a block.
    """

    def __init__(
        self, dyn: DynamicsSpec, t_first: float, t_second: float, pointer: PointerModel | None
    ):
        if t_second <= t_first:
            raise ValidationError(f"need t_second > t_first, got {t_first} >= {t_second}")
        obs = dyn.observable
        self.first_mode = MODE_STRONG if pointer is None else MODE_WEAK
        self.eigenvalues = obs.eigenvalues
        rho0 = dyn.initial_state
        rho_first = evolve(rho0, propagator(dyn.hamiltonian, t_first)) if t_first else rho0
        u_gap = propagator(dyn.hamiltonian, t_second - t_first)
        # G[b, i, j] = tr(B_b P_i rho P_j) with B_b the Heisenberg projector
        proj = obs.projectors
        blocks = (proj @ rho_first.matrix)[:, None] @ proj[None]  # P_i rho P_j
        heis = np.stack([u_gap.conj().T @ p @ u_gap for p in proj])
        # phi is real and G is Hermitian in (i, j), so the imaginary parts
        # cancel in sum_ij phi_i G[b,i,j] phi_j and only Re G is needed
        re_g = np.einsum("bad,ijda->bij", heis, blocks).real

        if pointer is None:
            # joint law P(i, b) = Re G[b,i,i] of the outcome pair, flattened
            # row-major in i, beside the product a_i a_b of each pair
            joint = np.clip(np.einsum("bii->ib", re_g), 0.0, None).ravel()
            self.joint = joint / joint.sum()
            with np.errstate(over="ignore"):  # _estimate refuses what overflows
                self.pair_products = np.multiply.outer(self.eigenvalues, self.eigenvalues).ravel()
        else:
            self.rho_first, self.observable, self.pointer = rho_first, obs, pointer
            self.re_g = np.ascontiguousarray(re_g)
            # the B_b sum to I, so the Re G[b] sum to diag(p) with p the Born
            # weights at t_first: a reading's total weight is sum_i p_i phi_i^2
            self.born = re_g.sum(axis=0).diagonal()[:, None].copy()

    def _second_cum(self, first: np.ndarray) -> np.ndarray:
        """(d, block) unnormalised cumulative weights of the second outcome
        per weak event, given the block's first readings ``first``.
        """
        # phi_i(p) = exp(-(p - a_i)^2 / 2w^2), shifted by its per-event
        # maximum. The difference form keeps full precision when the
        # spectrum sits far from zero relative to w; factoring out
        # exp(p a_i / w^2) would not.
        phi = np.subtract.outer(self.eigenvalues, first)
        np.square(phi, out=phi)
        phi /= -2.0 * self.pointer.width**2
        phi -= phi.max(axis=0)
        np.exp(phi, out=phi)
        # joint weight of reading p and second outcome b:
        # sum_ij phi_i Re G[b,i,j] phi_j, as real (d, d) @ (d, block)
        # products for b = 0 ... d-2; one (d, block) buffer at a time, never
        # a (block, d^2) array. Row b is clipped at zero and accumulated onto
        # row b-1 as it is made, which is the same sum as np.cumsum(axis=0)
        # at a fraction of its cost. The last row, the total over every b,
        # needs no contraction: it is sum_i p_i phi_i^2.
        cum = np.empty_like(phi)
        buf = np.empty_like(phi)
        for b, g_b in enumerate(self.re_g[:-1]):
            np.matmul(g_b, phi, out=buf)
            buf *= phi
            row = buf.sum(axis=0, out=cum[b])
            np.maximum(row, 0.0, out=row)
            if b:
                row += cum[b - 1]
        np.multiply(phi, self.born, out=buf)
        buf *= phi
        buf.sum(axis=0, out=cum[-1])
        return cum

    def run_chunk(self, rng: np.random.Generator, m: int) -> tuple[float, float]:
        """Simulate m events; return the ``_moments`` of their products.

        A strong chunk is one multinomial draw of the events over the
        outcome pairs. A weak chunk draws its first readings (outcome counts,
        then pointer noise) and its second uniforms first, and then works through
        the events in column blocks of ``_BLOCK`` so the per-event tables of
        a block stay in cache; each block's products overwrite its readings.
        """
        # the sums stay out of BLAS: OpenBLAS splits a long ddot over its
        # threads, which would tie the result to the thread count
        if self.first_mode == MODE_STRONG:
            counts = rng.multinomial(m, self.joint)
            total = float((counts * self.pair_products).sum())
            dev = self.pair_products - total / m
            return total, float((counts * dev * dev).sum())
        a = self.eigenvalues
        products = _weak_readings(self.rho_first, self.observable, self.pointer, m, rng)
        u_second = rng.random(m)
        for lo in range(0, m, _BLOCK):
            first = products[lo:lo + _BLOCK]
            cum = self._second_cum(first)
            # inverse CDF against the unnormalised total: outcome b is drawn
            # when cum[b-1] <= u * cum[-1] < cum[b]; with a positive total,
            # u < 1 keeps the last row out
            first *= a[_inverse_cdf(cum, u_second[lo:lo + _BLOCK] * cum[-1])]
        # the moments run once over the whole chunk, so their pairwise order
        # does not depend on the block size
        return _moments(products)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """Sum of x and sum of squared deviations from its mean; overwrites x."""
    total = float(x.sum())
    x -= total / x.size
    return total, float(np.square(x, out=x).sum())


def _chunk_moments(n: int, seed: int, stream: int, draw) -> tuple[float, float]:
    """``_moments`` of n values drawn by chunk: ``draw(substream(seed, stream, c), m)``
    gives those of chunk c, m values from ``chunk_sizes(n)``, merged in chunk
    order by Chan, Golub and LeVeque's update (Am. Stat. 37, 242 (1983))."""
    count, total, sq_dev = 0, 0.0, 0.0
    for c, m in enumerate(chunk_sizes(n)):
        s, q = draw(substream(seed, stream, c), m)
        if count:
            delta = s / m - total / count
            q += delta * delta * count * m / (count + m)
        count, total, sq_dev = count + m, total + s, sq_dev + q
    return total, sq_dev


def _check_run_args(pointer, obs, n) -> None:
    """Argument checks shared by the runners. Warnings name the runner's caller."""
    if pointer is not None:
        _warn_if_not_weak(pointer, obs, stacklevel=4)
    if n < 2:
        raise ValidationError(f"n_per_series must be >= 2, got {n}")


def _estimate(kernel: _SeriesKernel, n, seed, stream, pair) -> CorrelatorEstimate:
    """One series of n events on stream ``stream``. The kernel holds no state
    between chunks, so one kernel serves any series of its times and pointer.
    Sums that overflow float64, as an observable far from unit scale makes
    them, raise ``ValidationError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        total, sq_dev = _chunk_moments(n, seed, stream, kernel.run_chunk)
    if not (math.isfinite(total) and math.isfinite(sq_dev)):
        raise ValidationError(
            f"pair {pair}: the correlator's sums overflow float64; the observable's "
            f"largest |eigenvalue| is {np.abs(kernel.eigenvalues).max():g}")
    return CorrelatorEstimate(pair=pair, value=total / n, n_events=n,
                              std_error=math.sqrt(sq_dev / (n - 1) / n))


def run_series(
    plan: SeriesPlan,
    dyn: DynamicsSpec,
    n_per_series: int,
    seed: int,
    pointer: PointerModel | None = None,
    stream_base: int = 0,
) -> list[CorrelatorEstimate]:
    """Estimate every correlator of the plan from fresh subensembles.

    The earlier measurement of each series reads out through ``pointer``,
    weakly, or projectively (strong) when it is None; the later one is
    always strong. The estimate for pair (i, j) is the mean of (first
    reading x second reading) over ``n_per_series`` events, with its
    standard error. Series s draws from streams (seed, stream_base + s, chunk).
    """
    _check_run_args(pointer, dyn.observable, n_per_series)
    return [
        _estimate(_SeriesKernel(dyn, *plan.pair_times(pair), pointer),
                  n_per_series, seed, stream_base + s, pair)
        for s, pair in enumerate(plan.pairs)
    ]


def estimate_correlator(
    dyn: DynamicsSpec,
    t_first: float,
    t_second: float,
    n_events: int,
    seed: int,
    pointer: PointerModel | None = None,
    stream_base: int = 0,
) -> CorrelatorEstimate:
    """One two-time correlator outside any plan, as pair (1, 2) on stream
    ``stream_base``; ``pointer`` as in ``run_series``. A sweep point equals
    this call, though ``run_sweep`` shares kernels across points instead."""
    _check_run_args(pointer, dyn.observable, n_events)
    return _estimate(_SeriesKernel(dyn, t_first, t_second, pointer),
                     n_events, seed, stream_base, (1, 2))


# ---------------------------------------------------------------------------
# LG statistics


def lg_statistic(correlators: Sequence[float]) -> float:
    """K_k = sum_{i<k} C(i,i+1) - C(1,k) of the k correlators of a plan, in
    its pair order (1,2), ..., (k-1,k), (1,k)."""
    if len(correlators) < 3:
        raise ValidationError(f"K_k needs k >= 3 correlators, got {len(correlators)}")
    for v in correlators:
        if not math.isfinite(v):
            raise ValidationError(f"correlators must be finite, got {v!r}")
    return sum(correlators[:-1]) - correlators[-1]


def macrorealism_bounds(k: int) -> tuple[int, int]:
    """Range (lo, hi) of K_k under macrorealism for readings in [-1, 1]:
    hi = k - 2, and lo = -k for odd k or -(k - 2) for even k (Emary, Lambert
    and Nori, Rep. Prog. Phys. 77, 016001 (2014))."""
    if k < 3:
        raise ValidationError(f"K_k needs k >= 3, got {k}")
    return (-k if k % 2 else 2 - k), k - 2
