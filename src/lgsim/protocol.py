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
series s on the stream (seed, s, c) and merges each chunk's sum and
squared deviations in chunk order, so an estimate does not depend on the
order the chunks are run in, and a spectrum far from zero costs no digits.
Every correlator comes from one batch estimator, ``_estimates``, behind
``run_series`` and the sweep: it computes the seed words of every chunk of
its batch in one ``series_words`` call and builds one kernel per distinct
pair of times and pointer, and each chunk builds its own generator from its
row (``from_words``), on whichever thread runs it.
A series of several chunks runs them on the calling thread and, where the
process may use more than one CPU, one helper thread; as the merge keeps
chunk order, no result depends on the number of threads.

Both modes read one table per series, G[b, i, j] = tr(B_b P_i rho P_j),
with B_b the projector onto outcome b carried back over the gap. A
strong event is the outcome pair (i, b), with joint law Re G[b, i, i],
and its product a_i a_b depends on nothing else; so a strong chunk is
one multinomial draw of its m events over the d^2 pairs. A weak reading
p leaves the second-outcome weights sum_ij phi_i(p) Re G[b, i, j] phi_j(p)
with real pointer amplitudes phi, so weak events are drawn one by one: a
chunk draws its first readings, the draw behind
``measurement.sample_weak_readings`` (outcome counts over the Born weights p,
then pointer noise), and then fills its per-event tables and draws its second
uniforms one column block at a time. A product phi_i phi_j depends on the
reading only through the midpoint
(a_i + a_j) / 2, so the kernel folds G over the K distinct midpoints of
the spectrum into one (d, K) table, its outcome rows cumulated when it is
built, and a block's cumulative weights are one matrix product of it with
the (K, block) table of pair products. Its last row gives their
total, sum_i p_i phi_i(p)^2, as the B_b sum to the identity, and the
second draw compares those unnormalised cumulative weights against u
times that total.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_count, require_same_dim
from .measurement import (
    MODE_STRONG,
    MODE_WEAK,
    PointerModel,
    _warn_if_not_weak,
    _weak_draw,
)
from .quantum import (
    DensityMatrix,
    Observable,
    _as_complex_matrix,
    _check_hermitian,
    _freeze,
    basis_state,
    evolve,
    pauli,
    propagator,
    spectral_decompose,
)
from .streams import (
    _check_entry,
    _seed_words_class,
    aligned_empty,
    chunk_sizes,
    from_words,
    series_words,
)

# Events per column block of a chunk, at most. A block takes fewer events where
# two (d, block) tables and a (K, block) one, K the distinct midpoints, would
# pass _BLOCK_FLOATS floats (1 MiB), in a multiple of 64 so that every table
# row is 64-byte aligned: 4224 for a d = 8 J_z. Results do not depend on
# either: every event sees the same random numbers and the sums run over the
# whole chunk.
_BLOCK = 8192
_BLOCK_FLOATS = 2**17

# Threads that run the chunks of one series, at most: the caller and one
# helper, the only count measured against the peak RSS bound, as each thread
# that holds a chunk keeps its own malloc arena.
_MAX_WORKERS = 2


@dataclass(frozen=True)
class SeriesPlan:
    """k measurement times and the k time pairs they are visited in."""

    k: int
    times: tuple[float, ...]

    def __post_init__(self):
        require_count(self.k, -math.inf, "k")  # an integer; k < 3 is refused below
        if self.k < 3:
            raise ValidationError(f"a plan needs k >= 3 time slices, got {self.k}")
        times = tuple(float(t) for t in self.times)
        if not all(map(math.isfinite, times)):
            raise ValidationError(f"times must be finite, got {times}")
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
        object.__setattr__(self, "hamiltonian", _freeze(h))


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


def _inverse_cdf(cum: np.ndarray, u: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Outcome index of each draw in ``u`` against cumulative weights ``cum``.

    ``cum`` runs over outcomes on axis 0, shape (d, 1) for one table shared
    by every draw or (d, m) for one column per draw. The index is the count
    of cumulative weights, the last one excluded, at or below u (summed as
    bytes), so it lies in [0, d - 1] for any rows, and a u above a total that
    round-off left short of 1 lands on the last outcome; ``mask`` takes the
    (d - 1, m) comparisons."""
    mask = np.less_equal(cum[:-1], u, out=mask)
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.min_scalar_type(len(cum)))


def _midpoint_table(re_g: np.ndarray, a: np.ndarray, width: float):
    """The weak kernel's runs of pairs (r, s) and (d, K) table over the K
    distinct midpoints (a_i + a_j) / 2 of the spectrum ``a``, for pointer
    ``width``.

    phi_i phi_j = exp(-(p - m)^2 / w^2 - (a_i - a_j)^2 / 4w^2) depends on the
    reading p only through the midpoint m of a_i and a_j. So pairs that share
    a midpoint share phi_r phi_s up to a constant factor, with (r, s), r <= s,
    the pair of the smallest gap, which makes every factor at most 1. One
    product of Re G with a (d^2, K) table of the factors gives W[b, k], the sum
    of Re G[b, i, j] exp(-((a_i - a_j)^2 - (a_r - a_s)^2) / 4w^2) over the
    midpoint's ordered pairs, so that sum_ij phi_i Re G[b, i, j] phi_j =
    sum_k W[b, k] phi_r phi_s; row b < d-1 holds W[0] + ... + W[b]. The last
    row holds the Born weight p_i at the midpoint a_i of the pair (i, i), of
    gap 0: the Re G[b] sum to diag(p), so it gives sum_i p_i phi_i^2.

    Midpoints merge on exact float equality only: an equally spaced spectrum
    has 2d - 1 of them, a generic one d(d + 1) / 2. The columns run in the
    order of (s - r, r), and a run (j, lo, hi, k) gives columns k to k + hi -
    lo - 1 the pairs (lo, lo + j) ... (hi - 1, hi - 1 + j), so that one ufunc
    call on two row blocks forms their products phi_r phi_s: 2 calls for an
    equally spaced spectrum (diagonals j = 0, 1), d for a generic one.
    """
    values = a.tolist()
    d = len(values)
    groups: dict[float, list[tuple[int, int]]] = {}
    for i, a_i in enumerate(values):
        for j, a_j in enumerate(values):
            groups.setdefault((a_i + a_j) / 2.0, []).append((i, j))

    def gap(pair):
        return abs(values[pair[0]] - values[pair[1]])

    born = re_g.sum(axis=0).diagonal()
    # min keeps the first of (r, s) and (s, r), the one with r <= s
    columns = sorted(((min(members, key=gap), members) for members in groups.values()),
                     key=lambda column: (column[0][1] - column[0][0], column[0][0]))
    table = np.zeros((d, len(columns)))
    scale = np.zeros((d * d, len(columns)))
    runs: list[tuple[int, int, int, int]] = []
    for k, ((r, s), members) in enumerate(columns):
        g0 = gap((r, s))
        for i, j in members:
            # (g - g0)(g + g0) >= 0, so the factor never exceeds 1
            g = gap((i, j))
            scale[i * d + j, k] = math.exp(-(g - g0) * (g + g0) / (4.0 * width**2))
        if r == s:
            table[-1, k] = born[r]
        if runs and runs[-1][0] == s - r and runs[-1][2] == r:
            runs[-1] = (s - r, runs[-1][1], r + 1, runs[-1][3])
        else:
            runs.append((s - r, r, r + 1, k))
    np.cumsum(re_g[:-1].reshape(d - 1, d * d) @ scale, axis=0, out=table[:-1])
    return tuple(runs), table


def _outcome_table(dyn: DynamicsSpec, t_first: float, t_second: float):
    """The state at ``t_first`` and the (d, d, d) table Re G[b, i, j] of a
    series, G[b, i, j] = tr(B_b P_i rho P_j) with B_b the projector onto
    outcome b carried back over the gap ``t_second - t_first``."""
    rho0 = dyn.initial_state
    rho_first = evolve(rho0, propagator(dyn.hamiltonian, t_first)) if t_first else rho0
    u_gap = propagator(dyn.hamiltonian, t_second - t_first)
    proj = dyn.observable.projectors
    blocks = (proj @ rho_first.matrix)[:, None] @ proj[None]  # P_i rho P_j
    heis = np.stack([u_gap.conj().T @ p @ u_gap for p in proj])
    # phi is real and G is Hermitian in (i, j), so the imaginary parts
    # cancel in sum_ij phi_i G[b,i,j] phi_j and only Re G is needed
    return rho_first, np.einsum("bad,ijda->bij", heis, blocks).real


class _SeriesKernel:
    """Precomputed per-series tables; maps one rng chunk to outcome products.
    Its ``first_mode`` label is "strong" when ``pointer`` is None, else "weak".

    Weak per-event tables are outcome-major, shape (d, block), or pair-major,
    shape (K, block): the short axis first, event on the second, so every
    reduction over it is an elementwise pass over whole rows of a block.
    """

    def __init__(
        self, dyn: DynamicsSpec, t_first: float, t_second: float, pointer: PointerModel | None
    ):
        if t_second <= t_first:
            raise ValidationError(f"need t_second > t_first, got {t_first} >= {t_second}")
        obs = dyn.observable
        self.first_mode = MODE_STRONG if pointer is None else MODE_WEAK
        self.eigenvalues = obs.eigenvalues
        rho_first, re_g = _outcome_table(dyn, t_first, t_second)

        if pointer is None:
            # joint law P(i, b) = Re G[b,i,i] of the outcome pair, flattened
            # row-major in i, beside the product a_i a_b of each pair
            joint = np.clip(np.einsum("bii->ib", re_g), 0.0, None).ravel()
            self.joint = joint / joint.sum()
            with np.errstate(over="ignore"):  # _estimates refuses what overflows
                self.pair_products = np.multiply.outer(self.eigenvalues, self.eigenvalues).ravel()
        else:
            self.rho_first, self.observable, self.pointer = rho_first, obs, pointer
            self.runs, self.table = _midpoint_table(re_g, self.eigenvalues, pointer.width)
            self.phi_scale = -0.5 / pointer.width**2

    def _second_cum(self, first: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
        """(d, block) unnormalised cumulative weights of the second outcome per
        weak event, given the block's first readings ``first``, in the first of
        the (d, block) and (K, block) ``tables`` it fills."""
        # phi_i(p) = exp(-(p - a_i)^2 / 2w^2). The difference form keeps full
        # precision when the spectrum sits far from zero relative to w;
        # factoring out exp(p a_i / w^2) would not. No per-event shift guards
        # against underflow, and none is needed: the drawn outcome's phi_i is
        # exp(-Z^2 / 4) for its normal Z, numpy's ziggurat never returns
        # |Z| > 13.71 (its tail is r + (-log1p(-U)) / r with U <= 1 - 2^-53),
        # so phi_i >= e^-47 and the total is at least p_i e^-94.
        phi, prods = tables
        np.subtract(self.eigenvalues[:, None], first, out=phi)
        np.square(phi, out=phi)
        phi *= self.phi_scale
        np.exp(phi, out=phi)
        # one product phi_r phi_s per distinct midpoint, then the cumulative
        # joint weight of reading p and each second outcome b < d-1, and
        # their total, as one (d, K) @ (K, block) product, written over phi,
        # which no longer enters. Each weight is tr(B_b M rho M) >= 0 for the
        # reading's Kraus operator M, so only round-off can make a cumulative
        # row fall, and none is clipped.
        for j, lo, hi, k in self.runs:
            np.multiply(phi[lo:hi], phi[lo + j:hi + j], out=prods[k:k + hi - lo])
        return np.matmul(self.table, prods, out=phi)

    def run_chunk(self, rng: np.random.Generator, m: int) -> tuple[float, float]:
        """Simulate m events; return the ``_moments`` of their products.

        A strong chunk is one multinomial draw of the events over the
        outcome pairs. A weak chunk draws its first readings (outcome counts,
        then pointer noise) first, and then works through the events in column
        blocks of at most ``_BLOCK``, sized to stay in cache, which all reuse
        one set of aligned tables; each draws its second uniforms, which follow
        every normal on the stream, and its products overwrite its readings.
        The cumulative weights take the amplitudes' table and the second
        outcomes' eigenvalues the uniforms' row, so a block holds d + K + 1
        float rows.
        """
        # the sums stay out of BLAS: OpenBLAS splits a long ddot over its
        # threads, which would tie the result to the thread count
        if self.first_mode == MODE_STRONG:
            counts = rng.multinomial(m, self.joint)
            total = float((counts * self.pair_products).sum())
            dev = self.pair_products - total / m
            return total, float((counts * dev * dev).sum())
        a = self.eigenvalues
        _, products = _weak_draw(self.rho_first, self.observable, self.pointer, m, rng)
        d, n_pairs = self.table.shape
        block = max(64, min(_BLOCK, _BLOCK_FLOATS // (2 * d + n_pairs)) // 64 * 64)
        shapes = ((d, block), (n_pairs, block), (block,))
        tables = [aligned_empty(s) for s in shapes] + [aligned_empty((d - 1, block), bool)]
        for lo in range(0, m, block):
            first = products[lo:lo + block]
            *weights, u, mask = (t[..., :first.size] for t in tables)
            cum = self._second_cum(first, weights)
            # inverse CDF against the unnormalised total: outcome b is drawn
            # when cum[b-1] <= u * cum[-1] < cum[b]; with a positive total,
            # u < 1 keeps the last row out
            rng.random(out=u)
            u *= cum[-1]
            # every index lies in [0, d - 1], so "clip" changes none; the
            # default "raise" would stage the values in a block-sized buffer
            first *= a.take(_inverse_cdf(cum, u, mask), out=u, mode="clip")
        # the moments run once over the whole chunk, so their pairwise order
        # does not depend on the block size
        return _moments(products)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """Sum of x and sum of squared deviations from its mean; overwrites x."""
    total = float(x.sum())
    x -= total / x.size
    return total, float(np.square(x, out=x).sum())


def _chunk_moments(n: int, words: np.ndarray, draw) -> tuple[float, float]:
    """``_moments`` of n values drawn by chunk: ``draw(from_words(words, c), m)``
    gives those of chunk c, m values from ``chunk_sizes(n)``, its stream
    seeded by row c of the series' ``series_words`` table, merged in chunk
    order by Chan, Golub and LeVeque's update (Am. Stat. 37, 242 (1983)).
    Several chunks run on ``_draw_chunks``'s threads, so ``draw`` must be safe
    to call from any of them; the merge keeps the result bitwise the same for
    any number of threads."""
    sizes = chunk_sizes(n)
    # a series of one chunk is drawn here: _draw_chunks would start no
    # thread for it either, and skipping it saves its per-call overhead
    parts = _draw_chunks(sizes, words, draw) if len(sizes) > 1 else None
    count, total, sq_dev = 0, 0.0, 0.0
    for c, m in enumerate(sizes):
        s, q = parts[c] if parts else draw(from_words(words, c), m)
        if count:
            delta = s / m - total / count
            q += delta * delta * count * m / (count + m)
        count, total, sq_dev = count + m, total + s, sq_dev + q
    return total, sq_dev


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_chunks(sizes: list[int], words: np.ndarray, draw) -> list:
    """``draw``'s result for each chunk of ``sizes``, by chunk index, from the
    calling thread and up to ``_MAX_WORKERS`` - 1 helpers, one worker per CPU
    and chunk. Each worker takes the lowest chunk not yet taken. On an error
    no chunk is handed out any more, every helper is joined, and the error of
    the lowest failing chunk is raised; every lower chunk was taken before it
    and ran to its end, so which error that is does not depend on timing."""
    workers = min(_cpu_count(), len(sizes), _MAX_WORKERS)
    parts, errors = [None] * len(sizes), {}
    todo, lock = list(enumerate(sizes))[::-1], threading.Lock()
    # a new thread starts under numpy's default error state, not the
    # caller's, so every worker enters the caller's
    err = np.geterr()

    def work():
        with np.errstate(**err):
            while True:
                with lock:
                    if not todo:
                        return
                    c, m = todo.pop()
                try:
                    parts[c] = draw(from_words(words, c), m)
                except BaseException as exc:  # raised in the caller below
                    with lock:
                        errors[c] = exc
                        todo.clear()
                    return

    # numpy 2 loads numpy.random on first use, and streams makes the class
    # that hands SFC64 its seed words on first use. This makes both on the
    # caller: numpy.random's import on a helper would leave the import's
    # allocations in that thread's malloc arena, 0.5 MB more peak RSS on the
    # stock lg_run
    _seed_words_class()

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        with lock:
            todo.clear()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return parts


def _estimates(dyn: DynamicsSpec, points, seed: int, stream_base: int = 0,
               where=None) -> list[CorrelatorEstimate]:
    """One correlator per point (pair, t_first, t_second, pointer, n): the mean
    product of n events whose earlier reading goes through ``pointer``, or is
    strong when it is None, with its standard error. Point s draws from streams
    (seed, stream_base + s, chunk), and one ``series_words`` call seeds every
    chunk of every point. A kernel holds no state between chunks, so one kernel
    serves every point of its (t_first, t_second, pointer), and its chunks may
    run on several threads at once. Sums that overflow float64, as an
    observable far from unit scale makes them, raise ``ValidationError``,
    naming point s by ``where(s)``, or by its pair when ``where`` is None. The
    batch runs under one ``np.errstate`` so that an overflow reaches this
    refusal without a numpy warning."""
    words = series_words(seed, range(stream_base, stream_base + len(points)),
                         [point[-1] for point in points])
    kernel = functools.cache(functools.partial(_SeriesKernel, dyn))
    estimates = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s, (pair, *key, n) in enumerate(points):
            total, sq_dev = _chunk_moments(n, words[s], kernel(*key).run_chunk)
            if not (math.isfinite(total) and math.isfinite(sq_dev)):
                raise ValidationError(
                    f"{where(s) if where else f'pair {pair}'}: the correlator's sums overflow "
                    "float64; the observable's largest |eigenvalue| is "
                    f"{np.abs(dyn.observable.eigenvalues).max():g}")
            estimates.append(CorrelatorEstimate(pair=pair, value=total / n, n_events=n,
                                                std_error=math.sqrt(sq_dev / (n - 1) / n)))
    return estimates


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
    if pointer is not None:
        _warn_if_not_weak(pointer, dyn.observable)
    require_count(n_per_series, 2, "n_per_series")
    _check_entry(stream_base)
    return _estimates(dyn, [(pair, *plan.pair_times(pair), pointer, n_per_series)
                            for pair in plan.pairs], seed, stream_base)


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
