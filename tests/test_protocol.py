import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lgsim

from lgsim import (
    DensityMatrix,
    DynamicsSpec,
    Observable,
    PointerModel,
    basis_state,
    SeriesPlan,
    born_weights,
    evolve,
    lg_statistic,
    macrorealism_bounds,
    pauli,
    precession_qubit,
    propagator,
    run_series,
    sample_weak_readings,
    spectral_decompose,
    strong_channel,
    weak_channel_exact,
)
from lgsim.errors import ValidationError, WeakRegimeWarning
from lgsim import harness, measurement, protocol, streams
from lgsim.config import parse_config
from lgsim.harness import run_verify
from lgsim.protocol import _SeriesKernel
from lgsim.streams import DEFAULT_CHUNK_SIZE, chunk_sizes, series_words, substream

from conftest import random_density_matrix, random_hermitian, random_unitary, single_correlator

TAU = math.pi / 3


@pytest.fixture(scope="module")
def bench():
    return precession_qubit(omega=1.0)


@pytest.fixture(scope="module")
def plan3():
    return SeriesPlan(3, [0.0, TAU, 2 * TAU])


class TestSeriesPlan:
    def test_k3_pairs(self):
        plan = SeriesPlan(3, [0.0, 1.0, 2.0])
        assert plan.pairs == ((1, 2), (2, 3), (1, 3))

    def test_k4_pairs(self):
        plan = SeriesPlan(4, [0.0, 1.0, 2.0, 3.0])
        assert plan.pairs == ((1, 2), (2, 3), (3, 4), (1, 4))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            SeriesPlan(3, [0.0, 0.0, 1.0])

    def test_k_below_three_rejected(self):
        with pytest.raises(ValidationError, match="k >= 3"):
            SeriesPlan(2, [0.0, 1.0])

    @pytest.mark.parametrize("k", [3.5, True], ids=["fraction", "bool"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValidationError) as info:
            SeriesPlan(k, [0.0, 1.0, 2.0])
        assert str(info.value) == f"k must be an integer, got {k!r}"

    def test_times_length_must_match_k(self):
        with pytest.raises(ValidationError):
            SeriesPlan(3, [0.0, 1.0])

    def test_pair_times_lookup(self):
        plan = SeriesPlan(3, [0.5, 1.5, 4.0])
        assert plan.pair_times((1, 3)) == (0.5, 4.0)


class TestDynamicsSpec:
    def test_benchmark_shape(self, bench):
        np.testing.assert_array_equal(bench.observable.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(bench.hamiltonian, 0.5 * pauli("x"))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DynamicsSpec(
                hamiltonian=np.eye(3),
                observable=spectral_decompose(pauli("z")),
                initial_state=basis_state(2, 0),
            )


class TestStrongFirstCorrelators:
    def test_matches_cosine_oracle(self, bench, plan3):
        # after a strong first measurement the qubit sits in a sigma_z
        # eigenstate, so <Q(t + tau)> = +-cos(tau) and C(tau) = cos(tau)
        ests = run_series(plan3, bench, 100_000, seed=11)
        gaps = [TAU, TAU, 2 * TAU]
        for est, gap in zip(ests, gaps):
            assert abs(est.value - math.cos(gap)) < 5 * est.std_error

    def test_near_zero_gap_gives_unit_correlator(self, bench):
        est = single_correlator(bench, 0.0, 1e-6, 20_000, seed=12)
        assert abs(est.value - 1.0) < 5 * est.std_error + 1e-9

    def test_squared_deviations_for_dichotomic_products(self, bench):
        # every product of two +-1 readings squares to 1, so the chunk's
        # squared deviations from its mean are m (1 - mean^2)
        m = 100_000
        kernel = _SeriesKernel(bench, 0.0, TAU, None)
        total, sq_dev = kernel.run_chunk(substream(5, 0, 0), m)
        assert sq_dev == pytest.approx(m * (1.0 - (total / m) ** 2), rel=1e-12)

    def test_chunk_is_one_multinomial_draw(self, bench):
        # a strong chunk draws its pair counts and nothing else
        calls = []

        class Recorder:
            def multinomial(self, n, pvals):
                calls.append(("multinomial", n))
                return rng.multinomial(n, pvals)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(rng, name)

        rng = substream(6, 0, 0)
        kernel = _SeriesKernel(bench, 0.0, TAU, None)
        kernel.run_chunk(Recorder(), 1_000)
        assert calls == [("multinomial", 1_000)]

    def test_estimate_magnitude_bounded(self, bench, plan3):
        for est in run_series(plan3, bench, 5_000, seed=13):
            assert abs(est.value) <= 1.0 + 3.0 * est.std_error

    def test_reported_counts(self, bench, plan3):
        ests = run_series(plan3, bench, 5_000, seed=14)
        assert all(e.n_events == 5_000 for e in ests)


class TestWeakFirstCorrelators:
    def test_mean_agrees_with_strong_first(self, bench, plan3):
        strong = run_series(plan3, bench, 100_000, seed=21)
        weak = run_series(
            plan3, bench, 100_000, seed=22, pointer=PointerModel(width=10.0)
        )
        for es, ew in zip(strong, weak):
            combined = math.hypot(es.std_error, ew.std_error)
            assert abs(es.value - ew.value) < 5 * combined

    def test_stderr_inflated_by_pointer_noise(self, bench):
        # per-event variances: strong 1 - C^2, weak width^2/2 + 1 - C^2
        n = 200_000
        strong = single_correlator(bench, 0.0, 1.0, n, seed=23)
        weak = single_correlator(bench, 0.0, 1.0, n, seed=24, pointer=PointerModel(width=10.0))
        c = math.cos(1.0)
        predicted_ratio = math.sqrt((50.0 + 1.0 - c * c) / (1.0 - c * c))
        measured_ratio = weak.std_error / strong.std_error
        assert measured_ratio == pytest.approx(predicted_ratio, rel=0.05)
        # loose sanity against the small-C inflation factor sqrt(1 + width^2/2)
        assert measured_ratio == pytest.approx(math.sqrt(51.0), rel=0.30)


class TestRunSeriesValidation:
    def test_kernel_names_its_first_measurement_from_the_pointer(self, bench):
        # the label span tracers read: no pointer is a strong first measurement
        assert _SeriesKernel(bench, 0.0, 1.0, None).first_mode == "strong"
        assert _SeriesKernel(bench, 0.0, 1.0, PointerModel(width=10.0)).first_mode == "weak"

    def test_n_too_small_rejected(self, bench, plan3):
        with pytest.raises(ValidationError, match="n_per_series"):
            run_series(plan3, bench, 1, seed=1)

    @pytest.mark.parametrize("n", [3.0, 2.5, np.float64(1000.0)])
    def test_n_must_be_an_integer(self, bench, plan3, n):
        message = f"n_per_series must be an integer, got {n!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_series(plan3, bench, n, seed=1)

    def test_numpy_integer_arguments_are_counts(self, bench, plan3):
        assert (run_series(plan3, bench, np.int64(100), seed=1)
                == run_series(plan3, bench, 100, seed=1))

    @pytest.mark.parametrize("times, message", [
        ([0.0, np.nan, 2.0], r"^times must be finite, got \(0\.0, nan, 2\.0\)$"),
        ([0.0, 1.0, np.inf], r"^times must be finite, got \(0\.0, 1\.0, inf\)$"),
        ([-1e308, 0.0, 1e308], r"exp\(-i H t\) needs finite phases E t"),
    ], ids=["nan", "inf", "overflowed-gap"])
    def test_non_finite_time_is_refused(self, bench, times, message):
        # SeriesPlan refuses a time that is not finite; finite times whose gap
        # overflows are refused by the propagator of the first series whose
        # phases they make infinite
        with pytest.raises(ValidationError, match=message):
            run_series(SeriesPlan(3, times), bench, 100, seed=1)

    def test_kernel_needs_ordered_times(self, bench):
        with pytest.raises(ValidationError, match="need t_second > t_first"):
            _SeriesKernel(bench, 1.0, 1.0, None)
        with pytest.raises(ValidationError, match="need t_second > t_first"):
            _SeriesKernel(bench, 2.0, 1.0, PointerModel(width=10.0))


class TestBatchLaws:
    """``_estimates`` keys each point by its law, the point without its pair:
    distinct law s, in order of first appearance, is drawn once on streams
    (seed, s, chunk), and each point takes that estimate under its own pair."""

    N2 = DEFAULT_CHUNK_SIZE + 3  # two chunks

    @classmethod
    def points(cls):
        weak = PointerModel(width=10.0)
        return [
            ((1, 2), 0.0, TAU, None, 500),
            ((2, 3), TAU, 2 * TAU, None, 500),
            ((3, 4), 0.0, TAU, None, 500),  # law 0 under another pair
            ((1, 2), 0.0, TAU, weak, 500),
            ((1, 2), 0.0, TAU, None, cls.N2),
            ((5, 6), TAU, 2 * TAU, None, 500),  # law 1
            ((1, 2), 0.0, TAU, PointerModel(width=10.0), 500),  # law 2, an equal pointer
            ((2, 9), 0.0, TAU, None, cls.N2),  # law 3
        ]

    LAWS = [0, 1, 0, 2, 3, 1, 2, 3]

    def test_each_law_is_drawn_once(self, monkeypatch, bench):
        sizes, run_chunk = [], _SeriesKernel.run_chunk

        def counting_run_chunk(kernel, rng, m):
            sizes.append(m)
            return run_chunk(kernel, rng, m)

        monkeypatch.setattr(_SeriesKernel, "run_chunk", counting_run_chunk)
        protocol._estimates(bench, self.points(), 11)
        assert sorted(sizes) == [3, 500, 500, 500, DEFAULT_CHUNK_SIZE]

    def test_each_point_keeps_its_own_pair(self, bench):
        got = protocol._estimates(bench, self.points(), 11)
        assert [e.pair for e in got] == [p[0] for p in self.points()]
        assert [e.n_events for e in got] == [p[-1] for p in self.points()]

    def test_each_estimate_is_its_law_drawn_alone_on_stream_s(self, monkeypatch, bench):
        got = protocol._estimates(bench, self.points(), 11)
        for point, s, est in zip(self.points(), self.LAWS, got):
            # a one-point batch, its one law moved from stream 0 to stream s
            monkeypatch.setattr(protocol, "series_words",
                                lambda seed, _, ns, s=s: series_words(seed, [s], ns))
            (alone,) = protocol._estimates(bench, [point], 11)
            assert (alone.pair, alone.value, alone.std_error) == (est.pair, est.value,
                                                                  est.std_error)
        # the laws draw apart: no two share a value
        assert len({e.value for e in got}) == len(set(self.LAWS))

    # A = 1e140 sigma_z from |0>: over a gap of 1e-12 every product is
    # 1e280 and the squared deviations are 0, over a gap of 1 they overflow
    HUGE = DynamicsSpec(pauli("x"), spectral_decompose(1e140 * pauli("z")), basis_state(2, 0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dyn, bad, message", [
        (None, (1.0, 1.0 + 1e-17), "need t_second > t_first, got 1.0 >= 1.0"),
        (None, (-1e308, 1e308),
         "exp(-i H t) needs finite phases E t, got t = inf and largest |E| = 0.5"),
        (HUGE, (0.0, 1.0), "the correlator's sums overflow float64; the observable's largest "
                           "|eigenvalue| is 1e+140"),
    ], ids=["tiny-tau", "gap-overflow", "sum-overflow"])
    def test_each_refusal_names_its_point(self, bench, dyn, bad, message):
        # the failing law's first point is point 1, pair (2, 3); point 3
        # repeats the law under another pair
        points = [((1, 2), 0.0, 1e-12, None, 100), ((2, 3), *bad, None, 100),
                  ((1, 2), 0.0, 1e-12, None, 200), ((1, 3), *bad, None, 100)]
        for where, name in ((None, "pair (2, 3)"), (lambda i: f"point {i}", "point 1")):
            with pytest.raises(ValidationError) as exc:
                protocol._estimates(dyn or bench, points, 4, where=where)
            assert str(exc.value) == f"{name}: {message}"

    # A = 1e140 sigma_z under H = 2 sigma_x, |E| = 2: a gap of 1 overflows
    # the correlator's sums, and a gap of 1e308 the propagator's phases
    HUGE_FAST = DynamicsSpec(2 * pauli("x"), spectral_decompose(1e140 * pauli("z")),
                             basis_state(2, 0))
    SUMS = ("the correlator's sums overflow float64; the observable's largest |eigenvalue| "
            "is 1e+140")
    PHASES = "exp(-i H t) needs finite phases E t, got t = 1e+308 and largest |E| = 2"
    ORDER = "need t_second > t_first, got 2.0 >= 1.0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("laws, first, message", [
        ([(0.0, 1.0), (0.0, 1e308)], 0, SUMS),
        ([(0.0, 1e-12), (2.0, 1.0), (0.0, 1e308)], 1, ORDER),
        ([(0.0, 1e-12), (0.0, 1e308), (2.0, 1.0)], 1, PHASES),
        ([(0.0, 1e-12), (1e308, 1.5e308), (0.0, 1.0)], 1, PHASES),
    ], ids=["sums-before-phases", "order-at-its-turn", "phases-at-its-turn",
            "t-first-phases-at-its-turn"])
    def test_refusals_keep_their_batch_order(self, laws, first, message):
        # the kernels of a batch are built before its first law is drawn, yet
        # each refusal fires at its own law's turn, in law order: which law a
        # batch refuses does not depend on what the laws after it hold
        points = [((1, s + 2), *law, None, 100) for s, law in enumerate(laws)]
        with pytest.raises(ValidationError) as exc:
            protocol._estimates(self.HUGE_FAST, points, 4)
        assert str(exc.value) == f"pair (1, {first + 2}): {message}"


class TestWarningsNameTheCaller:
    """A weak-regime warning points at the line that called into lgsim."""

    @pytest.mark.parametrize(
        "call", ["run_series", "weak_channel_exact", "sample_weak_readings"]
    )
    def test_weak_regime_warning(self, bench, plan3, call):
        narrow = PointerModel(width=1.0)  # below 5 x spectral diameter 2
        rho, obs = bench.initial_state, bench.observable
        with pytest.warns(WeakRegimeWarning) as record:
            if call == "run_series":
                run_series(plan3, bench, 100, seed=1, pointer=narrow)
            elif call == "weak_channel_exact":
                weak_channel_exact(rho, obs, narrow)
            else:
                sample_weak_readings(rho, obs, narrow, 10, substream(1, 0))
        assert [w.filename for w in record] == [__file__]


class TestDeterminismAndMerging:
    def test_same_seed_reproduces_exactly(self, bench, plan3):
        a = run_series(plan3, bench, 30_000, seed=77)
        b = run_series(plan3, bench, 30_000, seed=77)
        assert a == b

    @pytest.mark.parametrize("pointer", [None, PointerModel(width=10.0)], ids=["strong", "weak"])
    def test_chunk_order_does_not_change_results(self, monkeypatch, bench, plan3, pointer):
        # each chunk draws from its own (seed, series, chunk) stream, so chunks
        # run last to first and then merged in chunk order (Chan, Golub and
        # LeVeque's update of the sum and squared deviations) reproduce the
        # estimates of run_series bitwise
        n, chunk = 150_000, 20_000  # ragged last chunk of 10,000
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", chunk)
        want = run_series(plan3, bench, n, seed=78, pointer=pointer)
        sizes = chunk_sizes(n)
        assert sizes == [chunk] * 7 + [10_000]
        for s, pair in enumerate(plan3.pairs):
            kernel = _SeriesKernel(bench, *plan3.pair_times(pair), pointer)
            partials = {}
            for c in reversed(range(len(sizes))):
                partials[c] = kernel.run_chunk(substream(78, s, c), sizes[c])
            count, total, sq_dev = 0, 0.0, 0.0
            for c, m in enumerate(sizes):
                part_sum, part_sq = partials[c]
                if count:
                    delta = part_sum / m - total / count
                    part_sq += delta * delta * count * m / (count + m)
                count, total, sq_dev = count + m, total + part_sum, sq_dev + part_sq
            std_error = math.sqrt(sq_dev / (count - 1) / count)
            assert (want[s].n_events, want[s].value, want[s].std_error) == (
                count, total / count, std_error)

    @pytest.mark.parametrize(
        "pointer, chunk_size",
        [
            pytest.param(None, 10_000, id="strong"),
            pytest.param(PointerModel(width=10.0), 7_000, id="weak"),
        ],
    )
    def test_chunk_size_changes_stream_but_not_law(
        self, monkeypatch, bench, plan3, pointer, chunk_size
    ):
        # different chunking draws different events; estimates stay compatible.
        # 7_000 leaves a ragged last chunk of 5_000 events
        a = run_series(plan3, bench, 40_000, seed=79, pointer=pointer)
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", chunk_size)
        b = run_series(plan3, bench, 40_000, seed=79, pointer=pointer)
        for ea, eb in zip(a, b):
            assert abs(ea.value - eb.value) < 5 * math.hypot(ea.std_error, eb.std_error)


    def test_blas_thread_count_does_not_change_results(self):
        # OpenBLAS splits a dot product of more than 10,000 terms over its
        # threads, and the partial sums round differently per thread count.
        # Weak series of one 60,000-event chunk, run in fresh interpreters
        # under one and two BLAS threads, must agree bitwise: the qubit, and
        # a d = 8 system whose chunk spans several column blocks, so the d
        # (d, d) @ (d, block) products run at the kernel's block shapes.
        code = (
            "import warnings\n"
            "import numpy as np\n"
            "from lgsim import DynamicsSpec, PointerModel, precession_qubit, spectral_decompose\n"
            "from conftest import random_density_matrix, single_correlator\n"
            "warnings.simplefilter('ignore')\n"
            "rng = np.random.default_rng(8)\n"
            "h = rng.normal(size=(8, 8))\n"
            "qudit = DynamicsSpec(h + h.T, spectral_decompose(np.diag(np.arange(8) - 3.5)),\n"
            "                     random_density_matrix(8, rng))\n"
            "for dyn, width in ((precession_qubit(), 10.0), (qudit, 40.0)):\n"
            "    for seed in range(80, 84):\n"
            "        e = single_correlator(dyn, 0.0, 1.0, 60_000, seed,\n"
            "                              pointer=PointerModel(width=width))\n"
            "        print(repr((e.value, e.std_error)))\n"
        )
        assert 2 * protocol._BLOCK < 60_000 <= DEFAULT_CHUNK_SIZE
        path = [str(Path(lgsim.__file__).resolve().parents[1]), str(Path(__file__).parent),
                os.environ.get("PYTHONPATH")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in path if p))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 8
        assert outputs[0] == outputs[1]


def _words(seed, stream, n):
    """Seed words of the chunks of one series of n events on ``stream``."""
    return series_words(seed, [stream], [n])[0]


def _on_every_worker(draw, workers, chunk_of):
    """``draw`` whose first ``workers`` chunks wait for one another. A worker
    takes the lowest chunk not yet taken, so those chunks run on as many
    workers at once, or the barrier breaks after its timeout."""
    barrier = threading.Barrier(workers, timeout=30)

    def waiting(rng, m):
        if chunk_of(rng) < workers:
            barrier.wait()
        return draw(rng, m)

    return waiting


class TestChunkWorkers:
    """A series of several chunks runs them on the calling thread and up to
    ``protocol._MAX_WORKERS`` - 1 helpers, one per CPU (``_cpu_count``), and
    merges their moments in chunk order."""

    @pytest.mark.parametrize("case", ["strong", "weak", "verify"])
    def test_worker_count_does_not_change_results(self, monkeypatch, chunk_of, case):
        # 1, 2 and 17 chunks, the last one ragged, on 1, 2 and 3 workers (more
        # than the cap allows) that all draw at once, with the interpreter
        # switching threads as often as it can: the moments agree bitwise, and
        # so does verify's sampler score, which also sums each chunk's outcome
        # counts
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 1_000)
        monkeypatch.setattr(protocol, "_MAX_WORKERS", 3)
        chunk_moments = protocol._chunk_moments
        if case == "verify":
            obs = spectral_decompose(np.diag([-1.0, 0.0, 1.0]))
            rho = random_density_matrix(3, np.random.default_rng(5))

            def run(n, workers):
                got = []
                monkeypatch.setattr(harness, "_chunk_moments", lambda n, words, draw: got.append(
                    chunk_moments(n, words, _on_every_worker(draw, workers, chunk_of))) or got[-1])
                return harness._sampler_deviation(rho, obs, n, 5, 107), got
        else:
            pointer = None if case == "strong" else PointerModel(width=10.0)
            kernel = _SeriesKernel(precession_qubit(), 0.0, TAU, pointer)

            def run(n, workers):
                draw = _on_every_worker(kernel.run_chunk, workers, chunk_of)
                return chunk_moments(n, _words(5, 2, n), draw)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (700, 1_700, 16_300):
                got = []
                for count in (1, 2, 3):
                    monkeypatch.setattr(protocol, "_cpu_count", lambda: count)
                    got.append(run(n, min(count, len(chunk_sizes(n)))))
                assert got[1] == got[0] and got[2] == got[0]
        finally:
            sys.setswitchinterval(interval)

    def test_error_of_the_lowest_failing_chunk_reaches_the_caller(self, monkeypatch, chunk_of):
        # chunk 3 fails only once chunk 4 has failed on another worker; the
        # caller gets chunk 3's error, with every helper joined
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 10)
        monkeypatch.setattr(protocol, "_cpu_count", lambda: 2)
        failed = threading.Event()

        def draw(rng, m):
            c = chunk_of(rng)
            if c == 4:
                failed.set()
            elif c != 3:
                return float(m), 0.0
            elif not failed.wait(30):
                raise TimeoutError("chunk 4 never ran")
            raise ValueError(f"chunk {c}")

        threads = threading.active_count()
        with pytest.raises(ValueError, match="^chunk 3$"):
            protocol._chunk_moments(170, _words(5, 0, 170), draw)
        assert threading.active_count() == threads
        assert protocol._chunk_moments(170, _words(5, 0, 170), lambda rng, m: (float(m), 0.0)) == (170.0, 0.0)
        assert threading.active_count() == threads

    def test_helpers_ignore_overflow_as_the_caller_does(self, monkeypatch):
        # A = 1e140 sigma_z: the products' squares overflow in every chunk, on
        # both workers whatever the host's CPUs, and _estimates refuses the
        # sums with no numpy warning
        # the barrier makes the two chunks run at once, one on the helper
        monkeypatch.setattr(protocol, "_cpu_count", lambda: 2)
        barrier, run_chunk = threading.Barrier(2, timeout=30), _SeriesKernel.run_chunk

        def on_both_workers(kernel, rng, m):
            barrier.wait()
            return run_chunk(kernel, rng, m)

        monkeypatch.setattr(_SeriesKernel, "run_chunk", on_both_workers)
        dyn = DynamicsSpec(pauli("x"), spectral_decompose(1e140 * pauli("z")), basis_state(2, 0))
        n = DEFAULT_CHUNK_SIZE + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", WeakRegimeWarning)
            with pytest.raises(ValidationError, match="sums overflow float64"):
                single_correlator(dyn, 0.0, 1.0, n, 3, pointer=PointerModel(width=10.0))


    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        # platforms with no os.sched_getaffinity (macOS, Windows) count every
        # CPU, and the moments are the same bitwise
        kernel = _SeriesKernel(precession_qubit(), 0.0, TAU, PointerModel(width=10.0))
        n = DEFAULT_CHUNK_SIZE + 1_000
        want = protocol._chunk_moments(n, _words(5, 2, n), kernel.run_chunk)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert protocol._cpu_count() == (os.cpu_count() or 1)
        assert protocol._chunk_moments(n, _words(5, 2, n), kernel.run_chunk) == want
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert protocol._cpu_count() == 1
        assert protocol._chunk_moments(n, _words(5, 2, n), kernel.run_chunk) == want


def _random_dynamics(rng, dim, case):
    """Random (H, A, rho); "degenerate" merges eigenvalues, "offset" adds 1e6 I
    to A and "far_offset" 1e8 I. "spin" is a diagonal spin-(dim-1)/2 J_z, an
    equally spaced spectrum whose pair midpoints coincide, and "spin_offset"
    that J_z plus 1e6 I."""
    basis = random_unitary(dim, rng)
    evals = np.sort(rng.normal(size=dim))[::-1]
    if case == "degenerate":
        evals = np.repeat(evals[: (dim + 1) // 2], 2)[:dim]
    if case.startswith("spin"):
        basis, evals = np.eye(dim), (dim - 1) / 2.0 - np.arange(dim)
    obs = spectral_decompose((basis * evals) @ basis.conj().T)
    if case in ("offset", "far_offset", "spin_offset"):
        offset = 1e8 if case == "far_offset" else 1e6
        obs = Observable(obs.eigenvalues + offset, obs.projectors)
    return DynamicsSpec(random_hermitian(dim, rng), obs, random_density_matrix(dim, rng))


def _reference_tables(dyn, t_first, t_second):
    """Outcome projectors, the state at t_first, the gap propagator and
    G[b, i, j] = tr(U^dag P_b U P_i rho P_j), each built term by term."""
    proj = dyn.observable.projectors
    rho = evolve(dyn.initial_state, propagator(dyn.hamiltonian, t_first))
    u = propagator(dyn.hamiltonian, t_second - t_first)
    n = len(proj)
    g = np.empty((n, n, n), dtype=complex)
    for b in range(n):
        heis = u.conj().T @ proj[b] @ u
        for i in range(n):
            for j in range(n):
                g[b, i, j] = np.trace(heis @ proj[i] @ rho.matrix @ proj[j])
    return proj, rho, u, g


def _one_pair_table(dyn, t_first, t_second):
    """The state at t_first and the table Re G[b, i, j] of one pair, built
    alone: its own propagators, one Heisenberg product per projector and one
    contraction, as the kernel of each pair was built before a batch stacked
    them. The stacked build must match it bit for bit."""
    rho = dyn.initial_state
    if t_first:
        rho = evolve(rho, propagator(dyn.hamiltonian, t_first))
    u = propagator(dyn.hamiltonian, t_second - t_first)
    proj = dyn.observable.projectors
    blocks = (proj @ rho.matrix)[:, None] @ proj[None]  # P_i rho P_j
    heis = np.stack([u.conj().T @ p @ u for p in proj])
    return rho, np.einsum("bad,ijda->bij", heis, blocks).real


def _weight_tables(kernel, n):
    """The (d, n) and (K, n) tables ``_second_cum`` fills."""
    d, n_pairs = kernel.table.shape
    return np.empty((d, n)), np.empty((n_pairs, n))


def _kernel_weights(kernel, first):
    """Row-normalised second-outcome weights a weak kernel draws from, (m, n)."""
    cum = kernel._second_cum(first, _weight_tables(kernel, first.size))
    return (np.diff(cum, axis=0, prepend=0.0) / cum[-1]).T


def _joint_table(kernel):
    """The strong kernel's joint law of the outcome pair, P[i, b]."""
    n = kernel.eigenvalues.size
    return kernel.joint.reshape(n, n)


DYNAMICS_CASES = [(2, "plain"), (3, "plain"), (5, "plain"), (8, "plain"),
                  (5, "degenerate"), (3, "offset"),
                  (3, "spin"), (8, "spin"), (3, "spin_offset")]


def _bits(x):
    """The bytes of an array, so that equal bits, signed zeros included, and
    nothing else compare equal."""
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


class TestStackedKernels:
    """``_kernels`` builds every kernel of a batch in one stacked pass: one
    eigendecomposition of H, one evolved state per t_first, one Re G per pair
    of times in a stacked contraction, one midpoint grouping per width. Each
    kernel must equal its pair built alone bit for bit, however the gaps are
    sliced."""

    # t_first 0 and t_first values shared by several pairs; gaps shared
    # across t_first values (0.7 from 0, 1.1 and 0.7; 1.1 from 0, 0.4 and
    # 1.1), the gap 1.1 - 0.4, which is not the float 0.7, and gaps equal to
    # a t_first (0.4, 0.7, 1.1)
    PAIRS = [(0.0, 0.7), (0.4, 1.1), (0.4, 2.0), (1.1, 1.8), (0.0, 1.1), (1.1, 2.2),
             (0.0, 0.4), (0.7, 1.4), (0.4, 1.1 + 0.4)]
    POINTERS = [None, PointerModel(width=0.5), PointerModel(width=10.0)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["plain", "spin", "degenerate"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 12, 16])
    def test_each_kernel_is_its_pair_built_alone(self, monkeypatch, dim, case):
        dyn = _random_dynamics(np.random.default_rng(1000 + dim), dim, case)
        a = dyn.observable.eigenvalues
        keys = [(*pair, pointer) for pair in self.PAIRS for pointer in self.POINTERS]
        # the default slices hold every gap of a t_first; one float per slice
        # holds one gap
        batches = [protocol._kernels(dyn, keys)]
        monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 1)
        batches.append(protocol._kernels(dyn, keys))
        for pair in self.PAIRS:
            rho, re_g = _one_pair_table(dyn, *pair)
            joint = np.clip(np.einsum("bii->ib", re_g), 0.0, None).ravel()
            for pointer, kernels in itertools.product(self.POINTERS, batches):
                kernel = kernels[(*pair, pointer)]
                assert kernel.first_mode == ("strong" if pointer is None else "weak")
                if pointer is None:
                    assert _bits(kernel.joint) == _bits(joint / joint.sum())
                    assert _bits(kernel.pair_products) == _bits(np.multiply.outer(a, a).ravel())
                    continue
                runs, table = protocol._midpoint_columns(a, pointer.width)
                assert _bits(kernel.rho_first.matrix) == _bits(rho.matrix)
                assert kernel.runs == runs
                assert _bits(kernel.table) == _bits(table(re_g))

    def test_one_decomposition_and_one_state_per_t_first(self, monkeypatch):
        # one eigh of H for the unitaries of every distinct time, t_first and
        # gap alike, in order of first appearance, and one evolve per nonzero t_first
        dyn = _random_dynamics(np.random.default_rng(7), 4, "plain")
        calls = {"eigh": 0, "evolve": 0, "times": []}
        eigh, evolve_, unitaries = np.linalg.eigh, protocol.evolve, protocol._unitaries

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def recording_unitaries(evals, evecs, times):
            calls["times"].append(list(times))
            return unitaries(evals, evecs, times)

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(protocol, "evolve", counting("evolve", evolve_))
        monkeypatch.setattr(protocol, "_unitaries", recording_unitaries)
        protocol._kernels(dyn, [(*pair, pointer) for pair in self.PAIRS
                                for pointer in self.POINTERS])
        assert (calls["eigh"], calls["evolve"]) == (1, 3)
        times = [t for t1, t2 in self.PAIRS for t in ([t1] if t1 else []) + [t2 - t1]]
        assert calls["times"] == [list(dict.fromkeys(times))]


class TestSecondOutcomeWeights:
    """The kernel's outcome tables against the textbook formulas."""

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_rows_match_evolved_conditional_states(self, dim, case):
        # P(i, b) = w_i Born(evolve(P_i rho P_i / w_i))_b
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        obs = dyn.observable
        proj, rho, u, _ = _reference_tables(dyn, 0.4, 1.3)
        w1 = born_weights(rho, obs)
        with np.errstate(over="raise", invalid="raise"):
            got = _joint_table(_SeriesKernel(dyn, 0.4, 1.3, None))
        for i in range(obs.n_outcomes):
            cond = proj[i] @ rho.matrix @ proj[i] / w1[i]
            cond = DensityMatrix(0.5 * (cond + cond.conj().T))
            want = w1[i] * born_weights(evolve(cond, u), obs)
            np.testing.assert_allclose(got[i], want, rtol=1e-10)

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_joint_table_without_evolution_is_diagonal(self, dim, case):
        # with nothing between the two measurements the second outcome
        # repeats the first, so P(i, b) = w_i when b = i and 0 otherwise
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        dyn = dataclasses.replace(dyn, hamiltonian=np.zeros((dim, dim)))
        w = born_weights(dyn.initial_state, dyn.observable)
        got = _joint_table(_SeriesKernel(dyn, 0.4, 1.3, None))
        np.testing.assert_allclose(got, np.diag(w), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("width", [0.01, 0.5, 10.0, 100.0])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_weak_weights_match_complex_contraction(self, dim, case, width):
        rng = np.random.default_rng(100 + dim)
        dyn = _random_dynamics(rng, dim, case)
        a = dyn.observable.eigenvalues
        pointer = PointerModel(width=width)
        _, _, _, g = _reference_tables(dyn, 0.4, 1.3)
        idx1 = rng.integers(0, a.size, size=301)
        first = a[idx1] + math.sqrt(pointer.position_variance) * rng.standard_normal(idx1.size)
        with np.errstate(over="raise", invalid="raise"):
            kernel = _SeriesKernel(dyn, 0.4, 1.3, pointer)
            got = _kernel_weights(kernel, first)
            logphi = -((first[:, None] - a[None, :]) ** 2) / (2.0 * width**2)
            phi = np.exp(logphi - logphi.max(axis=1, keepdims=True))
            want = np.einsum("ei,bij,ej->eb", phi, g, phi).real
            want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("width", [0.01, 0.5, 10.0, 100.0])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES + [(2, "far_offset"), (3, "far_offset")])
    def test_total_row_is_sum_over_every_outcome(self, dim, case, width):
        # the last cumulative row comes from the Born weights, not from a
        # contraction with Re G[d-1]; it must equal the d-row sum it replaces,
        # over amplitudes that no per-event maximum scales
        dyn = _random_dynamics(np.random.default_rng(600 + dim), dim, case)
        pointer = PointerModel(width=width)
        with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            kernel = _SeriesKernel(dyn, 0.4, 1.3, pointer)
            _, first = measurement._weak_draw(kernel.rho_first, dyn.observable, pointer, 301,
                                              substream(60, dim, 0))
            total = kernel._second_cum(first, _weight_tables(kernel, first.size))[-1]
            phi = np.exp(np.subtract.outer(kernel.eigenvalues, first) ** 2 / (-2.0 * width**2))
            _, re_g = _one_pair_table(dyn, 0.4, 1.3)
            want = np.einsum("ie,bij,je->e", phi, re_g, phi)
        np.testing.assert_allclose(total, want, rtol=1e-12)


    @pytest.mark.parametrize("dim, case, want", [
        (2, "plain", 3), (3, "spin", 5), (8, "spin", 15), (16, "spin", 31),
        (3, "spin_offset", 5), (3, "plain", 6), (8, "plain", 36), (16, "plain", 136),
    ])
    def test_pairs_with_one_midpoint_share_a_column(self, dim, case, want):
        # K distinct midpoints (a_i + a_j) / 2: 3 for a qubit, 2d - 1 for an
        # equally spaced J_z, d(d + 1) / 2 for a generic spectrum; the table
        # has one column per midpoint, and the runs form one product
        # phi_r phi_s, r <= s, for each, along the diagonals s - r: the two
        # diagonals 0 and 1 of an equally spaced spectrum, all d of a generic one
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=0.5))
        assert kernel.table.shape == (dim, want)
        pairs = _column_pairs(kernel.runs)
        assert len(set(pairs)) == want and all(r <= s for r, s in pairs)
        assert pairs == sorted(pairs, key=lambda pair: (pair[1] - pair[0], pair[0]))
        assert len(kernel.runs) == (2 if "spin" in case else dim)


def _column_pairs(runs):
    """The pair (r, s) whose product phi_r phi_s each table column reads."""
    return [(r, r + j) for j, lo, hi, _ in runs for r in range(lo, hi)]


def _per_row_table(re_g, a, width, reps):
    """The midpoint table as first built, with the pair (r, s) of ``reps``
    in column k: rows b < d-1 add Re G[b, i, j] times its factor pair by
    pair, uncumulated; the last row the Born weights."""
    values = a.tolist()
    column = {(values[r] + values[s]) / 2.0: k for k, (r, s) in enumerate(reps)}
    table = np.zeros((a.size, len(reps)))
    for i, a_i in enumerate(values):
        for j, a_j in enumerate(values):
            k = column[(a_i + a_j) / 2.0]
            g, g0 = abs(a_i - a_j), abs(values[reps[k][0]] - values[reps[k][1]])
            table[:-1, k] += re_g[:-1, i, j] * math.exp(-(g - g0) * (g + g0) / (4.0 * width**2))
    born = re_g.sum(axis=0).diagonal()
    for k, (r, s) in enumerate(reps):
        if r == s:
            table[-1, k] = born[r]
    return table


def _shifted_kernel_products(kernel, table, reps, rng, m):
    """A weak chunk's products as the kernel first drew them: strong readings,
    each eigenvalue repeated as often as one multinomial draw counted it, then
    their pointer noise, then the chunk's second uniforms, all drawn
    before any block; amplitudes shifted by their per-event maximum, one
    product per column of ``table`` for its pair in ``reps``, weights clipped
    at zero and summed row by row, the outcome counted as int64."""
    a, width = kernel.eigenvalues, kernel.pointer.width
    products = np.repeat(a, rng.multinomial(m, born_weights(kernel.rho_first, kernel.observable)))
    products += np.sqrt(kernel.pointer.position_variance) * rng.standard_normal(m)
    u_second = rng.random(m)
    block = max(1, min(8192, 2**17 // table.shape[1]))
    for lo in range(0, m, block):
        first = products[lo:lo + block]
        phi = np.subtract.outer(a, first)
        np.square(phi, out=phi)
        phi /= -2.0 * width**2
        phi -= phi.max(axis=0)
        np.exp(phi, out=phi)
        prods = np.array([phi[r] * phi[s] for r, s in reps])
        cum = table @ prods
        np.maximum(cum[:-1], 0.0, out=cum[:-1])
        for b in range(1, len(cum) - 1):
            cum[b] += cum[b - 1]
        idx = (cum[:-1] <= u_second[lo:lo + block] * cum[-1]).sum(axis=0, dtype=np.int64)
        first *= a[idx]
    return products


class TestUnshiftedKernel:
    """The weak kernel reads unshifted pointer amplitudes against a table
    whose outcome rows were cumulated when it was built, and counts the
    drawn outcome in bytes. Neither changes a draw: the passes it dropped
    (per-event shift, clip, running sum) only moved round-off. Nor does the
    order of the table's columns, diagonal by diagonal rather than by pair
    (r, s), which the reference keeps: it only reorders the product's sums."""

    @pytest.mark.parametrize("width", [0.5, 10.0])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_products_match_the_shifted_kernel(self, monkeypatch, dim, case, width):
        dyn = _random_dynamics(np.random.default_rng(800 + dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=width))
        _, re_g = _one_pair_table(dyn, 0.4, 1.3)
        reps = _column_pairs(kernel.runs)
        table = _per_row_table(re_g, kernel.eigenvalues, width, reps)
        # one product sums each column in another order: d^2 terms of at
        # most 1 each, so a few ulps of 1 apart
        np.testing.assert_allclose(kernel.table[:-1], np.cumsum(table[:-1], axis=0),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(kernel.table[-1], table[-1])
        m = 2**16
        reps = sorted(reps)
        table = _per_row_table(re_g, kernel.eigenvalues, width, reps)
        want = _shifted_kernel_products(kernel, table, reps, substream(70, dim, 0), m)
        got = []
        monkeypatch.setattr(protocol, "_moments", lambda x: got.append(x.copy()) or (0.0, 0.0))
        kernel.run_chunk(substream(70, dim, 0), m)
        np.testing.assert_array_equal(got[0], want)

    @pytest.mark.parametrize("width", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("dim, case", [(2, "plain"), (3, "plain"), (8, "spin"),
                                           (2, "far_offset"), (3, "far_offset")])
    def test_readings_far_in_the_tail_keep_a_positive_total(self, dim, case, width):
        # readings at a_i +- 13.71 sigma, the farthest a normal draw reaches,
        # and at +- 30 sigma, beyond it; sigma^2 = width^2 / 2
        dyn = _random_dynamics(np.random.default_rng(900 + dim), dim, case)
        a = dyn.observable.eigenvalues
        pointer = PointerModel(width=width)
        sigma = math.sqrt(pointer.position_variance)
        first = (a[:, None] + np.array([-30.0, -13.71, 13.71, 30.0]) * sigma).ravel()
        _, _, _, g = _reference_tables(dyn, 0.4, 1.3)
        with np.errstate(over="raise", invalid="raise"):
            kernel = _SeriesKernel(dyn, 0.4, 1.3, pointer)
            cum = kernel._second_cum(first, _weight_tables(kernel, first.size))
            logphi = -((first[:, None] - a[None, :]) ** 2) / (2.0 * width**2)
            phi = np.exp(logphi - logphi.max(axis=1, keepdims=True))
            want = np.einsum("ei,bij,ej->eb", phi, g, phi).real
            want /= want.sum(axis=1, keepdims=True)
        assert np.isfinite(cum).all() and (cum[-1] > 0).all()
        got = (np.diff(cum, axis=0, prepend=0.0) / cum[-1]).T
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestColumnBlocks:
    """A weak run_chunk draws a chunk's first readings and then works through
    it in column blocks of ``protocol._BLOCK`` events, fewer where two (d,
    block) tables and a (K, block) table of pair products would pass
    ``protocol._BLOCK_FLOATS`` floats, in multiples of 64 events; each block
    draws its own second uniforms into one set of aligned tables, of d + K + 1
    float rows. A strong chunk has no per-event tables and so no blocks."""

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_block_size_does_not_change_results(self, monkeypatch, dim, case):
        # every event sees the same random numbers and both sums run over the
        # whole chunk, so any block size gives the one-block result bitwise,
        # ragged last blocks included; the default cap on the tables too
        dyn = _random_dynamics(np.random.default_rng(300 + dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=10.0))
        block, (d, n_pairs) = protocol._BLOCK, kernel.table.shape
        for m, sizes in ((151, (64, 128)), (2 * block + 5, (block,))):
            one = -(-m // 64) * 64
            monkeypatch.setattr(protocol, "_BLOCK_FLOATS", one * (2 * d + n_pairs))
            monkeypatch.setattr(protocol, "_BLOCK", one)
            want = kernel.run_chunk(substream(90, dim, m), m)
            for size in sizes:
                monkeypatch.setattr(protocol, "_BLOCK", size)
                assert kernel.run_chunk(substream(90, dim, m), m) == want
            monkeypatch.undo()
            assert kernel.run_chunk(substream(90, dim, m), m) == want

    @pytest.mark.parametrize("dim, case, want", [
        (2, "plain", 8192), (8, "spin", 4224), (8, "plain", 2496), (16, "spin", 2048),
        (16, "plain", 768),
    ])
    def test_tables_of_one_block_fit_the_budget(self, monkeypatch, dim, case, want):
        # 2^17 // (2d + K) events, down to a multiple of 64, at most 8192: one
        # set of tables per chunk, each table and each of its rows aligned.
        # The amplitudes' table takes the cumulative weights and the uniforms'
        # row the second eigenvalues, so a block has (d, block), (K, block),
        # (block,) and the (d - 1, block) mask
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=10.0))
        tables, aligned_empty = [], protocol.aligned_empty
        monkeypatch.setattr(protocol, "aligned_empty",
                            lambda *a: tables.append(aligned_empty(*a)) or tables[-1])
        kernel.run_chunk(substream(92, dim, 0), DEFAULT_CHUNK_SIZE)
        d, n_pairs = kernel.table.shape
        assert [t.shape for t in tables] == [(d, want), (n_pairs, want), (want,), (d - 1, want)]
        assert all(t.ctypes.data % 64 == 0 for t in tables)
        assert all(t.strides[0] % 64 == 0 for t in tables if t.ndim == 2)

    @pytest.mark.parametrize("dim, case", [(2, "plain"), (8, "plain"), (8, "spin"),
                                           (16, "plain"), (16, "spin")])
    def test_weak_chunk_peak_memory_is_bounded(self, dim, case):
        # a full weak chunk holds only its first readings (512 KiB), which
        # become its products, beside the tables of one block at a time: one
        # (d, block) table of amplitudes, then cumulative weights, and the
        # (K, block) pair products, under 1 MiB together whatever d and K are
        # (K = 136 at d = 16 generic), and the block's uniforms, then second
        # eigenvalues, and outcome indices; chunk-wide uniforms or strong
        # readings would add 512 KiB each, and at d = 8, (d, m) tables of the
        # whole chunk are 4 MiB each and peak near 13 MiB
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=10.0))
        rng = substream(91, 0, 0)
        tracemalloc.start()
        try:
            kernel.run_chunk(rng, DEFAULT_CHUNK_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestChannelIdentities:
    """The G table against the closed-form channels, exact for any d.

    Summing G[b, i, j] over (i, j) with the channel's damping weights gives
    the Born weights of the unconditional post-measurement state carried to
    the later time, so averaging the kernel's per-event second-outcome
    weights over first readings reproduces each channel.
    """

    T1, T2 = 0.4, 1.3

    def _tables(self, dim, case, width):
        dyn = _random_dynamics(np.random.default_rng(200 + dim), dim, case)
        rho = evolve(dyn.initial_state, propagator(dyn.hamiltonian, self.T1))
        u = propagator(dyn.hamiltonian, self.T2 - self.T1)
        pointer = PointerModel(width=width)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            weak = _SeriesKernel(dyn, self.T1, self.T2, pointer)
            weak_out = weak_channel_exact(rho, dyn.observable, pointer)
        joint = _joint_table(_SeriesKernel(dyn, self.T1, self.T2, None))
        _, re_g = _one_pair_table(dyn, self.T1, self.T2)
        return dyn.observable, rho, u, re_g, joint, weak, weak_out

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_channel(self, dim, case):
        obs, rho, u, re_g, joint, _, _ = self._tables(dim, case, 10.0)
        want = born_weights(evolve(strong_channel(rho, obs), u), obs)
        np.testing.assert_allclose(np.einsum("bii->b", re_g), want, rtol=0, atol=1e-14)
        # the strong kernel's own table: its marginal over the first outcome
        np.testing.assert_allclose(joint.sum(axis=0), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("width", [0.5, 10.0])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_weak_channel(self, dim, case, width):
        obs, _, u, re_g, _, weak, weak_out = self._tables(dim, case, width)
        a = obs.eigenvalues
        damping = np.exp(-((a[:, None] - a[None, :]) ** 2) / (4.0 * width**2))
        want = born_weights(evolve(weak_out, u), obs)
        np.testing.assert_allclose((re_g * damping).sum(axis=(1, 2)), want, rtol=0, atol=1e-14)
        # the kernel's midpoint table: column k times its representative
        # pair's damping sums every pair of that midpoint, so its outcome
        # rows give the same weights, cumulated, and its total row the trace, 1
        got = weak.table @ np.array([damping[r, s] for r, s in _column_pairs(weak.runs)])
        np.testing.assert_allclose(got[:-1], np.cumsum(want)[:-1], rtol=0, atol=1e-14)
        assert got[-1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_conditional_states_are_states(self, dim, case):
        # weights sum_ij phi_i Re G[b, i, j] phi_j are nonnegative for every
        # real phi (each Re G[b] is positive semidefinite) and sum over b to
        # sum_i phi_i^2 w_i (the G[b] add up to diag(w)): whatever the
        # reading, the conditional state is a density matrix
        obs, rho, _, re_g, _, _, _ = self._tables(dim, case, 10.0)
        w = born_weights(rho, obs)
        assert np.linalg.eigvalsh(re_g).min() >= -1e-14
        np.testing.assert_allclose(re_g.sum(axis=0), np.diag(w), rtol=0, atol=1e-14)


class TestStrongEstimatesMatchExactMoments:
    """A strong estimate against the exact law of the product x = a_i a_b,
    P(i, b) = Re G[b, i, i], built term by term from ``_reference_tables``.

    An estimate fails when |value - E[x]| exceeds 5 exact standard errors
    sqrt(Var x / n); for a normal estimate that happens with probability
    5.7e-7 per correlator. Its std_error must also lie within 10% of the
    exact one, which the far offset checks where products sit near 1e16 and
    raw sums of x^2 would cancel all of the spread's digits.
    """

    N = 10**6

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES + [(2, "far_offset"), (3, "far_offset")])
    def test_estimate_within_five_exact_standard_errors(self, dim, case):
        dyn = _random_dynamics(np.random.default_rng(400 + dim), dim, case)
        _, _, _, g = _reference_tables(dyn, 0.4, 1.3)
        a = dyn.observable.eigenvalues
        prob = np.einsum("bii->ib", g).real
        prod = np.multiply.outer(a, a)
        mean = (prob * prod).sum()
        exact_se = math.sqrt((prob * (prod - mean) ** 2).sum() / self.N)
        est = single_correlator(dyn, 0.4, 1.3, self.N, seed=dim)
        assert abs(est.value - mean) <= 5.0 * exact_se
        assert est.std_error == pytest.approx(exact_se, rel=0.1)


class TestWeakEstimatesMatchExactMoments:
    """A weak estimate with no evolution between its two measurements. The
    later outcome b then has the Born law w_b, and the weak reading before it
    is a_b + Z with Z ~ N(0, width^2/2), so the product x = a_b^2 + Z a_b has
    mean E[a_b^2] and variance Var(a_b^2) + E[a_b^2] width^2/2, both taken
    about the mean. Acceptance as for the strong estimates: 5 exact standard
    errors (5.7e-7 per correlator) and std_error within 10%."""

    N = 10**6

    @pytest.mark.parametrize("dim, case", [(2, "plain"), (3, "offset"), (3, "far_offset")])
    def test_std_error_matches_centred_variance(self, dim, case):
        dyn = _random_dynamics(np.random.default_rng(500 + dim), dim, case)
        dyn = dataclasses.replace(dyn, hamiltonian=np.zeros((dim, dim)))
        pointer = PointerModel(width=40.0)
        w = born_weights(dyn.initial_state, dyn.observable)
        sq = dyn.observable.eigenvalues ** 2
        mean = w @ sq
        var = w @ (sq - mean) ** 2 + mean * pointer.position_variance
        exact_se = math.sqrt(var / self.N)
        est = single_correlator(dyn, 0.4, 1.3, self.N, seed=dim, pointer=pointer)
        assert abs(est.value - mean) <= 5.0 * exact_se
        assert est.std_error == pytest.approx(exact_se, rel=0.1)


class TestKernelMatchesBatchSamplers:
    """A weak kernel draws its first readings with ``measurement._weak_draw``,
    the function ``sample_weak_readings`` wraps: outcome counts, then pointer
    noise shifted by each outcome's eigenvalue. Verify's
    ``pointer_sampler_statistics`` calls the same draw and acceptance
    criterion 4 calls the wrapper, so both judge the readings every weak
    correlator uses. With no evolution between the two measurements, the
    kernel's events are the batch sampler's readings, draw for draw."""

    def test_weak_reading_leaves_eigenstate_untouched(self):
        # the later strong outcome is +1 every time, so every product is the
        # weak reading itself
        obs = spectral_decompose(pauli("z"))
        dyn = DynamicsSpec(np.zeros((2, 2)), obs, basis_state(2, 0))
        pointer = PointerModel(width=10.0)
        readings = sample_weak_readings(dyn.initial_state, obs, pointer, 50_000,
                                        substream(4, 0, 0))
        kernel = _SeriesKernel(dyn, 0.0, 1.0, pointer)
        total, sq_dev = kernel.run_chunk(substream(4, 0, 0), 50_000)
        assert total == readings.sum()
        assert sq_dev == np.square(readings - total / readings.size).sum()

    def test_defect_in_shared_draw_reaches_verify_and_kernel(self, monkeypatch, bench):
        # pointer noise scaled by 1.1, injected into the one shared draw as
        # each of its two callers, the weak kernel and verify, looks it up
        kernel = _SeriesKernel(bench, 0.0, 1.0, PointerModel(width=10.0))
        want = kernel.run_chunk(substream(6, 0, 0), 5_000)
        original = measurement._weak_draw

        def noisier(rho, obs, pm, n, rng):
            return original(rho, obs, PointerModel(width=1.1 * pm.width), n, rng)

        for module in (protocol, harness):
            monkeypatch.setattr(module, "_weak_draw", noisier)
        assert kernel.run_chunk(substream(6, 0, 0), 5_000) != want
        payload = run_verify(parse_config(
            {"scenario": "verify", "seed": 3, "verify": {"n_samples": 20_000, "n_random": 20}}))
        status = {c["name"]: c["status"] for c in payload["checks"]}
        assert status["pointer_sampler_statistics"] == "fail"


class TestLgStatistic:
    def test_violating_combination(self):
        assert lg_statistic([0.5, 0.5, -0.5]) == pytest.approx(1.5)
        assert macrorealism_bounds(3) == (-3, 1)

    def test_k3_is_c12_plus_c23_minus_c13_bit_for_bit(self, rng):
        for c12, c23, c13 in rng.uniform(-1.0, 1.0, size=(100, 3)):
            assert lg_statistic([c12, c23, c13]) == c12 + c23 - c13

    @pytest.mark.parametrize("k", range(3, 9))
    def test_bounds_are_extremes_over_sign_assignments(self, k):
        # a macrorealist +/-1 history s gives C(i, j) = s_i s_j; K_k is
        # multilinear, so its extremes over readings in [-1, 1] are among these
        values = [
            lg_statistic([s[i] * s[i + 1] for i in range(k - 1)] + [s[0] * s[-1]])
            for s in itertools.product((-1.0, 1.0), repeat=k)
        ]
        assert macrorealism_bounds(k) == (min(values), max(values))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            lg_statistic([math.nan, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("k", [3.5, 4.0, True])
    def test_bounds_need_an_integer_k(self, k):
        # 3.5 once gave (-3.5, 1.5)
        with pytest.raises(ValidationError, match=f"^k must be an integer, got {k!r}$"):
            macrorealism_bounds(k)

    def test_fewer_than_three_rejected(self):
        with pytest.raises(ValidationError, match="k >= 3"):
            lg_statistic([0.5, 0.5])
        with pytest.raises(ValidationError, match="k >= 3"):
            macrorealism_bounds(2)


class TestEstimatorConvergence:
    def test_k3_error_falls_as_inverse_sqrt_n(self, bench, plan3):
        # RMS error over replicate runs against the analytic K3, fitted on a
        # log-log grid; the estimator is unbiased so the slope sits at -1/2
        # the precessing qubit's strong K_k at equal gaps tau, here k = 3:
        # (k - 1) cos(omega tau) - cos((k - 1) omega tau)
        oracle = 2.0 * math.cos(TAU) - math.cos(2.0 * TAU)
        ns = [1_000, 10_000, 100_000, 1_000_000]
        reps_per = [64, 64, 48, 24]
        rms = []
        for i, (n, reps) in enumerate(zip(ns, reps_per)):
            sq = []
            for r in range(reps):
                # each (n, replicate) pair has a seed of its own
                ests = run_series(plan3, bench, n, seed=9000 + 100 * i + r)
                k3 = lg_statistic([e.value for e in ests])
                sq.append((k3 - oracle) ** 2)
            rms.append(math.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(ns), np.log(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
