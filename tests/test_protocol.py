import dataclasses
import math
import os
import subprocess
import sys
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
    estimate_correlator,
    evolve,
    k3_statistic,
    lg_satisfied,
    pauli,
    precession_qubit,
    propagator,
    quantum_k3_oracle,
    run_series,
    sample_strong_readings,
    sample_weak_readings,
    spectral_decompose,
    strong_channel,
    weak_channel_exact,
)
from lgsim.errors import ValidationError, WeakRegimeWarning
from lgsim import protocol
from lgsim.protocol import _SeriesKernel
from lgsim.quantum import random_density_matrix, random_unitary
from lgsim.streams import DEFAULT_CHUNK_SIZE, chunk_sizes, substream

from conftest import random_hermitian

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

    def test_times_length_must_match_k(self):
        with pytest.raises(ValidationError):
            SeriesPlan(3, [0.0, 1.0])

    def test_pair_times_lookup(self):
        plan = SeriesPlan(3, [0.5, 1.5, 4.0])
        assert plan.pair_times((1, 3)) == (0.5, 4.0)


class TestDynamicsSpec:
    def test_benchmark_shape(self, bench):
        assert bench.observable.is_dichotomic()
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
        ests = run_series(plan3, bench, "strong", 100_000, seed=11)
        gaps = [TAU, TAU, 2 * TAU]
        for est, gap in zip(ests, gaps):
            assert abs(est.value - math.cos(gap)) < 5 * est.std_error

    def test_near_zero_gap_gives_unit_correlator(self, bench):
        est = estimate_correlator(bench, 0.0, 1e-6, "strong", 20_000, seed=12)
        assert abs(est.value - 1.0) < 5 * est.std_error + 1e-9

    def test_per_event_products_are_dichotomic(self, bench):
        # the sum of squared products equals the event count exactly only
        # when every product is +-1
        kernel = _SeriesKernel(bench, 0.0, TAU, "strong", None)
        m, _, s2 = kernel.run_chunk(substream(5, 0, 0), 100_000)
        assert s2 == m

    def test_estimate_magnitude_bounded(self, bench, plan3):
        for est in run_series(plan3, bench, "strong", 5_000, seed=13):
            assert abs(est.value) <= 1.0 + 3.0 * est.std_error

    def test_reported_counts(self, bench, plan3):
        ests = run_series(plan3, bench, "strong", 5_000, seed=14)
        assert all(e.n_events == 5_000 for e in ests)


class TestWeakFirstCorrelators:
    def test_mean_agrees_with_strong_first(self, bench, plan3):
        strong = run_series(plan3, bench, "strong", 100_000, seed=21)
        weak = run_series(
            plan3, bench, "weak", 100_000, seed=22, pointer=PointerModel(width=10.0)
        )
        for es, ew in zip(strong, weak):
            combined = math.hypot(es.std_error, ew.std_error)
            assert abs(es.value - ew.value) < 5 * combined

    def test_stderr_inflated_by_pointer_noise(self, bench):
        # per-event variances: strong 1 - C^2, weak width^2/2 + 1 - C^2
        n = 200_000
        strong = estimate_correlator(bench, 0.0, 1.0, "strong", n, seed=23)
        weak = estimate_correlator(
            bench, 0.0, 1.0, "weak", n, seed=24, pointer=PointerModel(width=10.0)
        )
        c = math.cos(1.0)
        predicted_ratio = math.sqrt((50.0 + 1.0 - c * c) / (1.0 - c * c))
        measured_ratio = weak.std_error / strong.std_error
        assert measured_ratio == pytest.approx(predicted_ratio, rel=0.05)
        # loose sanity against the small-C inflation factor sqrt(1 + width^2/2)
        assert measured_ratio == pytest.approx(math.sqrt(51.0), rel=0.30)

    def test_weak_mode_requires_pointer(self, bench, plan3):
        with pytest.raises(ValidationError, match="pointer"):
            run_series(plan3, bench, "weak", 1_000, seed=25)


class TestRunSeriesValidation:
    def test_unknown_mode_rejected(self, bench, plan3):
        with pytest.raises(ValidationError, match="first_mode"):
            run_series(plan3, bench, "medium", 1_000, seed=1)

    def test_n_too_small_rejected(self, bench, plan3):
        with pytest.raises(ValidationError, match="n_per_series"):
            run_series(plan3, bench, "strong", 1, seed=1)

    def test_non_dichotomic_observable_warns(self, plan3):
        dyn = DynamicsSpec(
            hamiltonian=0.5 * pauli("x"),
            observable=spectral_decompose(np.diag([2.0, -1.0])),
            initial_state=basis_state(2, 0),
        )
        with pytest.warns(UserWarning, match="not all") as record:
            run_series(plan3, dyn, "strong", 100, seed=1)
        assert [w.filename for w in record] == [__file__]

    def test_estimate_correlator_needs_ordered_times(self, bench):
        with pytest.raises(ValidationError, match="t_second"):
            estimate_correlator(bench, 1.0, 1.0, "strong", 100, seed=1)


class TestWarningsNameTheCaller:
    """A weak-regime warning points at the line that called into lgsim."""

    @pytest.mark.parametrize(
        "call", ["run_series", "estimate_correlator", "weak_channel_exact", "sample_weak_readings"]
    )
    def test_weak_regime_warning(self, bench, plan3, call):
        narrow = PointerModel(width=1.0)  # below 5 x spectral diameter 2
        rho, obs = bench.initial_state, bench.observable
        with pytest.warns(WeakRegimeWarning) as record:
            if call == "run_series":
                run_series(plan3, bench, "weak", 100, seed=1, pointer=narrow)
            elif call == "estimate_correlator":
                estimate_correlator(bench, 0.0, 1.0, "weak", 100, seed=1, pointer=narrow)
            elif call == "weak_channel_exact":
                weak_channel_exact(rho, obs, narrow)
            else:
                sample_weak_readings(rho, obs, narrow, 10, substream(1, 0))
        assert [w.filename for w in record] == [__file__]


class TestDeterminismAndMerging:
    def test_same_seed_reproduces_exactly(self, bench, plan3):
        a = run_series(plan3, bench, "strong", 30_000, seed=77)
        b = run_series(plan3, bench, "strong", 30_000, seed=77)
        assert a == b

    @pytest.mark.parametrize(
        "mode, pointer",
        [("strong", None), ("weak", PointerModel(width=10.0))],
        ids=["strong", "weak"],
    )
    def test_chunk_order_does_not_change_results(self, bench, plan3, mode, pointer):
        # each chunk draws from its own (seed, series, chunk) stream, so chunks
        # run last to first and then added in chunk order reproduce the
        # estimates of run_series bitwise
        n, chunk, base = 150_000, 20_000, 3  # ragged last chunk of 10,000
        want = run_series(plan3, bench, mode, n, seed=78, pointer=pointer,
                          chunk_size=chunk, stream_base=base)
        sizes = chunk_sizes(n, chunk)
        for s, pair in enumerate(plan3.pairs):
            kernel = _SeriesKernel(bench, *plan3.pair_times(pair), mode, pointer)
            partials = {}
            for c in reversed(range(len(sizes))):
                partials[c] = kernel.run_chunk(substream(78, base + s, c), sizes[c])
            total, s1, s2 = 0, 0.0, 0.0
            for c in range(len(sizes)):
                total += partials[c][0]
                s1 += partials[c][1]
                s2 += partials[c][2]
            mean = s1 / total
            std_error = math.sqrt(max(s2 - total * mean * mean, 0.0) / (total - 1) / total)
            assert (want[s].n_events, want[s].value, want[s].std_error) == (total, mean, std_error)

    @pytest.mark.parametrize(
        "mode, pointer",
        [("strong", None), ("weak", PointerModel(width=10.0))],
        ids=["strong", "weak"],
    )
    def test_run_series_is_estimate_correlator_per_pair(self, bench, mode, pointer):
        # series s of a plan is the single correlator of its pair's times drawn
        # from stream stream_base + s, labelled with the pair
        plan = SeriesPlan(4, [0.0, 0.4, 1.1, 1.5])
        n, chunk, base = 30_000, 7_000, 5
        got = run_series(plan, bench, mode, n, seed=80, pointer=pointer,
                         chunk_size=chunk, stream_base=base)
        want = [
            dataclasses.replace(
                estimate_correlator(bench, *plan.pair_times(pair), mode, n, 80, pointer=pointer,
                                    chunk_size=chunk, stream_base=base + s),
                pair=pair,
            )
            for s, pair in enumerate(plan.pairs)
        ]
        assert got == want

    @pytest.mark.parametrize(
        "mode, pointer, chunk_size",
        [
            pytest.param("strong", None, 10_000, id="strong"),
            pytest.param("weak", PointerModel(width=10.0), 7_000, id="weak"),
        ],
    )
    def test_chunk_size_changes_stream_but_not_law(self, bench, plan3, mode, pointer, chunk_size):
        # different chunking draws different events; estimates stay compatible.
        # 7_000 leaves a ragged last chunk of 5_000 events
        a = run_series(plan3, bench, mode, 40_000, seed=79, pointer=pointer)
        b = run_series(plan3, bench, mode, 40_000, seed=79, pointer=pointer,
                       chunk_size=chunk_size)
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
            "from lgsim import (DynamicsSpec, PointerModel, estimate_correlator,\n"
            "                   precession_qubit, spectral_decompose)\n"
            "from lgsim.quantum import random_density_matrix\n"
            "warnings.simplefilter('ignore')\n"
            "rng = np.random.default_rng(8)\n"
            "h = rng.normal(size=(8, 8))\n"
            "qudit = DynamicsSpec(h + h.T, spectral_decompose(np.diag(np.arange(8) - 3.5)),\n"
            "                     random_density_matrix(8, rng))\n"
            "for dyn, width in ((precession_qubit(), 10.0), (qudit, 40.0)):\n"
            "    for seed in range(80, 84):\n"
            "        e = estimate_correlator(dyn, 0.0, 1.0, 'weak', 60_000, seed,\n"
            "                                pointer=PointerModel(width=width),\n"
            "                                chunk_size=60_000)\n"
            "        print(repr((e.value, e.std_error)))\n"
        )
        assert 60_000 > 2 * protocol._BLOCK
        path = [str(Path(lgsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in path if p))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 8
        assert outputs[0] == outputs[1]


def _random_dynamics(rng, dim, case):
    """Random (H, A, rho); "degenerate" merges eigenvalues, "offset" adds 1e6 I to A."""
    basis = random_unitary(dim, rng)
    evals = np.sort(rng.normal(size=dim))[::-1]
    if case == "degenerate":
        evals = np.repeat(evals[: (dim + 1) // 2], 2)[:dim]
    obs = spectral_decompose((basis * evals) @ basis.conj().T)
    if case == "offset":
        obs = Observable(obs.eigenvalues + 1e6, obs.projectors)
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


def _kernel_weights(kernel, idx1, first):
    """Row-normalised second-outcome weights the kernel draws from, (m, n)."""
    cum = kernel._second_cum(idx1, first)
    return (np.diff(cum, axis=0, prepend=0.0) / cum[-1]).T


DYNAMICS_CASES = [(2, "plain"), (3, "plain"), (5, "plain"), (8, "plain"),
                  (5, "degenerate"), (3, "offset")]


class TestSecondOutcomeWeights:
    """The kernel's second-outcome tables against the textbook formulas."""

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_rows_match_evolved_conditional_states(self, dim, case):
        dyn = _random_dynamics(np.random.default_rng(dim), dim, case)
        obs = dyn.observable
        proj, rho, u, _ = _reference_tables(dyn, 0.4, 1.3)
        w1 = born_weights(rho, obs)
        with np.errstate(over="raise", invalid="raise"):
            kernel = _SeriesKernel(dyn, 0.4, 1.3, "strong", None)
            got = _kernel_weights(kernel, np.arange(obs.n_outcomes), obs.eigenvalues)
        for i in range(obs.n_outcomes):
            cond = proj[i] @ rho.matrix @ proj[i] / w1[i]
            cond = DensityMatrix(0.5 * (cond + cond.conj().T))
            want = born_weights(evolve(cond, u), obs)
            np.testing.assert_allclose(got[i], want, rtol=1e-10)

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
            kernel = _SeriesKernel(dyn, 0.4, 1.3, "weak", pointer)
            got = _kernel_weights(kernel, idx1, first)
            logphi = -((first[:, None] - a[None, :]) ** 2) / (2.0 * width**2)
            phi = np.exp(logphi - logphi.max(axis=1, keepdims=True))
            want = np.einsum("ei,bij,ej->eb", phi, g, phi).real
            want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestColumnBlocks:
    """run_chunk draws a chunk's random numbers first and then works through
    it in column blocks of ``protocol._BLOCK`` events."""

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_block_size_does_not_change_results(self, monkeypatch, dim, case, mode):
        # every event sees the same random numbers and both sums run over the
        # whole chunk, so any block size gives the one-block result bitwise,
        # ragged last blocks included
        dyn = _random_dynamics(np.random.default_rng(300 + dim), dim, case)
        pointer = PointerModel(width=10.0) if mode == "weak" else None
        kernel = _SeriesKernel(dyn, 0.4, 1.3, mode, pointer)
        block = protocol._BLOCK
        for m, sizes in ((23, (1, 7)), (2 * block + 5, (block,))):
            monkeypatch.setattr(protocol, "_BLOCK", m + 1)
            want = kernel.run_chunk(substream(90, dim, m), m)
            for size in sizes:
                monkeypatch.setattr(protocol, "_BLOCK", size)
                assert kernel.run_chunk(substream(90, dim, m), m) == want

    def test_weak_chunk_peak_memory_is_bounded(self):
        # a full weak chunk at d = 8 holds its random numbers and products
        # (4 x 512 KiB) and the (d, block) tables of one block at a time;
        # (d, m) tables of the whole chunk are 4 MiB each and peak near 13 MiB
        dyn = _random_dynamics(np.random.default_rng(8), 8, "plain")
        kernel = _SeriesKernel(dyn, 0.4, 1.3, "weak", PointerModel(width=10.0))
        rng = substream(91, 0, 0)
        tracemalloc.start()
        try:
            kernel.run_chunk(rng, DEFAULT_CHUNK_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


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
            weak = _SeriesKernel(dyn, self.T1, self.T2, "weak", pointer)
            weak_out = weak_channel_exact(rho, dyn.observable, pointer)
        strong = _SeriesKernel(dyn, self.T1, self.T2, "strong", None)
        return dyn.observable, rho, u, weak.re_g, strong.cum_second, weak_out

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_channel(self, dim, case):
        obs, rho, u, re_g, cum_second, _ = self._tables(dim, case, 10.0)
        want = born_weights(evolve(strong_channel(rho, obs), u), obs)
        np.testing.assert_allclose(np.einsum("bii->b", re_g), want, rtol=0, atol=1e-14)
        # the strong kernel's own table: row b of its cumulative sum less row b-1
        rows = np.diff(cum_second, axis=0, prepend=0.0)
        np.testing.assert_allclose(rows.sum(axis=1), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("width", [0.5, 10.0])
    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_weak_channel(self, dim, case, width):
        obs, _, u, re_g, _, weak_out = self._tables(dim, case, width)
        a = obs.eigenvalues
        damping = np.exp(-((a[:, None] - a[None, :]) ** 2) / (4.0 * width**2))
        want = born_weights(evolve(weak_out, u), obs)
        np.testing.assert_allclose((re_g * damping).sum(axis=(1, 2)), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_conditional_states_are_states(self, dim, case):
        # weights sum_ij phi_i Re G[b, i, j] phi_j are nonnegative for every
        # real phi (each Re G[b] is positive semidefinite) and sum over b to
        # sum_i phi_i^2 w_i (the G[b] add up to diag(w)): whatever the
        # reading, the conditional state is a density matrix
        obs, rho, _, re_g, _, _ = self._tables(dim, case, 10.0)
        w = born_weights(rho, obs)
        assert np.linalg.eigvalsh(re_g).min() >= -1e-14
        np.testing.assert_allclose(re_g.sum(axis=0), np.diag(w), rtol=0, atol=1e-14)


class TestKernelMatchesBatchSamplers:
    """With no evolution between the two measurements, the kernel's events
    are the batch samplers' readings, draw for draw."""

    def test_strong_measurement_repeats(self, rng):
        # a second strong measurement repeats the first outcome, so every
        # product is the first reading squared
        obs = spectral_decompose(np.diag([0.25, -1.5, 3.0]))
        dyn = DynamicsSpec(np.zeros((3, 3)), obs, random_density_matrix(3, rng))
        readings = sample_strong_readings(dyn.initial_state, obs, 50_000, substream(3, 0, 0))
        kernel = _SeriesKernel(dyn, 0.0, 1.0, "strong", None)
        _, s1, s2 = kernel.run_chunk(substream(3, 0, 0), 50_000)
        products = readings * readings
        assert (s1, s2) == (products.sum(), np.square(products).sum())

    def test_weak_reading_leaves_eigenstate_untouched(self):
        # the later strong outcome is +1 every time, so every product is the
        # weak reading itself
        obs = spectral_decompose(pauli("z"))
        dyn = DynamicsSpec(np.zeros((2, 2)), obs, basis_state(2, 0))
        pointer = PointerModel(width=10.0)
        readings = sample_weak_readings(dyn.initial_state, obs, pointer, 50_000,
                                        substream(4, 0, 0))
        kernel = _SeriesKernel(dyn, 0.0, 1.0, "weak", pointer)
        _, s1, s2 = kernel.run_chunk(substream(4, 0, 0), 50_000)
        assert (s1, s2) == (readings.sum(), np.square(readings).sum())


class TestK3Statistic:
    def test_violating_combination(self):
        k3 = k3_statistic(0.5, 0.5, -0.5)
        assert k3 == pytest.approx(1.5)
        assert not lg_satisfied(k3)

    def test_upper_boundary_satisfied(self):
        assert lg_satisfied(k3_statistic(1.0, 1.0, 1.0))  # K3 = 1

    def test_lower_boundary_satisfied(self):
        assert lg_satisfied(k3_statistic(-1.0, -1.0, 1.0))  # K3 = -3

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            k3_statistic(math.nan, 0.0, 0.0)


class TestQuantumK3Oracle:
    def test_maximal_violation_angle(self):
        assert quantum_k3_oracle(1.0, math.pi / 3) == pytest.approx(1.5, abs=1e-12)

    def test_zero_gap(self):
        assert quantum_k3_oracle(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_period(self):
        assert quantum_k3_oracle(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-12)


class TestEstimatorConvergence:
    def test_k3_error_falls_as_inverse_sqrt_n(self, bench, plan3):
        # RMS error over replicate runs against the analytic K3, fitted on a
        # log-log grid; the estimator is unbiased so the slope sits at -1/2
        oracle = quantum_k3_oracle(1.0, TAU)
        ns = [1_000, 10_000, 100_000, 1_000_000]
        reps_per = [64, 64, 48, 24]
        rms = []
        for i, (n, reps) in enumerate(zip(ns, reps_per)):
            sq = []
            for r in range(reps):
                ests = run_series(plan3, bench, "strong", n, seed=9000 + r,
                                  stream_base=10 * i)
                k3 = k3_statistic(ests[0].value, ests[1].value, ests[2].value)
                sq.append((k3 - oracle) ** 2)
            rms.append(math.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(ns), np.log(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
