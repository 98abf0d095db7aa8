import dataclasses
import itertools
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
from lgsim.streams import DEFAULT_CHUNK_SIZE, chunk_sizes, substream

from conftest import random_density_matrix, random_hermitian, random_unitary

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
        est = estimate_correlator(bench, 0.0, 1e-6, 20_000, seed=12)
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
        strong = estimate_correlator(bench, 0.0, 1.0, n, seed=23)
        weak = estimate_correlator(
            bench, 0.0, 1.0, n, seed=24, pointer=PointerModel(width=10.0)
        )
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

    def test_estimate_correlator_needs_ordered_times(self, bench):
        with pytest.raises(ValidationError, match="need t_second > t_first"):
            estimate_correlator(bench, 1.0, 1.0, 100, seed=1)
        with pytest.raises(ValidationError, match="need t_second > t_first"):
            _SeriesKernel(bench, 2.0, 1.0, PointerModel(width=10.0))


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
                run_series(plan3, bench, 100, seed=1, pointer=narrow)
            elif call == "estimate_correlator":
                estimate_correlator(bench, 0.0, 1.0, 100, seed=1, pointer=narrow)
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
        n, chunk, base = 150_000, 20_000, 3  # ragged last chunk of 10,000
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", chunk)
        want = run_series(plan3, bench, n, seed=78, pointer=pointer, stream_base=base)
        sizes = chunk_sizes(n)
        assert sizes == [chunk] * 7 + [10_000]
        for s, pair in enumerate(plan3.pairs):
            kernel = _SeriesKernel(bench, *plan3.pair_times(pair), pointer)
            partials = {}
            for c in reversed(range(len(sizes))):
                partials[c] = kernel.run_chunk(substream(78, base + s, c), sizes[c])
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

    @pytest.mark.parametrize("pointer", [None, PointerModel(width=10.0)], ids=["strong", "weak"])
    def test_run_series_is_estimate_correlator_per_pair(self, monkeypatch, bench, pointer):
        # series s of a plan is the single correlator of its pair's times drawn
        # from stream stream_base + s, labelled with the pair
        plan = SeriesPlan(4, [0.0, 0.4, 1.1, 1.5])
        n, base = 30_000, 5
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 7_000)
        got = run_series(plan, bench, n, seed=80, pointer=pointer, stream_base=base)
        want = [
            dataclasses.replace(
                estimate_correlator(bench, *plan.pair_times(pair), n, 80, pointer=pointer,
                                    stream_base=base + s),
                pair=pair,
            )
            for s, pair in enumerate(plan.pairs)
        ]
        assert got == want

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
            "from lgsim import (DynamicsSpec, PointerModel, estimate_correlator,\n"
            "                   precession_qubit, spectral_decompose)\n"
            "from conftest import random_density_matrix\n"
            "warnings.simplefilter('ignore')\n"
            "rng = np.random.default_rng(8)\n"
            "h = rng.normal(size=(8, 8))\n"
            "qudit = DynamicsSpec(h + h.T, spectral_decompose(np.diag(np.arange(8) - 3.5)),\n"
            "                     random_density_matrix(8, rng))\n"
            "for dyn, width in ((precession_qubit(), 10.0), (qudit, 40.0)):\n"
            "    for seed in range(80, 84):\n"
            "        e = estimate_correlator(dyn, 0.0, 1.0, 60_000, seed,\n"
            "                                pointer=PointerModel(width=width))\n"
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


def _random_dynamics(rng, dim, case):
    """Random (H, A, rho); "degenerate" merges eigenvalues, "offset" adds 1e6 I
    to A and "far_offset" 1e8 I."""
    basis = random_unitary(dim, rng)
    evals = np.sort(rng.normal(size=dim))[::-1]
    if case == "degenerate":
        evals = np.repeat(evals[: (dim + 1) // 2], 2)[:dim]
    obs = spectral_decompose((basis * evals) @ basis.conj().T)
    if case in ("offset", "far_offset"):
        offset = 1e6 if case == "offset" else 1e8
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


def _kernel_weights(kernel, first):
    """Row-normalised second-outcome weights a weak kernel draws from, (m, n)."""
    cum = kernel._second_cum(first)
    return (np.diff(cum, axis=0, prepend=0.0) / cum[-1]).T


def _joint_table(kernel):
    """The strong kernel's joint law of the outcome pair, P[i, b]."""
    n = kernel.eigenvalues.size
    return kernel.joint.reshape(n, n)


DYNAMICS_CASES = [(2, "plain"), (3, "plain"), (5, "plain"), (8, "plain"),
                  (5, "degenerate"), (3, "offset")]


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
        # contraction with Re G[d-1]; it must equal the d-row sum it replaces
        dyn = _random_dynamics(np.random.default_rng(600 + dim), dim, case)
        pointer = PointerModel(width=width)
        with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            kernel = _SeriesKernel(dyn, 0.4, 1.3, pointer)
            first = measurement._weak_readings(kernel.rho_first, dyn.observable, pointer, 301,
                                               substream(60, dim, 0))
            total = kernel._second_cum(first)[-1]
            phi = np.subtract.outer(kernel.eigenvalues, first) ** 2 / (-2.0 * width**2)
            phi = np.exp(phi - phi.max(axis=0))
            want = np.einsum("ie,bij,je->e", phi, kernel.re_g, phi)
        np.testing.assert_allclose(total, want, rtol=1e-12)


class TestColumnBlocks:
    """A weak run_chunk draws a chunk's random numbers first and then works
    through it in column blocks of ``protocol._BLOCK`` events. A strong chunk
    has no per-event tables and so no blocks."""

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_block_size_does_not_change_results(self, monkeypatch, dim, case):
        # every event sees the same random numbers and both sums run over the
        # whole chunk, so any block size gives the one-block result bitwise,
        # ragged last blocks included
        dyn = _random_dynamics(np.random.default_rng(300 + dim), dim, case)
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=10.0))
        block = protocol._BLOCK
        for m, sizes in ((23, (1, 7)), (2 * block + 5, (block,))):
            monkeypatch.setattr(protocol, "_BLOCK", m + 1)
            want = kernel.run_chunk(substream(90, dim, m), m)
            for size in sizes:
                monkeypatch.setattr(protocol, "_BLOCK", size)
                assert kernel.run_chunk(substream(90, dim, m), m) == want

    def test_weak_chunk_peak_memory_is_bounded(self):
        # a full weak chunk at d = 8 holds its first readings, which become
        # its products, and its second uniforms (2 x 512 KiB), beside the
        # (d, block) tables of one block at a time; (d, m) tables of the
        # whole chunk are 4 MiB each and peak near 13 MiB
        dyn = _random_dynamics(np.random.default_rng(8), 8, "plain")
        kernel = _SeriesKernel(dyn, 0.4, 1.3, PointerModel(width=10.0))
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
            weak = _SeriesKernel(dyn, self.T1, self.T2, pointer)
            weak_out = weak_channel_exact(rho, dyn.observable, pointer)
        joint = _joint_table(_SeriesKernel(dyn, self.T1, self.T2, None))
        return dyn.observable, rho, u, weak.re_g, joint, weak_out

    @pytest.mark.parametrize("dim, case", DYNAMICS_CASES)
    def test_strong_channel(self, dim, case):
        obs, rho, u, re_g, joint, _ = self._tables(dim, case, 10.0)
        want = born_weights(evolve(strong_channel(rho, obs), u), obs)
        np.testing.assert_allclose(np.einsum("bii->b", re_g), want, rtol=0, atol=1e-14)
        # the strong kernel's own table: its marginal over the first outcome
        np.testing.assert_allclose(joint.sum(axis=0), want, rtol=0, atol=1e-14)

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
        est = estimate_correlator(dyn, 0.4, 1.3, self.N, seed=dim)
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
        est = estimate_correlator(dyn, 0.4, 1.3, self.N, seed=dim, pointer=pointer)
        assert abs(est.value - mean) <= 5.0 * exact_se
        assert est.std_error == pytest.approx(exact_se, rel=0.1)


class TestKernelMatchesBatchSamplers:
    """A weak kernel draws its first readings with ``measurement._weak_readings``,
    the function ``sample_weak_readings`` wraps: strong readings, then
    ``_add_pointer_noise``. Verify's ``pointer_sampler_statistics`` runs the
    same two steps and acceptance criterion 4 calls the wrapper, so both judge
    the readings every weak correlator uses. With no evolution between the two
    measurements, the kernel's events are the batch sampler's readings, draw
    for draw."""

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
        # pointer noise scaled by 1.1, injected into the one noise step as
        # each of its two callers, the weak draw and verify, looks it up
        kernel = _SeriesKernel(bench, 0.0, 1.0, PointerModel(width=10.0))
        want = kernel.run_chunk(substream(6, 0, 0), 5_000)
        original = measurement._add_pointer_noise

        def noisier(readings, pm, rng):
            return original(readings, PointerModel(width=1.1 * pm.width), rng)

        for module in (measurement, harness):
            monkeypatch.setattr(module, "_add_pointer_noise", noisier)
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
                ests = run_series(plan3, bench, n, seed=9000 + r,
                                  stream_base=10 * i)
                k3 = lg_statistic([e.value for e in ests])
                sq.append((k3 - oracle) ** 2)
            rms.append(math.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log(ns), np.log(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
