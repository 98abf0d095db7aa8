import math
import os
import subprocess
import sys
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
    born_weights,
    build_series,
    estimate_correlator,
    evolve,
    k3_statistic,
    lg_satisfied,
    pauli,
    precession_qubit,
    propagator,
    quantum_k3_oracle,
    run_series,
    spectral_decompose,
    strong_sample,
)
from lgsim.errors import ValidationError
from lgsim.protocol import _SeriesKernel
from lgsim.quantum import random_density_matrix, random_unitary

from conftest import random_hermitian

TAU = math.pi / 3


@pytest.fixture(scope="module")
def bench():
    return precession_qubit(omega=1.0)


@pytest.fixture(scope="module")
def plan3():
    return build_series(3, [0.0, TAU, 2 * TAU])


class TestBuildSeries:
    def test_k3_pairs(self):
        plan = build_series(3, [0.0, 1.0, 2.0])
        assert plan.pairs == ((1, 2), (2, 3), (1, 3))

    def test_k4_pairs(self):
        plan = build_series(4, [0.0, 1.0, 2.0, 3.0])
        assert plan.pairs == ((1, 2), (2, 3), (3, 4), (1, 4))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            build_series(3, [0.0, 0.0, 1.0])

    def test_k_below_three_rejected(self):
        with pytest.raises(ValidationError, match="k >= 3"):
            build_series(2, [0.0, 1.0])

    def test_times_length_must_match_k(self):
        with pytest.raises(ValidationError):
            build_series(3, [0.0, 1.0])

    def test_pair_times_lookup(self):
        plan = build_series(3, [0.5, 1.5, 4.0])
        assert plan.pair_times((1, 3)) == (0.5, 4.0)


class TestEventSchedule:
    def test_two_k_events_with_k_non_invasive(self):
        for k in (3, 4, 7):
            plan = build_series(k, list(range(k)))
            events = plan.event_schedule()
            assert len(events) == 2 * k
            assert sum(e.non_invasive for e in events) == k
            # the non-invasive slot is always the earlier one of its series
            assert all(e.slot == "first" for e in events if e.non_invasive)

    def test_schedule_visits_every_pair_in_order(self):
        plan = build_series(3, [0.0, 1.0, 2.0])
        events = plan.event_schedule()
        visited = [(events[2 * s].time_index, events[2 * s + 1].time_index) for s in range(3)]
        assert visited == [(1, 2), (2, 3), (1, 3)]


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
        # manual two-measurement events: every product must be exactly +-1
        rng = np.random.default_rng(5)
        u = propagator(bench.hamiltonian, TAU)
        for _ in range(100):
            first = strong_sample(bench.initial_state, bench.observable, rng)
            second = strong_sample(evolve(first.conditional_state, u), bench.observable, rng)
            assert first.pointer_reading * second.pointer_reading in (1.0, -1.0)

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
        with pytest.warns(UserWarning, match="not all"):
            run_series(plan3, dyn, "strong", 100, seed=1)

    def test_estimate_correlator_needs_ordered_times(self, bench):
        with pytest.raises(ValidationError, match="t_second"):
            estimate_correlator(bench, 1.0, 1.0, "strong", 100, seed=1)


class TestDeterminismAndMerging:
    def test_same_seed_reproduces_exactly(self, bench, plan3):
        a = run_series(plan3, bench, "strong", 30_000, seed=77)
        b = run_series(plan3, bench, "strong", 30_000, seed=77)
        assert a == b

    def test_worker_count_does_not_change_results(self, bench, plan3):
        single = run_series(plan3, bench, "weak", 150_000, seed=78,
                            pointer=PointerModel(width=10.0))
        for workers in (2, 8):
            multi = run_series(plan3, bench, "weak", 150_000, seed=78,
                               pointer=PointerModel(width=10.0), workers=workers)
            assert multi == single  # chunk-ordered merge: bitwise identical

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
        # under one and two BLAS threads, must agree bitwise.
        code = (
            "from lgsim import PointerModel, estimate_correlator, precession_qubit\n"
            "for seed in range(80, 84):\n"
            "    e = estimate_correlator(precession_qubit(), 0.0, 1.0, 'weak', 60_000, seed,\n"
            "                            pointer=PointerModel(width=10.0), chunk_size=60_000)\n"
            "    print(repr((e.value, e.std_error)))\n"
        )
        path = [str(Path(lgsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in path if p))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 4
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
        w1 = born_weights(rho, obs).probabilities
        with np.errstate(over="raise", invalid="raise"):
            kernel = _SeriesKernel(dyn, 0.4, 1.3, "strong", None)
            got = _kernel_weights(kernel, np.arange(obs.n_outcomes), obs.eigenvalues)
        for i in range(obs.n_outcomes):
            cond = proj[i] @ rho.matrix @ proj[i] / w1[i]
            cond = DensityMatrix(0.5 * (cond + cond.conj().T))
            want = born_weights(evolve(cond, u), obs).probabilities
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
