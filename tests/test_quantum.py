import re
import warnings

import numpy as np
import pytest

from lgsim import (
    DensityMatrix,
    Observable,
    basis_state,
    born_weights,
    evolve,
    expectation,
    maximally_mixed,
    overlap_fidelity,
    pauli,
    plus_state,
    propagator,
    pure_state,
    purity,
    spectral_decompose,
    variance,
)
from lgsim.errors import DimensionMismatchError, ValidationError
from lgsim.quantum import (
    EIGEN_GAP_TOL,
    _first_above,
    random_density_matrices,
)

from conftest import random_density_matrix, random_hermitian, random_pure_state, random_unitary


def _grouping_loop_reference(h, gap_tol=1e-9):
    """Eigenspaces by the earlier per-eigenvalue grouping loop."""
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    groups = [[0]]
    for i in range(1, evals.size):
        if evals[i - 1] - evals[i] < gap_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    vals = np.array([evals[g].mean() for g in groups])
    projs = np.stack([
        sum(np.outer(evecs[:, i], evecs[:, i].conj()) for i in g) for g in groups
    ])
    return vals, 0.5 * (projs + np.conj(np.transpose(projs, (0, 2, 1))))


def _raises_exactly(message, fn, *args):
    with pytest.raises(ValidationError) as info:
        fn(*args)
    assert str(info.value) == message


class TestSpectralDecompose:
    def test_already_diagonal(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(obs.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(obs.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(obs.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_pauli_x_eigenpairs(self):
        obs = spectral_decompose(pauli("x"))
        np.testing.assert_allclose(obs.eigenvalues, [1.0, -1.0])
        # projectors onto (1, +-1)/sqrt(2)
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(obs.projectors[0], plus, atol=1e-12)
        np.testing.assert_allclose(obs.projectors[1], minus, atol=1e-12)

    def test_random_hermitian_reconstructs(self, rng):
        # absolute tolerance only: a relative one would pass an eigenvalue
        # shifted by 1e-8
        for dim in (2, 3, 4):
            for _ in range(20):
                h = random_hermitian(dim, rng)
                obs = spectral_decompose(h)
                np.testing.assert_allclose(obs.matrix(), h, rtol=0, atol=1e-9)

    def test_nondegenerate_spectrum_matches_grouping_loop_bitwise(self, rng):
        # one eigenvector per eigenspace: nothing is summed, so the arithmetic
        # is the loop's own
        for dim in (1, 2, 3, 5, 8):
            h = random_hermitian(dim, rng)
            obs = spectral_decompose(h)
            want_vals, want_projs = _grouping_loop_reference(h)
            np.testing.assert_array_equal(obs.eigenvalues, want_vals)
            np.testing.assert_array_equal(obs.projectors, want_projs)

    def test_eigenvalues_canonically_ordered(self, rng):
        for _ in range(20):
            obs = spectral_decompose(random_hermitian(5, rng))
            assert np.all(np.diff(obs.eigenvalues) < 0)

    def test_degenerate_spectrum_merges_into_eigenspace(self, rng):
        obs = spectral_decompose(np.diag([1.0, 1.0 + 1e-12, 0.0]))
        assert obs.n_outcomes == 2
        assert np.trace(obs.projectors[0]).real == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(obs.matrix(), np.diag([1.0, 1.0, 0.0]), atol=1e-11)

        # rotated d=5 spectrum with two two-fold eigenspaces
        u = random_unitary(5, rng)
        h = (u * np.array([2.0, -1.0, 2.0, 0.5, -1.0])) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        obs = spectral_decompose(h)
        want_vals, want_projs = _grouping_loop_reference(h)
        assert obs.n_outcomes == 3
        np.testing.assert_allclose(obs.eigenvalues, want_vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(obs.projectors, want_projs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.trace(obs.projectors, axis1=1, axis2=2).real, [2.0, 1.0, 2.0], atol=1e-12
        )

    @pytest.mark.parametrize("gap, n_outcomes", [(0.5, 1), (2.0, 2)])
    def test_eigen_gap_is_the_constant(self, gap, n_outcomes):
        # eigenvalues closer than EIGEN_GAP_TOL share an eigenspace
        obs = spectral_decompose(np.diag([1.0, 1.0 - gap * EIGEN_GAP_TOL]))
        assert obs.n_outcomes == n_outcomes

    def test_gap_past_float64_splits_without_a_warning(self):
        # the gap 2e308 overflows; the eigenspace split and the diameter must
        # not warn on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = spectral_decompose(1e308 * pauli("z"))
            assert obs.eigenvalues.tolist() == [1e308, -1e308]
            assert obs.spectral_diameter == np.inf

    @pytest.mark.parametrize("scale", [1e8, 1e75, 1e140, 1e300])
    def test_degenerate_spectrum_merges_at_large_scale(self, scale):
        # equal eigenvalues have gap 0 at any scale, even where a - 1e-9 == a
        obs = spectral_decompose(scale * np.diag([1.0, 1.0, -1.0]))
        np.testing.assert_allclose(obs.eigenvalues, [scale, -scale], rtol=1e-15)
        np.testing.assert_allclose(
            np.trace(obs.projectors, axis1=1, axis2=2).real, [2.0, 1.0], atol=1e-12
        )

    def test_non_hermitian_rejected_naming_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="1\\.0"):
            spectral_decompose(bad)

    def test_observable_invariants_enforced_on_construction(self):
        # projectors that are not orthogonal must be refused
        p = np.full((2, 2), 0.5)
        with pytest.raises(ValidationError, match="orthogonality"):
            Observable(np.array([1.0, -1.0]), np.stack([p, p]))
        # incomplete family must be refused
        with pytest.raises(ValidationError, match="completeness"):
            Observable(np.array([1.0]), np.stack([np.diag([1.0, 0.0])]))


_P0 = np.diag([1.0, 0.0, 0.0])
_P1 = np.diag([0.0, 1.0, 0.0])
_P2 = np.diag([0.0, 0.0, 1.0])
_SKEW = np.zeros((3, 3))
_SKEW[0, 1] = 1e-3  # breaks Hermiticity by 1e-3


class TestObservableValidation:
    @pytest.mark.parametrize(
        "projectors, message",
        [
            (
                [_P0, _P1 + _SKEW, _P2],
                "projector 1 is not Hermitian: max |A - A^dagger| = 1.000e-03 exceeds 1e-10",
            ),
            (
                # the first failing projector is named, not the worst
                [_P0, _P1 + _SKEW, _P2 + 5 * _SKEW],
                "projector 1 is not Hermitian: max |A - A^dagger| = 1.000e-03 exceeds 1e-10",
            ),
            (
                [_P0, _P1, np.where(_P2 > 0, np.nan, 0.0)],
                "projector 2 is not Hermitian: max |A - A^dagger| = nan exceeds 1e-10",
            ),
            (
                # rows 0 and 1 up to (1, 2) pass; (1, 2) fails before (2, 1) and (2, 2)
                [_P0, _P1, np.diag([0.0, 0.5, 1.0])],
                "projectors 1,2 violate orthogonality by 5.000e-01",
            ),
            (
                # idempotence is the (i, i) entry of the same check
                [np.diag([0.5, 0.0, 0.0]), _P1, _P2],
                "projectors 0,0 violate orthogonality by 2.500e-01",
            ),
            (
                [_P0, _P1, np.zeros((3, 3))],
                "projectors violate completeness by 1.000e+00",
            ),
        ],
        ids=["hermitian", "first-hermitian", "nan", "orthogonality-pair", "idempotence",
             "completeness"],
    )
    def test_message_names_first_failure(self, projectors, message):
        _raises_exactly(message, Observable, np.array([1.0, 0.0, -1.0]), np.stack(projectors))

    def test_shape_and_order_messages(self):
        _raises_exactly(
            "eigenvalues must be a non-empty 1-d array", Observable, np.array([]), np.zeros((0, 2, 2))
        )
        _raises_exactly(
            "projectors must have shape (n, dim, dim) with n = 3, got (2, 3, 3)",
            Observable, np.array([1.0, 0.0, -1.0]), np.stack([_P0, _P1]),
        )
        _raises_exactly(
            "eigenvalues must be strictly decreasing",
            Observable, np.array([1.0, 2.0, -1.0]), np.stack([_P0, _P1, _P2]),
        )

    @pytest.mark.parametrize("evals", [[1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [1.0, np.nan, -1.0]])
    def test_repeated_eigenvalue_rejected(self, evals):
        # a repeated eigenvalue split over rank-1 projectors would let the
        # strong channel dephase inside its eigenspace
        _raises_exactly(
            "eigenvalues must be strictly decreasing",
            Observable, np.array(evals), np.stack([_P0, _P1, _P2]),
        )

    def test_valid_family_is_frozen(self):
        obs = Observable(np.array([1.0, 0.0, -1.0]), np.stack([_P0, _P1, _P2]))
        np.testing.assert_array_equal(obs.matrix(), np.diag([1.0, 0.0, -1.0]))
        assert not obs.projectors.flags.writeable


class TestDensityMatrixMessages:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "density matrix must be a square matrix, got shape (2, 3)"),
            (
                np.array([[0.5, 0.3], [0.0, 0.5]]),
                "density matrix is not Hermitian: max |A - A^dagger| = 3.000e-01 exceeds 1e-10",
            ),
            (
                np.array([[0.5, np.nan], [0.0, 0.5]]),
                "density matrix is not Hermitian: max |A - A^dagger| = nan exceeds 1e-10",
            ),
            (np.diag([0.7, 0.7]), "density matrix trace is 1.4, not 1"),
            (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
        ],
        ids=["shape", "hermitian", "nan", "trace", "negative"],
    )
    def test_message(self, matrix, message):
        _raises_exactly(message, DensityMatrix, matrix)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.array([[0.7, 0.3], [0.0, 0.7]]),
             "density matrix is not Hermitian: max |A - A^dagger| = 3.000e-01 exceeds 1e-10"),
            (np.diag([1.5, -0.7]), "density matrix trace is 0.8, not 1"),
            (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
        ],
        ids=["hermitian-before-trace", "trace-before-negative", "negative-before-purity"],
    )
    def test_first_failing_check_is_named(self, matrix, message):
        # each matrix also fails every later check
        _raises_exactly(message, DensityMatrix, matrix)

    def test_purity_above_one(self):
        # every eigenvalue and the trace sit inside their 1e-10 tolerances,
        # yet tr(rho^2) = 1 + 1.8e-9 exceeds the purity bound
        m = np.diag([1.0 + 9e-10] + [-0.9e-10] * 9)
        with pytest.raises(ValidationError) as info:
            DensityMatrix(m)
        assert re.fullmatch(
            r"purity 1\.0000000018\d* outside \[1/dim, 1\] for dim 10", str(info.value)
        )


class TestFirstAbove:
    @pytest.mark.parametrize("values, index", [
        ([0.0, 2.0, 3.0], 1),
        ([0.0, np.nan, 3.0], 1),
        ([0.0, 1.0, -np.inf], None),
    ], ids=["above", "nan", "none"])
    def test_first_entry_above_tol_or_nan(self, values, index):
        assert _first_above(np.array(values), 1.0) == index


class TestDensityStack:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_single_draw_is_random_density_matrix(self, dim):
        one = random_density_matrices(1, dim, np.random.default_rng(3))
        assert np.array_equal(one[0], random_density_matrix(dim, np.random.default_rng(3)).matrix)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stack_is_sequential_draws(self, dim):
        rng = np.random.default_rng(4)
        sequential = [random_density_matrix(dim, rng).matrix for _ in range(5)]
        assert np.array_equal(random_density_matrices(5, dim, np.random.default_rng(4)),
                              np.stack(sequential))


class TestBornWeights:
    def test_balanced_superposition(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        w = born_weights(plus_state(), obs)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_eigenstate_is_deterministic(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        w = born_weights(basis_state(2, 0), obs)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_amplitudes_square_to_weights(self):
        # |psi> = sqrt(.8)|0> + e^{i phi} sqrt(.2)|1>, any phase
        psi = np.array([np.sqrt(0.8), np.exp(1.3j) * np.sqrt(0.2)])
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        w = born_weights(pure_state(psi), obs)
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)

    def test_dim_mismatch(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(DimensionMismatchError):
            born_weights(maximally_mixed(3), obs)

    def test_weights_are_a_read_only_distribution(self, rng):
        obs = spectral_decompose(np.diag([2.0, 2.0, -1.0, 0.5]))  # 3 outcomes
        for _ in range(20):
            w = born_weights(random_density_matrix(4, rng), obs)
            assert w.shape == (3,) and w.dtype == np.float64
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-15)
            assert not w.flags.writeable


class TestExpectationVariance:
    def test_symmetric_weights(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        rho = plus_state()
        assert expectation(rho, obs) == pytest.approx(0.0, abs=1e-12)
        assert variance(rho, obs) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        rho = basis_state(2, 0)
        assert expectation(rho, obs) == pytest.approx(1.0, abs=1e-12)
        assert variance(rho, obs) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_weights(self):
        # p = (0.8, 0.2) on a = (1, -1): mean 0.6, second moment 1, var 0.64
        psi = np.array([np.sqrt(0.8), np.sqrt(0.2)])
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        rho = pure_state(psi)
        assert expectation(rho, obs) == pytest.approx(0.6, abs=1e-12)
        assert variance(rho, obs) == pytest.approx(0.64, abs=1e-12)

    def test_spectral_sum_matches_direct_trace(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            obs = spectral_decompose(random_hermitian(dim, rng))
            rho = random_density_matrix(dim, rng)
            direct = float(np.trace(rho.matrix @ obs.matrix()).real)
            assert expectation(rho, obs) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("offset, rel", [(0.0, 1e-12), (1e6, 1e-9), (1e8, 1e-7)])
    def test_variance_keeps_its_digits_on_an_offset_spectrum(self, offset, rel):
        # p = (0.37, 0.63) on a = (0.3, 1.7) + offset: var = p0 p1 1.4^2 at any
        # offset; sum p a^2 - mean^2 gave 0.456787 at 1e6 and 2.0 at 1e8
        obs = spectral_decompose(np.diag([0.3, 1.7]) + offset * np.eye(2))
        rho = DensityMatrix(np.diag([0.37, 0.63]))
        assert variance(rho, obs) == pytest.approx(0.37 * 0.63 * 1.4**2, rel=rel)

    def test_variance_nonnegative(self, rng):
        for _ in range(50):
            obs = spectral_decompose(random_hermitian(3, rng))
            assert variance(random_density_matrix(3, rng), obs) >= 0.0

    def test_variance_past_float64(self):
        # an eigenstate of 1e308 sigma_z has variance 0, not 0 * inf = NaN; |+>
        # has (1e308)^2, inf; neither warns
        obs = spectral_decompose(1e308 * pauli("z"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert variance(basis_state(2, 0), obs) == 0.0
            assert variance(plus_state(), obs) == np.inf


class TestPurityAndFidelity:
    def test_pure_state_purity_one(self):
        assert purity(plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert purity(maximally_mixed(2)) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_mixture(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        assert purity(rho) == pytest.approx(0.68, abs=1e-12)  # 0.64 + 0.04

    def test_fidelity_of_state_with_itself_pure(self):
        assert overlap_fidelity(plus_state(), plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert overlap_fidelity(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_plus_against_dephased(self):
        rho_post = DensityMatrix(np.diag([0.5, 0.5]))
        assert overlap_fidelity(plus_state(), rho_post) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_in_arguments(self, rng):
        a = random_density_matrix(3, rng)
        b = random_density_matrix(3, rng)
        assert overlap_fidelity(a, b) == pytest.approx(overlap_fidelity(b, a), abs=1e-14)

    def test_fidelity_with_itself_is_purity_exactly(self, rng):
        # same floating-point expression, so equality is exact
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            assert overlap_fidelity(rho, rho) == purity(rho)


class TestEvolve:
    def test_identity_leaves_state_alone(self):
        rho = plus_state()
        out = evolve(rho, np.eye(2))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_half_period_flip(self):
        # exp(-i sigma_x pi/2) = -i sigma_x, which swaps |0> and |1>
        u = propagator(pauli("x"), np.pi / 2)
        np.testing.assert_allclose(u, -1j * pauli("x"), atol=1e-12)
        out = evolve(basis_state(2, 0), u)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_propagator_is_unitary(self, rng):
        h = random_hermitian(4, rng)
        u = propagator(h, 0.7)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_purity_preserved_for_random_pairs(self, rng):
        for _ in range(100):
            rho = random_density_matrix(3, rng)
            u = random_unitary(3, rng)
            assert purity(evolve(rho, u)) == pytest.approx(purity(rho), abs=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError, match="unitary"):
            evolve(plus_state(), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_nan_unitary_rejected(self):
        # a NaN defect compares false against the tolerance, and fails
        with pytest.raises(ValidationError, match="not unitary"):
            evolve(plus_state(), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, 1e200])
    def test_infinite_unitary_rejected_without_a_warning(self, entry):
        # inf * 0 in U^dagger U makes the defect NaN, and 1e200 squared
        # overflows; either is refused, with no numpy RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not unitary"):
                evolve(plus_state(), np.array([[entry, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("h, t", [
        (pauli("x"), np.nan),
        (pauli("x"), np.inf),
        (pauli("x"), -np.inf),
        (np.zeros((2, 2)), np.inf),  # 0 * inf is NaN
        (pauli("x"), 1e308 - -1e308),  # a gap that overflows float64
    ], ids=["nan", "inf", "-inf", "zero-h-inf", "overflowed-gap"])
    def test_propagator_refuses_non_finite_phases(self, h, t):
        # no numpy warning on the way: the tests turn a RuntimeWarning into an error
        with pytest.raises(ValidationError, match=r"exp\(-i H t\) needs finite phases E t"):
            propagator(h, t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    def test_propagator_over_times_is_each_scalar_call(self, rng, dim):
        # a stack of one eigendecomposition, each slice bit for bit the
        # scalar call, which is bit for bit exp(-i H t) formed from eigh alone
        h = random_hermitian(dim, rng)
        times = [0.0, 0.7, -1.3, 0.7, 1e-300, 123.456, 1e308 / (4 * dim)]
        stack = propagator(h, times)
        assert stack.shape == (len(times), dim, dim)
        evals, evecs = np.linalg.eigh(h)
        for t, u in zip(times, stack):
            one = propagator(h, t)
            assert one.shape == (dim, dim)
            want = (evecs * np.exp(-1j * (evals * t))) @ evecs.conj().T
            assert one.tobytes() == u.tobytes() == want.tobytes()
        assert propagator(h, np.array(times[1:2])).tobytes() == stack[1].tobytes()
        assert propagator(h, []).shape == (0, dim, dim)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("times, named", [
        ([1.0, np.inf, np.nan], "inf"),
        ([np.nan, np.inf], "nan"),
        ([0.5, 1e308 - -1e308, -np.inf], "inf"),
        ([1.0, 1e308, 2.0], "1e+308"),  # a finite t whose phase E t overflows
    ], ids=["inf", "nan-first", "overflowed-gap", "overflowed-phase"])
    def test_propagator_over_times_names_the_first_refused(self, times, named):
        with pytest.raises(ValidationError) as exc:
            propagator(2.0 * pauli("x"), times)
        assert str(exc.value) == (f"exp(-i H t) needs finite phases E t, got t = {named} "
                                  "and largest |E| = 2")

    def test_propagator_takes_any_finite_phase(self):
        u = propagator(0.5 * pauli("x"), 1e308)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(maximally_mixed(3), np.eye(2))


class TestStateConstructors:
    @pytest.mark.parametrize("index, message", [
        (5, "index must be < dim = 2, got 5"),
        (-1, "index must be >= 0, got -1"),
        (1.0, "index must be an integer, got 1.0"),
        (True, "index must be an integer, got True"),
    ], ids=["past-dim", "negative", "float", "bool"])
    def test_basis_index_is_refused(self, index, message):
        # 5 raised an IndexError and -1 gave |1>
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            basis_state(2, index)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_basis_state_is_its_projector(self, dim):
        for index in range(dim):
            assert np.array_equal(basis_state(dim, index).matrix,
                                  np.diag(np.eye(dim)[index]).astype(complex))

    @pytest.mark.parametrize("amplitudes, norm", [
        ([np.nan, 1.0], "nan"), ([np.inf, 1.0], "inf"), ([1e200, -np.inf], "inf"),
        ([0.0, 0.0], "0.0"), ([], "0.0"),
    ], ids=["nan", "inf", "inf-beside-large", "zero", "empty"])
    def test_pure_state_refuses_without_a_warning(self, amplitudes, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=f"^state vector must be finite and nonzero, got norm {norm}$"):
                pure_state(amplitudes)

    @pytest.mark.parametrize("amplitudes, want", [
        ([1e200, 1e200], [1.0, 1.0]), ([1e-200, 1e-200], [1.0, 1.0]),
        ([1.5e308, -1.5e308], [1.0, -1.0]), ([5e-324, 5e-324], [1.0, 1.0]),
        ([1e300, 1e300j], [1.0, 1.0j]), ([1e300, 1e-300], [1.0, 0.0]),
    ], ids=["large", "small", "near-max", "subnormal", "complex", "wide"])
    def test_pure_state_normalises_any_finite_scale(self, amplitudes, want):
        # the norm of these overflows or underflows float64; 1e200 warned and
        # was refused as norm inf, 1e-200 refused as norm 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pure_state(amplitudes).matrix
        np.testing.assert_allclose(got, pure_state(want).matrix, rtol=0, atol=1e-15)

    def test_pure_state_keeps_the_bits_of_a_unit_scale_vector(self, rng):
        # the scaling is by a power of two, so a vector whose norm is finite and
        # normal normalises to the same bits as v / |v| without it
        for dim in (1, 2, 3, 5, 8):
            for scale in (1e-3, 1.0, 7.5, 1e5):
                v = scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
                u = v / np.linalg.norm(v)
                assert np.array_equal(pure_state(v).matrix, np.outer(u, u.conj()))


class TestDensityMatrixValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_must_be_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_must_be_positive(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_random_pure_states_are_valid(self, rng):
        for dim in (2, 3, 5):
            rho = random_pure_state(dim, rng)
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_values_are_immutable(self):
        rho = plus_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0
