import re
import warnings

import numpy as np
import pytest

from lgsim import (
    DensityMatrix,
    PointerModel,
    basis_state,
    expectation,
    pauli,
    plus_state,
    pure_state,
    sample_weak_readings,
    spectral_decompose,
    strong_channel,
    weak_channel_exact,
)
from lgsim.errors import (
    DimensionMismatchError,
    ValidationError,
    WeakRegimeWarning,
)
from lgsim.measurement import _weak_draw
from lgsim.protocol import _inverse_cdf
from lgsim.quantum import born_weights, purity
from lgsim.streams import substream

from conftest import random_density_matrix, random_hermitian


@pytest.fixture
def qubit_z():
    return spectral_decompose(pauli("z"))


def pm_exact(width):
    return PointerModel(width=width)


class TestStrongChannel:
    def test_plus_state_dephases(self, qubit_z):
        # P0 rho P0 + P1 rho P1 for rho = |+><+| is diag(1/2, 1/2)
        out = strong_channel(plus_state(), qubit_z)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-14)

    def test_eigenstate_is_fixed_point(self, qubit_z):
        rho = basis_state(2, 0)
        out = strong_channel(rho, qubit_z)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_idempotent(self, qubit_z, rng):
        rho = random_density_matrix(2, rng)
        once = strong_channel(rho, qubit_z)
        twice = strong_channel(once, qubit_z)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-14)

    def test_output_commutes_with_observable(self, rng):
        for _ in range(20):
            obs = spectral_decompose(random_hermitian(3, rng))
            out = strong_channel(random_density_matrix(3, rng), obs).matrix
            a = obs.matrix()
            assert np.max(np.abs(out @ a - a @ out)) < 1e-10

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(20):
            obs = spectral_decompose(random_hermitian(4, rng))
            out = strong_channel(random_density_matrix(4, rng), obs).matrix
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dim_mismatch(self, qubit_z):
        with pytest.raises(DimensionMismatchError):
            strong_channel(random_density_matrix(3, np.random.default_rng(0)), qubit_z)


class TestOutcomeCounts:
    """The outcome counts that ``_weak_draw`` draws first, one multinomial
    over the Born weights: a strong reading is the eigenvalue of its count."""

    def test_frequencies_follow_born_rule(self, qubit_z, rng):
        # binomial oracle: freq(+1) = 0.5 +- 5 * sqrt(0.25/n)
        n = 1_000_000
        counts, _ = _weak_draw(plus_state(), qubit_z, pm_exact(10.0), n, rng)
        freq = counts[0] / n
        assert abs(freq - 0.5) < 5 * np.sqrt(0.25 / n)

    def test_empirical_mean_matches_expectation(self, qubit_z, rng):
        rho = pure_state([np.sqrt(0.8), np.sqrt(0.2)])
        n = 200_000
        counts, _ = _weak_draw(rho, qubit_z, pm_exact(10.0), n, rng)
        readings = np.repeat(qubit_z.eigenvalues, counts)
        se = readings.std(ddof=1) / np.sqrt(n)
        assert abs(readings.mean() - expectation(rho, qubit_z)) < 5 * se

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_counts_are_the_streams_first_multinomial(self, dim, rng):
        # one multinomial draw of the outcome counts, in the observable's
        # order, from the same stream address
        obs = spectral_decompose(random_hermitian(dim, rng))
        rho = random_density_matrix(dim, rng)
        counts, _ = _weak_draw(rho, obs, pm_exact(10.0), 10_000, substream(12, 3, dim))
        want = substream(12, 3, dim).multinomial(10_000, born_weights(rho, obs))
        np.testing.assert_array_equal(counts, want)


def _searchsorted_draw(cum, u):
    """The earlier batch draw: first cumulative weight above u, clamped."""
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


class TestInverseCdf:
    @pytest.mark.parametrize(
        "weights",
        [
            [0.1] * 10,  # cumulative total 0.9999999999999999, short of 1
            [0.5, 0.0, 0.5],  # a zero weight repeats a cumulative value
            [0.0, 1.0],
            [1.0],
            [0.2, 0.3, 0.5],
        ],
        ids=["short-total", "zero-weight", "leading-zero", "one-outcome", "plain"],
    )
    def test_matches_searchsorted_at_every_boundary(self, weights, rng):
        cum = np.cumsum(weights)
        u = np.concatenate([
            cum,  # u equal to each cumulative weight
            np.nextafter(cum, -np.inf),
            # just above the total, and the largest uniform below 1
            [np.nextafter(cum[-1], np.inf), np.nextafter(1.0, 0.0), 0.0],
            rng.uniform(size=200),
        ])
        got = _inverse_cdf(cum[:, None], u)
        np.testing.assert_array_equal(got, _searchsorted_draw(cum, u))

    def test_one_table_per_draw(self, rng):
        # (d, m) tables: column k is compared with u[k] alone
        cum = np.cumsum(rng.dirichlet(np.ones(4), size=50), axis=1)
        u = np.concatenate([cum[:25, 1], rng.uniform(size=25)])
        want = [_searchsorted_draw(c, x) for c, x in zip(cum, u)]
        np.testing.assert_array_equal(_inverse_cdf(cum.T, u), want)

    @pytest.mark.parametrize("dim", [2, 255, 256, 257])
    def test_count_fits_its_byte_wide_type(self, dim, rng):
        # the count is reduced in the smallest unsigned type that holds dim,
        # one byte up to 255 outcomes; u above the total counts dim - 1
        cum = np.cumsum(rng.uniform(size=(dim, 40)), axis=0)
        u = np.concatenate([cum[dim // 2, :10], cum[-1, 10:20] * 2.0,
                            rng.uniform(0.0, cum[-1, 20:])])
        for table in (cum, cum[:, :1]):
            want = (table[:-1] <= u).sum(axis=0)
            np.testing.assert_array_equal(_inverse_cdf(table, u), want)
        assert _inverse_cdf(cum, u)[10:20].tolist() == [dim - 1] * 10


class TestEigenbasisMapReference:
    @pytest.mark.parametrize("dim, degenerate", [(2, False), (3, False), (5, False), (5, True)])
    def test_matches_pairwise_block_sum(self, dim, degenerate, rng):
        # sum_ij w[i, j] P_i rho P_j built block by block, as the channels
        # were first written; the batched form sums in another order
        h = random_hermitian(dim, rng)
        if degenerate:
            evals, vecs = np.linalg.eigh(h)
            h = (vecs * np.round(evals)) @ vecs.conj().T
        obs = spectral_decompose(0.5 * (h + h.conj().T))
        rho = random_density_matrix(dim, rng)
        gaps = (obs.eigenvalues[:, None] - obs.eigenvalues[None, :]) ** 2
        weights = np.exp(-gaps / (4.0 * 3.0**2))
        blocks = np.einsum("iab,bc,jcd->ijad", obs.projectors, rho.matrix, obs.projectors)
        want = np.einsum("ij,ijad->ad", weights, blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakRegimeWarning)
            got = weak_channel_exact(rho, obs, pm_exact(3.0)).matrix
        np.testing.assert_allclose(got, 0.5 * (want + want.conj().T), rtol=0, atol=1e-14)
        want = np.einsum("iiad->ad", blocks)
        np.testing.assert_allclose(strong_channel(rho, obs).matrix, want, rtol=0, atol=1e-14)


class TestChannelOutputsArePositive:
    @pytest.mark.filterwarnings("ignore::lgsim.WeakRegimeWarning")
    @pytest.mark.parametrize("channel", ["strong", "weak"])
    def test_outputs_are_positive_semidefinite_on_random_states(self, rng, channel):
        # with a narrow pointer too, where the weak map damps coherences most
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            obs = spectral_decompose(random_hermitian(dim, rng))
            rho = random_density_matrix(dim, rng)
            if channel == "strong":
                out = strong_channel(rho, obs)
            else:
                out = weak_channel_exact(rho, obs, pm_exact(float(rng.choice([0.1, 1.0, 10.0]))))
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12


class TestWeakChannelExact:
    def test_diagonal_state_unchanged(self, qubit_z):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        out = weak_channel_exact(rho, qubit_z, pm_exact(10.0))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_gaussian_damping_of_coherence(self, qubit_z):
        # overlap integral of two unit-width-apart Gaussians: exp(-4/(4*100))
        out = weak_channel_exact(plus_state(), qubit_z, pm_exact(10.0))
        assert out.matrix[0, 1].real == pytest.approx(0.5 * np.exp(-0.01), abs=1e-14)

    def test_infinite_width_limit(self, qubit_z):
        rho = plus_state()
        out = weak_channel_exact(rho, qubit_z, pm_exact(1e9))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_purity_never_increases(self, qubit_z, rng):
        for _ in range(20):
            rho = random_density_matrix(2, rng)
            out = weak_channel_exact(rho, qubit_z, pm_exact(10.0))
            assert purity(out) <= purity(rho) + 1e-12

    def test_trace_preserved(self, rng):
        obs = spectral_decompose(random_hermitian(3, rng))
        out = weak_channel_exact(random_density_matrix(3, rng), obs, pm_exact(50.0))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


class TestWeakChannelExpansion:
    """The exact channel against its order-2 expansion, which on sigma_z
    scales the coherences by 1 - x with x = 4 / (4 w^2) = 1 / w^2."""

    @staticmethod
    def order_two(rho, width):
        x = 1.0 / width**2
        return rho.matrix * np.array([[1.0, 1.0 - x], [1.0 - x, 1.0]])

    def test_taylor_remainder_bound(self, qubit_z, rng):
        # |exp(-x) - (1 - x)| <= x^2/2 with x <= diam^2/(4 w^2) gives
        # an entrywise gap bound of diam^4 / (32 w^4)
        width = 10.0
        bound = qubit_z.spectral_diameter**4 / (32.0 * width**4)
        for _ in range(20):
            rho = random_density_matrix(2, rng)
            exact = weak_channel_exact(rho, qubit_z, pm_exact(width))
            assert np.max(np.abs(exact.matrix - self.order_two(rho, width))) <= bound

    def test_gap_falls_off_as_fourth_power(self, qubit_z):
        widths = np.array([10.0, 20.0, 40.0, 80.0])
        gaps = []
        for w in widths:
            exact = weak_channel_exact(plus_state(), qubit_z, pm_exact(w))
            gaps.append(np.max(np.abs(exact.matrix - self.order_two(plus_state(), w))))
        slope = np.polyfit(np.log(widths), np.log(gaps), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.1)


class TestWeakRegimeGuardrail:
    def test_narrow_pointer_warns_but_runs(self, qubit_z):
        with pytest.warns(WeakRegimeWarning):
            out = weak_channel_exact(plus_state(), qubit_z, pm_exact(1.0))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12

    def test_below_weak_regime_warns_once(self, qubit_z):
        # x = 4 / (4 * 2.5^2) = 0.16: the width is below 5 x diameter 2, and
        # the weak-regime warning is the only one
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            out = weak_channel_exact(plus_state(), qubit_z, pm_exact(2.5))
        assert [w.category for w in record] == [WeakRegimeWarning]
        assert out.matrix[0, 1].real == pytest.approx(0.5 * np.exp(-0.16), abs=1e-14)

    def test_boundary_width_does_not_warn(self, qubit_z, recwarn):
        weak_channel_exact(plus_state(), qubit_z, pm_exact(10.0))  # 5 x diameter exactly
        assert not [w for w in recwarn if issubclass(w.category, WeakRegimeWarning)]


class TestWeakSample:
    def test_single_branch_pointer_distribution(self, qubit_z, rng):
        # all weight on a = +1: readings ~ Normal(1, width^2/2 = 50)
        n = 200_000
        readings = sample_weak_readings(basis_state(2, 0), qubit_z, pm_exact(10.0), n, rng)
        assert abs(readings.mean() - 1.0) < 5 * np.sqrt(50.0 / n)
        assert readings.var(ddof=1) == pytest.approx(50.0, rel=0.02)

    def test_mixture_moments(self, qubit_z, rng):
        # |+> at width 10: mean 0, variance 50 + 1 = 51
        n = 200_000
        readings = sample_weak_readings(plus_state(), qubit_z, pm_exact(10.0), n, rng)
        assert abs(readings.mean()) < 5 * np.sqrt(51.0 / n)
        assert readings.var(ddof=1) == pytest.approx(51.0, rel=0.02)

    def test_dim_mismatch(self, qubit_z):
        # refused before anything is drawn from the stream
        rng = substream(13, 0, 0)
        with pytest.raises(DimensionMismatchError):
            sample_weak_readings(basis_state(3, 0), qubit_z, pm_exact(10.0), 10, rng)
        assert rng.random() == substream(13, 0, 0).random()

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_is_refused_before_any_draw(self, qubit_z, n):
        rng = substream(13, 0, 0)
        with pytest.raises(ValidationError, match="n must be >= 1"):
            sample_weak_readings(plus_state(), qubit_z, pm_exact(10.0), n, rng)
        assert rng.random() == substream(13, 0, 0).random()

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True],
                             ids=["2.5", "3.0", "np.float64", "bool"])
    def test_non_integer_n_is_refused_before_any_draw(self, qubit_z, n):
        rng = substream(13, 0, 0)
        with pytest.raises(ValidationError, match="n must be an integer"):
            sample_weak_readings(plus_state(), qubit_z, pm_exact(10.0), n, rng)
        assert rng.random() == substream(13, 0, 0).random()


class TestPointerModelValidation:
    # True once passed as width 1, and "10" raised a TypeError
    @pytest.mark.parametrize("width", [0.0, True, "10", 10 + 0j],
                             ids=["zero", "bool", "str", "complex"])
    def test_width_must_be_positive(self, width):
        message = f"pointer width must be positive, got {width!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PointerModel(width=width)

    @pytest.mark.parametrize("width", [1e-170, 1e-101, 1.01e100, 1e153, 1e200, np.inf])
    def test_width_outside_the_range_is_rejected(self, width):
        with pytest.raises(ValidationError, match=r"must lie in \[1e-100, 1e\+100\]"):
            PointerModel(width=width)

    def test_takes_no_truncation(self):
        # the exact channel is the only weak map
        with pytest.raises(TypeError):
            PointerModel(width=10.0, truncation="exact")

    def test_position_variance_is_half_width_squared(self):
        assert PointerModel(width=10.0).position_variance == 50.0
