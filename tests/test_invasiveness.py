import numpy as np
import pytest

from lgsim import (
    DensityMatrix,
    PointerModel,
    basis_state,
    born_weights,
    maximally_mixed,
    measure_invasiveness,
    overlap_fidelity,
    plus_state,
    predicted_strong,
    predicted_weak,
    pure_state,
    purity,
    spectral_decompose,
    strong_channel,
    variance,
    wasted_resource,
    weak_channel_exact,
)
from lgsim.errors import DimensionMismatchError, ValidationError

from conftest import random_density_matrix, random_hermitian, random_pure_state


@pytest.fixture
def qubit_z():
    return spectral_decompose(np.diag([1.0, -1.0]))


class TestMeasureInvasiveness:
    def test_untouched_pure_state(self):
        rho = plus_state()
        rep = measure_invasiveness(rho, rho)
        assert rep.i1 == pytest.approx(0.0, abs=1e-12)
        assert rep.i2 == pytest.approx(0.0, abs=1e-12)

    def test_fully_dephased_plus_state(self):
        rep = measure_invasiveness(plus_state(), DensityMatrix(np.diag([0.5, 0.5])))
        assert rep.i1 == pytest.approx(0.5, abs=1e-12)
        assert rep.i2 == pytest.approx(0.5, abs=1e-12)

    def test_weak_damping_closed_form(self, qubit_z):
        # coherence keeps exp(-0.01): purity drop (1 - e^{-0.02})/2,
        # overlap drop (1 - e^{-0.01})/2
        post = weak_channel_exact(plus_state(), qubit_z, PointerModel(width=10.0))
        rep = measure_invasiveness(plus_state(), post)
        assert rep.i1 == pytest.approx((1 - np.exp(-0.02)) / 2, abs=1e-12)
        assert rep.i2 == pytest.approx((1 - np.exp(-0.01)) / 2, abs=1e-12)

    def test_report_fields_consistent(self, qubit_z, rng):
        # purity drop and overlap drop, for pure and mixed input
        for rho in (plus_state(), random_density_matrix(2, rng)):
            post = strong_channel(rho, qubit_z)
            rep = measure_invasiveness(rho, post)
            assert rep.i1 == purity(rho) - purity(post)
            assert rep.i2 == purity(rho) - overlap_fidelity(rho, post)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measure_invasiveness(plus_state(), maximally_mixed(3))


class TestPredictedStrong:
    def test_eigenstate_not_disturbed(self, qubit_z):
        rep = predicted_strong(basis_state(2, 0), qubit_z)
        assert rep.i1 == 0.0 and rep.i2 == 0.0

    def test_balanced_weights(self, qubit_z):
        rep = predicted_strong(plus_state(), qubit_z)
        assert rep.i1 == pytest.approx(0.5, abs=1e-15)  # 1 - (0.25 + 0.25)
        assert rep.i2 == rep.i1

    def test_skewed_weights(self, qubit_z):
        rep = predicted_strong(pure_state([np.sqrt(0.8), np.sqrt(0.2)]), qubit_z)
        assert rep.i1 == pytest.approx(0.32, abs=1e-12)  # 1 - (0.64 + 0.04)

    def test_maximally_mixed_not_disturbed(self, qubit_z):
        rho = maximally_mixed(2)
        for rep in (predicted_strong(rho, qubit_z),
                    measure_invasiveness(rho, strong_channel(rho, qubit_z))):
            assert rep.i1 == 0.0 and rep.i2 == 0.0

    def test_matches_measurement_exactly(self, rng):
        # closed form against the channel, at float precision, for any state
        for draw_state in (random_pure_state, random_density_matrix):
            for dim in (2, 3):
                for _ in range(50):
                    obs = spectral_decompose(random_hermitian(dim, rng))
                    rho = draw_state(dim, rng)
                    meas = measure_invasiveness(rho, strong_channel(rho, obs))
                    pred = predicted_strong(rho, obs)
                    assert abs(meas.i1 - pred.i1) < 1e-12
                    assert abs(meas.i2 - pred.i2) < 1e-12


class TestPredictedWeak:
    def test_balanced_qubit(self, qubit_z):
        rep = predicted_weak(plus_state(), qubit_z, PointerModel(width=10.0))
        assert rep.i1 == pytest.approx(0.01, abs=1e-15)   # Var = 1
        assert rep.i2 == pytest.approx(0.005, abs=1e-15)  # I1 / 2

    def test_eigenstate_not_disturbed(self, qubit_z):
        rep = predicted_weak(basis_state(2, 0), qubit_z, PointerModel(width=10.0))
        assert rep.i1 == 0.0 and rep.i2 == 0.0

    def test_maximally_mixed_not_disturbed(self, qubit_z):
        rho, pm = maximally_mixed(2), PointerModel(width=10.0)
        for rep in (predicted_weak(rho, qubit_z, pm),
                    measure_invasiveness(rho, weak_channel_exact(rho, qubit_z, pm))):
            assert rep.i1 == 0.0 and rep.i2 == 0.0

    def test_pure_state_form_is_variance_over_width_squared(self, rng):
        for dim in (2, 3, 5):
            for _ in range(20):
                obs = spectral_decompose(random_hermitian(dim, rng))
                rho = random_pure_state(dim, rng)
                pm = PointerModel(width=float(rng.uniform(1.0, 100.0)))
                rep = predicted_weak(rho, obs, pm)
                assert rep.i1 == pytest.approx(variance(rho, obs) / pm.width**2, rel=1e-14)
                assert rep.i2 == rep.i1 / 2.0

    def test_double_sum_equals_twice_variance(self, qubit_z):
        # brute-force sum_ij p_i p_j (a_i - a_j)^2 for p = (.8, .2), a = (1, -1)
        rho = pure_state([np.sqrt(0.8), np.sqrt(0.2)])
        p = born_weights(rho, qubit_z)
        a = qubit_z.eigenvalues
        dsum = sum(
            p[i] * p[j] * (a[i] - a[j]) ** 2
            for i in range(len(a))
            for j in range(len(a))
        )
        assert dsum == pytest.approx(1.28, abs=1e-12)  # 2 * 0.64
        assert dsum == pytest.approx(2 * variance(rho, qubit_z), abs=1e-12)

    def test_double_sum_identity_random_inputs(self, rng):
        for draw_state in (random_pure_state, random_density_matrix):
            for _ in range(50):
                dim = int(rng.integers(2, 5))
                obs = spectral_decompose(random_hermitian(dim, rng))
                rho = draw_state(dim, rng)
                p = born_weights(rho, obs)
                a = obs.eigenvalues
                dsum = float(np.einsum("i,j,ij->", p, p, (a[:, None] - a[None, :]) ** 2))
                assert dsum == pytest.approx(2 * variance(rho, obs), abs=1e-12)


class TestWeakConsistency:
    def test_deficit_coefficient_stable_in_width(self, qubit_z):
        # |measured - predicted| ~ C / width^4 with C stable across widths
        rho = plus_state()
        coeffs = []
        for width in (10.0, 20.0, 40.0):
            pm = PointerModel(width=width)
            meas = measure_invasiveness(rho, weak_channel_exact(rho, qubit_z, pm))
            pred = predicted_weak(rho, qubit_z, pm)
            coeffs.append(abs(meas.i1 - pred.i1) * width**4)
        assert max(coeffs) / min(coeffs) < 1.05

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_mixed_state_remainder_is_order_width_minus_two(self, rng, dim):
        # (1 - measured / predicted) * width^2 is the same at every width
        for _ in range(5):
            obs = spectral_decompose(random_hermitian(dim, rng))
            rho = random_density_matrix(dim, rng)
            coeffs = []
            for factor in (40.0, 80.0, 160.0):
                pm = PointerModel(width=factor * obs.spectral_diameter)
                meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pm))
                pred = predicted_weak(rho, obs, pm)
                coeffs.append((1.0 - meas.i1 / pred.i1) * pm.width**2)
            assert min(coeffs) > 0 and max(coeffs) / min(coeffs) < 1.01

    def test_ratio_approaches_two(self, qubit_z):
        rho = plus_state()
        pm = PointerModel(width=100.0)
        meas = measure_invasiveness(rho, weak_channel_exact(rho, qubit_z, pm))
        assert meas.i1 / meas.i2 == pytest.approx(2.0, rel=0.01)


class TestWastedResource:
    def test_order_unity_invasiveness_wastes_everything(self):
        assert wasted_resource(5000, 0.5) == 5000

    def test_small_invasiveness_wastes_fraction(self):
        assert wasted_resource(250_000, 0.01) == 2500

    def test_zero_invasiveness_wastes_nothing(self):
        assert wasted_resource(123_456, 0.0) == 0

    def test_threshold_boundary_is_inclusive(self):
        assert wasted_resource(1000, 0.1) == 1000
        assert wasted_resource(1000, 0.0999) == 100

    def test_invasiveness_range_enforced(self):
        with pytest.raises(ValidationError):
            wasted_resource(100, 1.5)
        with pytest.raises(ValidationError):
            wasted_resource(100, -0.1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            wasted_resource(-1, 0.5)
