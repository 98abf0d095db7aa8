import math

import numpy as np
import pytest

from lgsim import (
    BudgetInput,
    PointerModel,
    pauli,
    plus_state,
    sample_weak_readings,
    spectral_decompose,
    strong_subensemble,
    wastage_report,
)
from lgsim import budget
from lgsim.errors import ValidationError
from lgsim.streams import substream

M, K, DP, VAR = 10**6, 4, 10.0, 1.0


def report(m=M, k=K, dp=DP, var=VAR):
    return wastage_report(BudgetInput(m, k, dp, var))


def target(m, k, dp):
    # the report's eps_target, one weak measurement on the whole M/k subensemble
    return dp / math.sqrt(2.0 * m / k)


class TestErrorFormulas:
    def test_weak_error_both_benchmark(self):
        # delta_p / sqrt(M/k) = 10 / sqrt(250000)
        assert report().eps_weak_both == pytest.approx(0.02, abs=1e-15)

    def test_weak_error_scales_with_sqrt_k(self):
        assert report(k=8).eps_weak_both / report(k=4).eps_weak_both == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_doubling_m_divides_by_sqrt2(self):
        assert report(m=2 * M).eps_weak_both == pytest.approx(
            report().eps_weak_both / math.sqrt(2.0), rel=1e-12
        )

    def test_target_error_benchmark(self):
        assert report().eps_target == pytest.approx(0.0141421356, abs=1e-9)
        assert report().eps_target == target(M, K, DP)

    def test_target_is_sqrt2_below_both_weak(self):
        rep = report()
        assert rep.eps_target / rep.eps_weak_both == pytest.approx(1 / math.sqrt(2.0), rel=1e-12)

    def test_target_error_with_more_slices(self):
        assert report(k=8).eps_target == pytest.approx(0.02, abs=1e-15)


class TestSubensembleSizes:
    def test_benchmark_subensemble(self):
        # eps = sqrt(2)/100 exactly: var/eps^2 = 1/2e-4 = 5000
        assert strong_subensemble(VAR, target(M, K, DP)) == 5000

    def test_zero_variance_needs_nothing(self):
        assert strong_subensemble(0.0, 0.01) == 0

    def test_least_count_meeting_target(self):
        # sqrt(var / M_s) <= eps, and one member fewer misses it
        for var, eps in [(1.0, 0.0123), (0.25, 0.003), (2.5, 0.07), (0.7, 1e-3)]:
            ms = strong_subensemble(var, eps)
            assert math.sqrt(var / ms) <= eps * (1 + 1e-12)
            assert math.sqrt(var / (ms - 1)) > eps

    def test_two_routes_agree_at_benchmark(self):
        # var/eps^2 with eps = the target error equals (var/dp^2) * 2M/k
        direct = strong_subensemble(VAR, target(M, K, DP))
        assert direct == (VAR / DP**2) * (2 * M / K) == 5000

    def test_total_strong_ensemble_benchmark(self):
        assert report().total_strong_ensemble == 40_000  # 4 * 10^6 / 100

    def test_counts_above_1e12_are_not_rounded_down(self):
        # var/eps^2 lands one ulp from 10^14 and 2 * 10^12; a relative guard
        # of 1e-12 would take a whole member or more off either
        assert strong_subensemble(1.0, 1e-7) == 10**14
        assert report(m=4 * 10**14, k=4).total_strong_ensemble == 16 * 10**12  # 4 M / dp^2

    def test_count_off_an_integer_rounds_up(self):
        assert strong_subensemble(2.5, 1.0) == 3
        assert strong_subensemble(1e12 + 0.5, 1.0) == 10**12 + 1

    def test_overflowing_count_is_rejected(self):
        # Var/eps^2 = 1e300 / (1e-100)^2 is inf in float64, and round(inf) raises
        with pytest.raises(ValidationError, match=r"var_a 1e\+300, eps 1e-100"):
            strong_subensemble(1e300, 1e-100)
        with pytest.raises(ValidationError, match="var_a / eps"):
            wastage_report(BudgetInput(1000, 3, 1e-100, 1e300))

    def test_total_independent_of_k(self):
        assert report(k=4).total_strong_ensemble == report(k=8).total_strong_ensemble

    def test_total_small_fraction_in_weak_regime(self):
        for dp in (10.0, 20.0, 50.0):
            for var in (0.25, 1.0):
                assert report(dp=dp, var=var).total_strong_ensemble < M

    def test_formula_consistency_random_inputs(self, rng):
        for _ in range(1000):
            m = int(rng.integers(100, 10_000_000))
            k = int(rng.integers(3, 12))
            if m < 2 * k:
                continue
            dp = float(rng.uniform(0.5, 200.0))
            var = float(rng.uniform(0.0, 5.0))
            direct = report(m, k, dp, var).strong_subensemble
            alt = math.ceil((var / dp**2) * (2 * m / k) * (1 - 1e-12))
            assert abs(direct - alt) <= 1


class TestWastageReport:
    def test_benchmark_report(self):
        rep = wastage_report(BudgetInput(M, K, DP, VAR))
        assert rep.eps_weak_both == pytest.approx(0.02)
        assert rep.eps_target == pytest.approx(0.0141421356, abs=1e-9)
        assert rep.strong_subensemble == 5000
        assert rep.total_strong_ensemble == 40_000
        assert rep.waste_weak_per_measurement == 2500
        assert rep.waste_strong_per_measurement == 5000
        assert rep.waste_ratio_strong_over_weak == pytest.approx(2.0)
        assert rep.waste_total_weak_scheme == 4 * 2500
        assert rep.waste_total_strong_scheme == 40_000
        assert rep.strong_scheme_smaller

    def test_mtot_is_2k_times_ms_up_to_rounding(self):
        # M_tot is 2k M_s, the closed form rounded up per measurement, so the
        # strong scheme's total waste equals the members it needs
        for var, dp in [(1.0, 10.0), (0.25, 10.0), (0.7, 33.0)]:
            for k in (3, K):
                rep = wastage_report(BudgetInput(M, k, dp, var))
                assert rep.total_strong_ensemble == 2 * k * rep.strong_subensemble
                assert rep.total_strong_ensemble == rep.waste_total_strong_scheme
                assert rep.ensemble_ratio_strong_over_weak == rep.total_strong_ensemble / M

    def test_weak_subensemble_is_exact_ceiling(self):
        # M/k in float64 is 10^17, one below the members each weak
        # measurement gets; at I1 = 1 the whole subensemble is written off
        rep = wastage_report(BudgetInput(3 * 10**17 + 1, 3, 1.0, 1.0))
        assert rep.waste_weak_per_measurement == 10**17 + 1
        rep = wastage_report(BudgetInput(M + 1, K, 1.0, 1.0))
        assert rep.waste_weak_per_measurement == M // K + 1

    def test_qubit_like_bound(self):
        # (Delta A)^2 = 1/4 for a +-1/2-valued observable
        rep = wastage_report(BudgetInput(M, K, DP, 0.25))
        assert rep.waste_weak_per_measurement == 625  # (M/k) / (4 dp^2)
        assert rep.waste_strong_per_measurement == 1250
        assert rep.waste_ratio_strong_over_weak == pytest.approx(2.0)

    def test_zero_variance_zero_waste(self):
        rep = wastage_report(BudgetInput(M, K, DP, 0.0))
        assert rep.waste_weak_per_measurement == 0
        assert rep.waste_strong_per_measurement == 0
        assert rep.waste_total_weak_scheme == 0
        assert rep.waste_total_strong_scheme == 0
        assert rep.waste_ratio_strong_over_weak is None

    def test_i2_based_weak_waste_is_half(self):
        rep = wastage_report(BudgetInput(M, K, DP, VAR))
        assert rep.waste_weak_per_measurement_i2 == 1250

    def test_error_ratio_field(self):
        rep = wastage_report(BudgetInput(M, K, DP, VAR))
        assert rep.error_ratio_strong_over_weak == pytest.approx(math.sqrt(2.0) / DP)

    def test_error_ratio_identity(self):
        # strong error sqrt(var/n) over weak per-event error delta_p/sqrt(2n),
        # for any n, is the report's sqrt(2 var) / delta_p
        for var, n, dp in [(1.0, 5000, 10.0), (0.25, 777, 31.0), (2.5, 12, 4.0)]:
            rep = wastage_report(BudgetInput(M, K, dp, var))
            ratio = math.sqrt(var / n) / (dp / math.sqrt(2 * n))
            assert rep.error_ratio_strong_over_weak == pytest.approx(ratio, rel=1e-12)

    def test_dominance_flagged_when_pointer_too_narrow(self):
        # width <= 2 sqrt(var): the strong scheme no longer needs fewer members
        rep = wastage_report(BudgetInput(M, K, 1.5, VAR))
        assert not rep.strong_scheme_smaller
        assert rep.ensemble_ratio_strong_over_weak > 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError, match="pointer width"):
            BudgetInput(M, K, 0.0, VAR)
        with pytest.raises(ValidationError, match="2k"):
            BudgetInput(6, 4, DP, VAR)
        with pytest.raises(ValidationError, match="k must be"):
            BudgetInput(M, 2, DP, VAR)
        with pytest.raises(ValidationError, match="var_a"):
            BudgetInput(M, K, DP, -1.0)

    @pytest.mark.parametrize(
        "m, k, dp, message",
        [
            (M, 2, DP, "k must be >= 3, got 2"),
            (6, 4, DP, "ensemble size 6 cannot cover 2k = 8 measurements"),
            (M, K, 0.0, "pointer width must be positive, got 0.0"),
        ],
        ids=["k", "ensemble", "delta_p"],
    )
    def test_input_and_formulas_share_one_check(self, m, k, dp, message):
        with pytest.raises(ValidationError) as exc:
            BudgetInput(m, k, dp, VAR)
        assert str(exc.value) == message

    @pytest.mark.parametrize("dp", [0.0, -1.0, math.nan, 1e-170, 1e153, 1e200, math.inf])
    def test_width_rules_are_the_pointer_models(self, dp):
        with pytest.raises(ValidationError) as pointer:
            PointerModel(width=dp)
        with pytest.raises(ValidationError) as exc:
            BudgetInput(M, K, dp, VAR)
        assert str(exc.value) == str(pointer.value)

    def test_report_reads_the_validated_input(self, monkeypatch):
        # BudgetInput holds every input rule: a report on a built input
        # builds no pointer and rounds the strong subensemble once
        inp, want = BudgetInput(M, K, DP, VAR), report()
        calls = {"pointer": 0, "subensemble": 0}
        init, subensemble = PointerModel.__init__, budget.strong_subensemble

        def counting_init(self, *args, **kwargs):
            calls["pointer"] += 1
            init(self, *args, **kwargs)

        def counting_subensemble(*args):
            calls["subensemble"] += 1
            return subensemble(*args)

        monkeypatch.setattr(PointerModel, "__init__", counting_init)
        monkeypatch.setattr(budget, "strong_subensemble", counting_subensemble)
        assert wastage_report(inp) == want
        assert calls == {"pointer": 0, "subensemble": 1}


class TestMonteCarloValidation:
    """Realized estimation errors against the budgeted targets (qubit benchmark)."""

    def setup_method(self):
        self.obs = spectral_decompose(pauli("z"))
        self.rho = plus_state()  # <A> = 0, Var A = 1
        self.eps = report().eps_target

    def test_weak_rms_error_meets_target(self):
        # the weak measurement spends the whole M/k subensemble; its realized
        # error carries the full variance dp^2/2 + var, about 1% above eps
        n = M // K
        pm = PointerModel(width=DP)
        sq = []
        for r in range(200):
            readings = sample_weak_readings(self.rho, self.obs, pm, n, substream(777, 56, r))
            sq.append(readings.mean() ** 2)
        rms = math.sqrt(np.mean(sq))
        assert rms == pytest.approx(self.eps, rel=0.10)
