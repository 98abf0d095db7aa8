"""Ensemble-size and error budgeting for the two LG measurement schemes.

Start from a prepared ensemble of M members split over k series. The
weak-first scheme spends almost the whole M/k subensemble on each weak
measurement; with per-event pointer variance width^2/2 its mean carries
error eps = width / sqrt(2M/k) (had both measurements of a series been
weak, each would get only M/2k events and the error would be sqrt(2)
larger). An all-strong scheme hits that same eps with subensembles of
only M_s = Var(A)/eps^2 members per measurement, for a grand total of

    M_tot = 2k * M_s = 4 Var(A) M / width^2  << M   (when width > 2 sqrt(Var))

Wastage accounting (threshold rule): a strong measurement writes off its
whole M_s; a weak one writes off the fraction I1 = Var/width^2 of M/k.
At equal error the two figures differ by exactly a factor 2, so the
schemes waste comparable amounts while the strong one needs a far
smaller ensemble.

All member counts round up; a count within a few ulps of an integer is
that integer, so float dust does not bump an exact count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, require_count
from .invasiveness import wasted_resource
from .measurement import PointerModel


@dataclass(frozen=True)
class BudgetInput:
    """Knobs of the budget calculation; the one place they are validated."""

    ensemble_size: int            # M, total prepared members
    k: int                        # number of time slices / series
    delta_p: float                # pointer width of the weak apparatus
    var_a: float                  # observable variance in the prepared state

    def __post_init__(self):
        require_count(self.k, 3, "k")
        require_count(self.ensemble_size, -math.inf, "ensemble_size")
        if self.ensemble_size < 2 * self.k:
            raise ValidationError(
                f"ensemble size {self.ensemble_size} cannot cover 2k = {2 * self.k} measurements"
            )
        PointerModel(width=self.delta_p)  # the pointer's own width rules
        if not self.var_a >= 0:
            raise ValidationError(f"var_a must be >= 0, got {self.var_a!r}")
        eps = _target_error(self.ensemble_size, self.k, self.delta_p)
        if not 0.0 < eps < math.inf:
            raise ValidationError(
                "ensemble_size is too large: the error target eps = delta_p / "
                f"sqrt(2 ensemble_size / k) is {eps!r}, not a positive float64")


def _target_error(m: int, k: int, dp: float) -> float:
    """The weak-first scheme's error eps = dp / sqrt(2M/k), or 0.0 where
    2M/k passes the float64 range: its sqrt is then inf, or, for an M past
    that range, float(M) raises."""
    try:
        return dp / math.sqrt(2.0 * m / k)
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class BudgetReport:
    """Errors, ensemble demands and wastage for both schemes at equal accuracy."""

    eps_weak_both: float                  # weak error had both measurements been weak
    eps_target: float                     # the common error target (weak-first scheme)
    error_ratio_strong_over_weak: float   # strong/weak error at equal event count
    strong_subensemble: int               # M_s, members per strong measurement
    total_strong_ensemble: int            # M_tot = 2k * M_s
    ensemble_ratio_strong_over_weak: float  # M_tot / M
    strong_scheme_smaller: bool           # M_tot < M, i.e. width > 2 sqrt(var)
    waste_weak_per_measurement: int       # I1-based loss of one weak measurement
    waste_weak_per_measurement_i2: int    # same with the fidelity-based index
    waste_strong_per_measurement: int     # worst case: the whole M_s
    waste_total_weak_scheme: int          # k weak measurements
    waste_total_strong_scheme: int        # 2k strong measurements
    waste_ratio_strong_over_weak: float | None  # per-measurement ratio (2 at leading order); None when both vanish


def strong_subensemble(var_a: float, eps: float) -> int:
    """Members per strong measurement to reach error eps: Var(A)/eps^2, rounded up."""
    if not var_a >= 0:
        raise ValidationError(f"var_a must be >= 0, got {var_a!r}")
    if not (eps > 0):
        raise ValidationError(f"eps must be positive, got {eps!r}")
    x = var_a / eps**2
    if not math.isfinite(x):
        raise ValidationError(f"var_a / eps^2 overflows: var_a {var_a!r}, eps {eps!r}")
    return round(x) if abs(x - round(x)) <= 4 * math.ulp(x) else math.ceil(x)


def wastage_report(inp: BudgetInput) -> BudgetReport:
    """Full two-scheme comparison at the common error target; the formulas
    are the module docstring's, M_tot rounded up per measurement."""
    m, k, dp, var = inp.ensemble_size, inp.k, inp.delta_p, inp.var_a
    eps = _target_error(m, k, dp)
    subensemble = -(-m // k)  # M/k rounded up, exactly
    ms = strong_subensemble(var, eps)
    mtot = 2 * k * ms

    # leading-order indices; capped at 1 so the wastage rule stays total
    i1_weak = min(var / dp**2, 1.0)
    i2_weak = i1_weak / 2.0
    waste_weak = wasted_resource(subensemble, i1_weak)
    waste_weak_i2 = wasted_resource(subensemble, i2_weak)
    waste_strong = ms  # worst case: the whole subensemble

    return BudgetReport(
        eps_weak_both=dp / math.sqrt(m / k),
        eps_target=eps,
        error_ratio_strong_over_weak=math.sqrt(2.0 * var) / dp,
        strong_subensemble=ms,
        total_strong_ensemble=mtot,
        ensemble_ratio_strong_over_weak=mtot / m,
        strong_scheme_smaller=mtot < m,
        waste_weak_per_measurement=waste_weak,
        waste_weak_per_measurement_i2=waste_weak_i2,
        waste_strong_per_measurement=waste_strong,
        waste_total_weak_scheme=k * waste_weak,
        waste_total_strong_scheme=2 * k * waste_strong,
        waste_ratio_strong_over_weak=(waste_strong / waste_weak) if waste_weak else None,
    )
