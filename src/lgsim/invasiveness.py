"""Invasiveness metrics and the wasted-resource accounting rule.

Two measures of how much a measurement disturbed a state:

    I1 = purity(ini) - purity(post)         (purity drop)
    I2 = 1 - tr(rho_ini rho_post)           (fidelity deficit)

For a strong measurement of a pure state both equal 1 - sum_i p_i^2.
For a weak Gaussian-pointer measurement, to leading order,

    I1 = Var(A) / width^2          I2 = I1 / 2.

Note: one widely-quoted second-order display puts the factor 2 on I2
instead; differentiating the exact damping channel shows the fidelity
deficit carries half the purity drop, so I1 = 2 I2 as implemented here.
Also, purity and fidelity agree after weak measurement only at leading
order, so that equality is not asserted anywhere.

Wastage rule: a measurement with order-unity invasiveness writes off its
whole ensemble; a gentle one writes off the fraction I of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PureStateRequiredError, ValidationError, require_same_dim
from .measurement import PointerModel
from .quantum import (
    DensityMatrix,
    Observable,
    born_weights,
    overlap_fidelity,
    purity,
    variance,
)

ORDER_UNITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class InvasivenessReport:
    """Purity/fidelity bookkeeping for one (initial, post) state pair."""

    purity_ini: float
    purity_post: float
    fidelity: float
    i1: float
    i2: float


def _report(purity_ini: float, purity_post: float, fidelity: float) -> InvasivenessReport:
    return InvasivenessReport(
        purity_ini=purity_ini,
        purity_post=purity_post,
        fidelity=fidelity,
        i1=purity_ini - purity_post,
        i2=1.0 - fidelity,
    )


def measure_invasiveness(rho_ini: DensityMatrix, rho_post: DensityMatrix) -> InvasivenessReport:
    """Empirical invasiveness from an actual state pair."""
    require_same_dim(rho_ini.dim, rho_post.dim)
    return _report(purity(rho_ini), purity(rho_post), overlap_fidelity(rho_ini, rho_post))


def _require_pure(rho: DensityMatrix, what: str) -> None:
    if not rho.is_pure():
        raise PureStateRequiredError(
            f"{what} closed form is stated for pure initial states; "
            f"got purity {purity(rho):.6f}. Use measure_invasiveness for mixed input."
        )


def predicted_strong(rho_ini: DensityMatrix, obs: Observable) -> InvasivenessReport:
    """Closed-form invasiveness of a strong measurement of a pure state.

    Post purity and fidelity both equal sum_i p_i^2, so I1 = I2 exactly.
    """
    require_same_dim(rho_ini.dim, obs.dim)
    _require_pure(rho_ini, "strong-measurement")
    p = born_weights(rho_ini, obs)
    s = float(np.dot(p, p))
    return _report(purity_ini=1.0, purity_post=s, fidelity=s)


def predicted_weak(
    rho_ini: DensityMatrix, obs: Observable, pm: PointerModel
) -> InvasivenessReport:
    """Leading-order invasiveness of a weak measurement of a pure state.

    I1 = Var(A)/width^2 (equivalently (1/2 width^2) sum_ij p_i p_j (a_i-a_j)^2),
    I2 = I1/2.
    """
    require_same_dim(rho_ini.dim, obs.dim)
    _require_pure(rho_ini, "weak-measurement")
    i1 = variance(rho_ini, obs) / pm.width**2
    return _report(purity_ini=1.0, purity_post=1.0 - i1, fidelity=1.0 - i1 / 2.0)


def wasted_resource(ensemble_size: int, invasiveness: float) -> int:
    """Members written off by one measurement of the given invasiveness.

    At or above ``ORDER_UNITY_THRESHOLD`` the whole ensemble is lost;
    below it, the fraction ``invasiveness`` of it (rounded to nearest).
    """
    if ensemble_size < 0:
        raise ValidationError(f"ensemble size must be >= 0, got {ensemble_size}")
    if not (0.0 <= invasiveness <= 1.0):
        raise ValidationError(f"invasiveness must lie in [0, 1], got {invasiveness!r}")
    if invasiveness >= ORDER_UNITY_THRESHOLD:
        return int(ensemble_size)
    return int(round(invasiveness * ensemble_size))
