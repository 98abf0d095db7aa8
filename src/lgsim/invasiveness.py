"""Invasiveness metrics and the wasted-resource accounting rule.

Two measures of how much a measurement disturbed a state, both 0 when it
leaves the state as it was, pure or mixed:

    I1 = tr(rho_ini^2) - tr(rho_post^2)            (purity drop)
    I2 = tr(rho_ini^2) - tr(rho_ini rho_post)      (overlap drop)

Their closed forms are one sum over the observable's eigenspaces,

    B(M) = sum_ij M_ij ||P_i rho P_j||_F^2 = tr(rho Phi_M(rho)),

with Phi_M the eigenbasis map of ``measurement``; B of all ones is tr rho^2.
A strong measurement removes the coherence between eigenspaces, so
I1 = I2 = B(1 - delta) exactly. For a weak Gaussian-pointer measurement, to
leading order,

    I1 = B((a_i - a_j)^2) / (2 width^2)          I2 = I1 / 2,

which is Var(A) / width^2 for a pure state.

Note: one widely-quoted second-order display puts the factor 2 on I2
instead; differentiating the exact damping channel shows the overlap drop
carries half the purity drop, so I1 = 2 I2 as implemented here. The two
drops keep that ratio after a weak measurement only at leading order, so
it is not asserted anywhere.

Wastage rule: a measurement with order-unity invasiveness writes off its
whole ensemble; a gentle one writes off the fraction I of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_same_dim
from .measurement import PointerModel, _eigenbasis_map
from .quantum import DensityMatrix, Observable, overlap_fidelity, purity

ORDER_UNITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class InvasivenessReport:
    """Purity drop I1 and overlap drop I2 of one measurement."""

    i1: float
    i2: float


def measure_invasiveness(rho_ini: DensityMatrix, rho_post: DensityMatrix) -> InvasivenessReport:
    """Empirical invasiveness from an actual state pair."""
    require_same_dim(rho_ini.dim, rho_post.dim)
    p = purity(rho_ini)
    return InvasivenessReport(i1=p - purity(rho_post), i2=p - overlap_fidelity(rho_ini, rho_post))


def _coherence_sum(rho: DensityMatrix, obs: Observable, weights: np.ndarray) -> float:
    """B(weights) = tr(rho Phi(rho)), summed elementwise: both are Hermitian."""
    require_same_dim(rho.dim, obs.dim)
    return float((rho.matrix.conj() * _eigenbasis_map(rho.matrix, obs, weights)).real.sum())


def predicted_strong(rho_ini: DensityMatrix, obs: Observable) -> InvasivenessReport:
    """Closed-form invasiveness of a strong measurement: the coherence between
    eigenspaces it removes, I1 = I2 = B(1 - delta), exactly."""
    i = _coherence_sum(rho_ini, obs, 1.0 - np.eye(obs.n_outcomes))
    return InvasivenessReport(i1=i, i2=i)


def predicted_weak(
    rho_ini: DensityMatrix, obs: Observable, pm: PointerModel
) -> InvasivenessReport:
    """Leading-order invasiveness of a weak measurement,
    I1 = B((a_i - a_j)^2) / (2 width^2) and I2 = I1 / 2."""
    a = obs.eigenvalues
    i1 = _coherence_sum(rho_ini, obs, (a[:, None] - a[None, :]) ** 2) / (2.0 * pm.width**2)
    return InvasivenessReport(i1=i1, i2=i1 / 2.0)


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
