"""Projective (strong) and Gaussian-pointer (weak) measurement channels.

A strong measurement dephases the state in the observable's eigenbasis,
``rho -> sum_i P_i rho P_i``, and every sampled pointer reading is an
eigenvalue. A weak measurement couples the system to a broad Gaussian
pointer whose position distribution has variance ``width^2 / 2`` per
branch; tracing the pointer out damps eigenbasis coherences,

    rho_ij -> rho_ij * exp(-(a_i - a_j)^2 / (4 width^2)),

the one weak map lgsim has: every run uses it, and verify fits its
disturbance against the closed forms of ``invasiveness.predicted_weak``.
Pointer readings follow the mixture sum_i p_i Normal(a_i, width^2/2): same
mean as the strong case, variance inflated by width^2/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WeakRegimeWarning, require_same_dim
from .quantum import DensityMatrix, Observable, born_weights
from .streams import aligned_empty

MODE_STRONG = "strong"
MODE_WEAK = "weak"

# width below this multiple of the spectral diameter draws a weak-regime warning
WEAK_REGIME_FACTOR = 5.0
# the widths a pointer may have: width^2 and a reading's square stay finite
# and nonzero in float64 for observables of unit scale
WIDTH_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class PointerModel:
    """Gaussian pointer apparatus, fixed by its width parameter.

    ``width`` is the dispersion parameter of the apparatus state; the
    observed per-branch pointer position variance is ``width**2 / 2``.
    """

    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValidationError(f"pointer width must be positive, got {self.width!r}")
        lo, hi = WIDTH_RANGE
        if not lo <= self.width <= hi:
            raise ValidationError(f"pointer width must lie in [{lo:g}, {hi:g}], got {self.width!r}")

    @property
    def position_variance(self) -> float:
        return self.width**2 / 2.0

    def in_weak_regime(self, obs: Observable) -> bool:
        """True when the width comfortably exceeds the spectral diameter."""
        return self.width >= WEAK_REGIME_FACTOR * obs.spectral_diameter


def _warn_if_not_weak(pm: PointerModel, obs: Observable, stacklevel: int = 3) -> None:
    """Warn at the frame ``stacklevel`` above this one, the public caller's."""
    if not pm.in_weak_regime(obs):
        warnings.warn(
            f"pointer width {pm.width} is below {WEAK_REGIME_FACTOR} x spectral "
            f"diameter {obs.spectral_diameter}; weak-limit formulas degrade here",
            WeakRegimeWarning,
            stacklevel=stacklevel,
        )


def _eigenbasis_map(rho: np.ndarray, obs: Observable, weights: np.ndarray) -> np.ndarray:
    """Apply rho -> sum_ij w[i, j] P_i rho P_j for a real symmetric weight table
    to each matrix of an (..., d, d) stack.

    Computed as sum_i P_i rho Q_i with Q_i = sum_j w[i, j] P_j, batched over
    the stack and the n outcomes, and returned as Hermitian matrices: the map
    is positive, and its outputs states, only for some weight tables.
    """
    projs = obs.projectors
    q = (weights @ projs.reshape(len(projs), -1)).reshape(projs.shape)
    out = (projs @ rho[..., None, :, :] @ q).sum(axis=-3)
    return 0.5 * (out + out.swapaxes(-1, -2).conj())


def strong_channel(rho: DensityMatrix, obs: Observable) -> DensityMatrix:
    """Unconditional post-measurement state sum_i P_i rho P_i."""
    require_same_dim(rho.dim, obs.dim)
    return DensityMatrix(_eigenbasis_map(rho.matrix, obs, np.eye(obs.n_outcomes)))


def _weak_damping(obs: Observable, pm: PointerModel) -> np.ndarray:
    """The exact weak channel's weight table exp(-(a_i - a_j)^2 / (4 width^2))."""
    a = obs.eigenvalues
    return np.exp(-((a[:, None] - a[None, :]) ** 2) / (4.0 * pm.width**2))


def weak_channel_exact(rho: DensityMatrix, obs: Observable, pm: PointerModel) -> DensityMatrix:
    """Unconditional weak post-state with the full Gaussian damping factors."""
    require_same_dim(rho.dim, obs.dim)
    _warn_if_not_weak(pm, obs)
    return DensityMatrix(_eigenbasis_map(rho.matrix, obs, _weak_damping(obs, pm)))


def sample_strong_readings(
    rho: DensityMatrix, obs: Observable, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized batch of n projective readings (no conditional states).

    The readings come grouped by outcome, in the observable's order: one
    multinomial draw of the outcome counts, each eigenvalue repeated as often
    as it was drawn. They are i.i.d. readings up to their order, so every
    statistic that ignores order has its exact law; callers to whom the order
    matters should shuffle them (``rng.permutation``).
    """
    require_same_dim(rho.dim, obs.dim)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return np.repeat(obs.eigenvalues, rng.multinomial(n, born_weights(rho, obs)))


def _weak_draw(rho, obs, pm, n, rng) -> tuple[np.ndarray, np.ndarray]:
    """``sample_weak_readings`` without its warning, with the outcome counts:
    a multinomial over the Born weights, then n aligned pointer normals, each
    outcome's slice shifted in place by its eigenvalue. Weak correlators and
    verify's sampler check draw from it."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    counts = rng.multinomial(n, born_weights(rho, obs))
    readings = rng.standard_normal(out=aligned_empty((n,)))
    readings *= np.sqrt(pm.position_variance)
    lo = 0
    for a_i, k in zip(obs.eigenvalues.tolist(), counts.tolist()):
        readings[lo:lo + k] += a_i
        lo += k
    return counts, readings


def sample_weak_readings(
    rho: DensityMatrix, obs: Observable, pm: PointerModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized batch of n weak pointer readings (no conditional states)."""
    _warn_if_not_weak(pm, obs)
    return _weak_draw(rho, obs, pm, n, rng)[1]
