"""Finite-dimensional quantum states and observables.

Observables carry an explicit spectral decomposition (eigenvalues in
non-increasing order with eigenspace projectors), density matrices are
validated on construction, and everything downstream works through Born
weights ``p_i = tr(rho P_i)``, expectations, purity ``tr(rho^2)`` and the
trace overlap ``tr(rho1 rho2)``.

All objects are immutable after construction and every function here is
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_same_dim

STRUCTURAL_TOL = 1e-10
EIGEN_GAP_TOL = 1e-9


def _as_complex_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _hermitian_error(name: str, asym: float, tol: float) -> ValidationError:
    return ValidationError(
        f"{name} is not Hermitian: max |A - A^dagger| = {asym:.3e} exceeds {tol:.0e}"
    )


def _check_hermitian(a: np.ndarray, name: str, tol: float = STRUCTURAL_TOL) -> None:
    asym = np.abs(a - a.T.conj()).max()
    if not asym <= tol:  # a NaN or infinite entry fails here too
        raise _hermitian_error(name, asym, tol)


def _first_above(values: np.ndarray, tol: float) -> int | None:
    """Index of the first entry above tol or NaN, or None."""
    bad = ~(values <= tol)
    i = int(bad.argmax())
    return i if bad[i] else None


def _freeze(a: np.ndarray) -> np.ndarray:
    # copy so freezing never flips writability on a caller-owned array
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Observable:
    """Hermitian observable given by its spectral data.

    ``eigenvalues`` are distinct and sorted non-increasing (the canonical
    order used for outcome sampling); ``projectors[i]`` is the orthogonal
    projector onto the corresponding eigenspace. Orthogonality,
    completeness and Hermiticity are enforced entrywise at 1e-10.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    def __post_init__(self):
        evals = np.asarray(self.eigenvalues, dtype=np.float64)
        projs = np.asarray(self.projectors, dtype=np.complex128)
        if evals.ndim != 1 or evals.size < 1:
            raise ValidationError("eigenvalues must be a non-empty 1-d array")
        if projs.ndim != 3 or projs.shape[0] != evals.size or projs.shape[1] != projs.shape[2]:
            raise ValidationError(
                f"projectors must have shape (n, dim, dim) with n = {evals.size}, "
                f"got {projs.shape}"
            )
        if (evals[1:] > evals[:-1]).any():
            raise ValidationError("eigenvalues must be in non-increasing order")
        dim = projs.shape[1]
        # each check runs over the whole (n, dim, dim) stack and names the
        # first failing projector, or pair (i, j) in row-major order
        asym = np.abs(projs - projs.transpose(0, 2, 1).conj()).max(axis=(1, 2))
        i = _first_above(asym, STRUCTURAL_TOL)
        if i is not None:
            raise _hermitian_error(f"projector {i}", asym[i], STRUCTURAL_TOL)
        for i, p in enumerate(projs):
            # P_i P_j - delta_ij P_i for every j: one batched product per row
            defect = p @ projs
            defect[i] -= p
            err = np.abs(defect).max(axis=(1, 2))
            j = _first_above(err, STRUCTURAL_TOL)
            if j is not None:
                raise ValidationError(
                    f"projectors {i},{j} violate orthogonality by {err[j]:.3e}"
                )
        total = projs.sum(axis=0)
        total.flat[:: dim + 1] -= 1.0  # minus the identity
        comp = np.abs(total).max()
        if comp > STRUCTURAL_TOL:
            raise ValidationError(f"projectors violate completeness by {comp:.3e}")
        object.__setattr__(self, "eigenvalues", _freeze(evals))
        object.__setattr__(self, "projectors", _freeze(projs))

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_diameter(self) -> float:
        """Largest minus smallest eigenvalue."""
        return float(self.eigenvalues[0] - self.eigenvalues[-1])

    def matrix(self) -> np.ndarray:
        """Reconstruct the operator as sum_i a_i P_i."""
        return np.tensordot(self.eigenvalues, self.projectors, axes=1)

    def is_dichotomic(self, tol: float = 1e-9) -> bool:
        """True when every eigenvalue is +1 or -1."""
        return bool(np.all(np.abs(np.abs(self.eigenvalues) - 1.0) <= tol))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix, "density matrix")
        _check_hermitian(m, "density matrix")
        tr = m.trace().real
        if abs(tr - 1.0) > STRUCTURAL_TOL:
            raise ValidationError(f"density matrix trace is {float(tr)!r}, not 1")
        evals = np.linalg.eigvalsh(m)  # ascending
        if evals[0] < -STRUCTURAL_TOL:
            raise ValidationError(
                f"density matrix has negative eigenvalue {evals[0]:.3e}"
            )
        # tr(rho^2) is the sum of squared eigenvalues of a Hermitian rho
        pur = float(evals @ evals)
        d = m.shape[0]
        if not (1.0 / d - 1e-9 <= pur <= 1.0 + 1e-9):
            raise ValidationError(
                f"purity {pur!r} outside [1/dim, 1] for dim {d}"
            )
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_pure(self, tol: float = 1e-8) -> bool:
        return purity(self) >= 1.0 - tol


@dataclass(frozen=True)
class SpectrumWeights:
    """Outcome probabilities over an observable's eigenvalues (canonical order)."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("probabilities must be a non-empty 1-d array")
        if p.min() < -STRUCTURAL_TOL:
            raise ValidationError(f"negative probability {p.min():.3e}")
        s = p.sum()
        if abs(s - 1.0) > STRUCTURAL_TOL:
            raise ValidationError(f"probabilities sum to {s!r}, not 1")
        object.__setattr__(self, "probabilities", _freeze(np.clip(p, 0.0, None)))


# ---------------------------------------------------------------------------
# constructors


def pure_state(amplitudes) -> DensityMatrix:
    """Density matrix |psi><psi| of a (possibly unnormalized) state vector."""
    v = np.asarray(amplitudes, dtype=np.complex128).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValidationError("state vector is zero")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()))


def basis_state(dim: int, index: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return DensityMatrix(np.outer(v, v.conj()))


def plus_state() -> DensityMatrix:
    """Qubit state (|0> + |1>)/sqrt(2)."""
    return pure_state([1.0, 1.0])


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def pauli(which: str) -> np.ndarray:
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }[which]


# ---------------------------------------------------------------------------
# operations


def spectral_decompose(hermitian, gap_tol: float = EIGEN_GAP_TOL) -> Observable:
    """Spectral decomposition of a Hermitian matrix into eigenspaces.

    Eigenvalues closer than ``gap_tol`` are merged into one eigenspace,
    so degenerate spectra yield rank>1 projectors instead of an arbitrary
    eigenvector split. Result is ordered by non-increasing eigenvalue.
    """
    h = _as_complex_matrix(hermitian, "operator")
    _check_hermitian(h, "operator")
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = evecs.T[order]  # row k is the eigenvector of evals[k]

    # an eigenspace starts wherever the gap to the previous eigenvalue is not
    # below gap_tol; its value is the mean of its members and its projector
    # the sum of their outer products |v><v|
    starts = np.flatnonzero(np.concatenate(([True], ~(evals[:-1] - evals[1:] < gap_tol))))
    merged_vals = np.add.reduceat(evals, starts) / np.add.reduceat(np.ones_like(evals), starts)
    projs = np.add.reduceat(vecs[:, :, None] * vecs.conj()[:, None, :], starts, axis=0)
    # symmetrize away eigh round-off so the Observable invariants hold exactly
    projs = 0.5 * (projs + projs.transpose(0, 2, 1).conj())
    return Observable(merged_vals, projs)


def born_weights(rho: DensityMatrix, obs: Observable) -> SpectrumWeights:
    """Outcome probabilities p_i = tr(rho P_i)."""
    require_same_dim(rho.dim, obs.dim)
    p = np.einsum("kij,ji->k", obs.projectors, rho.matrix).real
    p = np.clip(p, 0.0, None)
    return SpectrumWeights(p / p.sum())


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Mean value sum_i p_i a_i."""
    w = born_weights(rho, obs)
    return float(np.dot(w.probabilities, obs.eigenvalues))


def variance(rho: DensityMatrix, obs: Observable) -> float:
    """Variance sum_i p_i a_i^2 - mean^2, clamped at zero."""
    w = born_weights(rho, obs)
    mean = np.dot(w.probabilities, obs.eigenvalues)
    var = float(np.dot(w.probabilities, obs.eigenvalues**2) - mean**2)
    if var < -1e-12:
        raise ValidationError(f"variance {var!r} below -1e-12; inputs are inconsistent")
    return max(var, 0.0)


def overlap_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Trace overlap tr(rho1 rho2). Symmetric; equals purity when the states coincide."""
    require_same_dim(rho1.dim, rho2.dim)
    return float(np.trace(rho1.matrix @ rho2.matrix).real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 iff pure, 1/dim for the maximally mixed state."""
    return overlap_fidelity(rho, rho)


def propagator(hamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-i H t) of a Hermitian generator."""
    h = _as_complex_matrix(hamiltonian, "hamiltonian")
    _check_hermitian(h, "hamiltonian")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def evolve(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate the state: U rho U^dagger."""
    u = _as_complex_matrix(unitary, "unitary")
    require_same_dim(rho.dim, u.shape[0])
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > STRUCTURAL_TOL:
        raise ValidationError(
            f"matrix is not unitary: max |U^dagger U - I| = {defect:.3e}"
        )
    out = u @ rho.matrix @ u.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))
