"""Finite-dimensional quantum states and observables.

Observables carry an explicit spectral decomposition (distinct eigenvalues
in decreasing order with eigenspace projectors), density matrices are
validated on construction, and everything downstream works through Born
weights ``p_i = tr(rho P_i)``, expectations, purity ``tr(rho^2)`` and the
trace overlap ``tr(rho1 rho2)``.

All objects are immutable after construction and every function here is
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_count, require_same_dim

STRUCTURAL_TOL = 1e-10
EIGEN_GAP_TOL = 1e-9


def _as_complex_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _hermitian_error(name: str, asym: float) -> ValidationError:
    return ValidationError(
        f"{name} is not Hermitian: max |A - A^dagger| = {asym:.3e} exceeds {STRUCTURAL_TOL:.0e}"
    )


def _check_hermitian(a: np.ndarray, name: str) -> None:
    asym = np.abs(a - a.T.conj()).max()
    if not asym <= STRUCTURAL_TOL:  # a NaN or infinite entry fails here too
        raise _hermitian_error(name, asym)


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

    ``eigenvalues`` are strictly decreasing, so distinct (the canonical
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
        if not (evals[1:] < evals[:-1]).all():
            raise ValidationError("eigenvalues must be strictly decreasing")
        dim = projs.shape[1]
        # each check runs over the whole (n, dim, dim) stack and names the
        # first failing projector, or pair (i, j) in row-major order
        asym = np.abs(projs - projs.transpose(0, 2, 1).conj()).max(axis=(1, 2))
        i = _first_above(asym, STRUCTURAL_TOL)
        if i is not None:
            raise _hermitian_error(f"projector {i}", asym[i])
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
        return float(self.eigenvalues[0]) - float(self.eigenvalues[-1])  # inf, not a warning

    def matrix(self) -> np.ndarray:
        """Reconstruct the operator as sum_i a_i P_i."""
        return np.tensordot(self.eigenvalues, self.projectors, axes=1)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix, "density matrix")
        _check_hermitian(m, "density matrix")  # eigenvalues are only taken of a Hermitian m
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > STRUCTURAL_TOL:
            raise ValidationError(f"density matrix trace is {tr!r}, not 1")
        evals = np.linalg.eigvalsh(m)  # ascending
        if evals[0] < -STRUCTURAL_TOL:
            raise ValidationError(f"density matrix has negative eigenvalue {evals[0]:.3e}")
        # tr(rho^2) is the sum of squared eigenvalues of a Hermitian rho
        pur, d = float((evals * evals).sum()), m.shape[0]
        if not 1.0 / d - 1e-9 <= pur <= 1.0 + 1e-9:
            raise ValidationError(f"purity {pur!r} outside [1/dim, 1] for dim {d}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# constructors


def pure_state(amplitudes) -> DensityMatrix:
    """Density matrix |psi><psi| of a (possibly unnormalized) state vector."""
    v = np.asarray(amplitudes, dtype=np.complex128).ravel()
    # the largest real or imaginary part is 0, inf or NaN exactly when the norm is
    big = np.abs(v.view(np.float64)).max(initial=0.0)
    if not 0 < big < np.inf:
        raise ValidationError(f"state vector must be finite and nonzero, got norm {big}")
    # scaled by a power of two near it, exactly, so the norm neither overflows
    # nor underflows and a vector whose norm did neither keeps its bits
    v = np.ldexp(v.view(np.float64), -np.frexp(big)[1]).view(np.complex128)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def basis_state(dim: int, index: int) -> DensityMatrix:
    require_count(index, 0, "index")
    if index >= dim:
        raise ValidationError(f"index must be < dim = {dim}, got {index}")
    return pure_state(np.eye(dim)[index])


def plus_state() -> DensityMatrix:
    """Qubit state (|0> + |1>)/sqrt(2)."""
    return pure_state([1.0, 1.0])


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def random_density_matrices(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unvalidated (n, dim, dim) stack of states G G^dagger / tr(G G^dagger),
    G complex Gaussian, from one normal draw: member k is the state the k-th
    of n one-member draws from ``rng`` would give."""
    g = rng.normal(size=(n, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ g.conj().transpose(0, 2, 1)
    return m / m.trace(axis1=1, axis2=2).real[:, None, None]


def pauli(which: str) -> np.ndarray:
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }[which]


# ---------------------------------------------------------------------------
# operations


def spectral_decompose(hermitian) -> Observable:
    """Spectral decomposition of a Hermitian matrix into eigenspaces.

    Eigenvalues closer than ``EIGEN_GAP_TOL`` are merged into one eigenspace,
    so degenerate spectra yield rank>1 projectors instead of an arbitrary
    eigenvector split. Result is ordered by decreasing eigenvalue.
    """
    h = _as_complex_matrix(hermitian, "operator")
    _check_hermitian(h, "operator")
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = evecs.T[order]  # row k is the eigenvector of evals[k]

    # an eigenspace starts wherever the gap to the previous eigenvalue (inf
    # where it overflows) is not below EIGEN_GAP_TOL; its value is the mean of
    # its members and its projector the sum of their outer products |v><v|
    with np.errstate(over="ignore"):
        starts = np.flatnonzero(np.concatenate(([True], ~(evals[:-1] - evals[1:] < EIGEN_GAP_TOL))))
    merged_vals = np.add.reduceat(evals, starts) / np.add.reduceat(np.ones_like(evals), starts)
    projs = np.add.reduceat(vecs[:, :, None] * vecs.conj()[:, None, :], starts, axis=0)
    # symmetrize away eigh round-off so the Observable invariants hold exactly
    projs = 0.5 * (projs + projs.transpose(0, 2, 1).conj())
    return Observable(merged_vals, projs)


def born_weights(rho: DensityMatrix, obs: Observable) -> np.ndarray:
    """Outcome probabilities p_i = tr(rho P_i) in the observable's order, as a
    read-only array, clipped at zero and normalised to sum to 1."""
    require_same_dim(rho.dim, obs.dim)
    p = np.einsum("kij,ji->k", obs.projectors, rho.matrix).real
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    p.setflags(write=False)
    return p


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Mean value sum_i p_i a_i."""
    return float(np.dot(born_weights(rho, obs), obs.eigenvalues))


def variance(rho: DensityMatrix, obs: Observable) -> float:
    """Variance sum_i p_i (a_i - mean)^2 over the outcomes with p_i > 0, inf
    where it overflows float64. Centring first keeps its digits on a spectrum
    far from zero, where sum_i p_i a_i^2 - mean^2 cancels."""
    w = born_weights(rho, obs)
    w, a = w[w > 0], obs.eigenvalues[w > 0]
    with np.errstate(over="ignore"):
        dev = a - np.dot(w, a)
        return float(np.dot(w, dev * dev))


def overlap_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Trace overlap tr(rho1 rho2). Symmetric; equals purity when the states coincide."""
    require_same_dim(rho1.dim, rho2.dim)
    return float(np.trace(rho1.matrix @ rho2.matrix).real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 iff pure, 1/dim for the maximally mixed state."""
    return overlap_fidelity(rho, rho)


def _unitaries(evals: np.ndarray, evecs: np.ndarray, times) -> tuple[np.ndarray, list]:
    """exp(-i H t) for each time of ``times``, a (d, d) matrix for a scalar
    and an (n, d, d) stack for n times, from the eigenpairs of H, beside each
    time's refusal, in order: None, or the ``ValidationError`` of a t that
    makes a phase E t NaN or infinite, whose unitary is not one."""
    times = np.asarray(times, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.multiply.outer(times, evals)
        stack = (evecs * np.exp(-1j * phases)[..., None, :]) @ evecs.conj().T
    finite = np.isfinite(phases).all(axis=-1)
    return stack, [None if ok else ValidationError(
        f"exp(-i H t) needs finite phases E t, got t = {t:g} and largest |E| = "
        f"{np.abs(evals).max():g}") for t, ok in zip(times.ravel().tolist(), finite.ravel())]


def propagator(hamiltonian, t) -> np.ndarray:
    """Unitary exp(-i H t) of a Hermitian generator, or the (n, d, d) stack
    of them for a 1-d array of n times, from one eigendecomposition of H. A t
    that makes a phase E t NaN or infinite, as a time gap that overflows
    float64 does, is refused, the first such t named."""
    h = _as_complex_matrix(hamiltonian, "hamiltonian")
    _check_hermitian(h, "hamiltonian")
    stack, refusals = _unitaries(*np.linalg.eigh(h), t)
    for refusal in filter(None, refusals):
        raise refusal
    return stack


def evolve(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate the state: U rho U^dagger."""
    u = _as_complex_matrix(unitary, "unitary")
    require_same_dim(rho.dim, u.shape[0])
    # an infinite entry makes inf * 0 in the product, so a NaN defect, refused below
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= STRUCTURAL_TOL:  # a NaN defect fails here too
        raise ValidationError(
            f"matrix is not unitary: max |U^dagger U - I| = {defect:.3e}"
        )
    out = u @ rho.matrix @ u.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))
