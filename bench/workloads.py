"""Benchmark workloads: each one is an lgsim run config generated from a seed.

Every workload is closed loop: one process runs one scenario at a time, and
the next run starts only after the previous one has written its report. No
config sets ``workers``, so the runs use the program's default parallelism.

Why these four:

- ``lg_qubit``: the stock ``configs/lg_run.json`` inputs (the paper's
  precessing qubit). The weak kernel does most of the work, spread over its
  stages, so RNG and pointer-table changes show here.
- ``lg_qudit8``: a d=8 system with a spin-7/2 J_z. The weak kernel's
  (n, d, d) contraction dominates and sets peak memory, so a contraction
  rewrite shows large here and small on ``lg_qubit``.
- ``sweep_grid``: 480 tiny strong-mode correlators, each with a fresh kernel.
  Kernel setup and report emission dominate, sampling does not.
- ``verify_wide``: the verification scenario at scale. It is the only
  workload that runs the batch pointer samplers, the budget formulas and the
  channel closed forms; almost no ``protocol`` code runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the stock precessing qubit: H = sigma_x / 2, A = sigma_z
_SIGMA_X_HALF = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]
_SIGMA_Z = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
_KET0 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
_KET_PLUS = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    events: int  # Monte Carlo events one run draws


def _pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def _lg_qubit(seed: int, rng: np.random.Generator, smoke: bool) -> Workload:
    n_strong, n_weak = (2_000, 4_000) if smoke else (100_000, 1_000_000)
    k = 3
    cfg = {
        "scenario": "lg_run",
        "seed": seed,
        "output": {"format": "both"},
        "system": {
            "dim": 2,
            "hamiltonian": _SIGMA_X_HALF,
            "observable": _SIGMA_Z,
            "initial_state": _KET0,
        },
        "pointer": {"width": 10.0, "truncation": "exact"},
        "plan": {"k": k, "times": [0.0, 1.0471975511965976, 2.0943951023931953]},
        "run": {"n_strong": n_strong, "n_weak": n_weak},
    }
    return Workload("lg-run", cfg, k * (n_strong + n_weak))


def _lg_qudit8(seed: int, rng: np.random.Generator, smoke: bool) -> Workload:
    d, k = 8, 4
    n_strong, n_weak = (2_000, 4_000) if smoke else (50_000, 250_000)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (g + g.conj().T)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    jz = np.diag(np.arange(d - 1, -d, -2) / 2.0)  # spin-7/2: 7/2, 5/2, ..., -7/2
    cfg = {
        "scenario": "lg_run",
        "seed": seed,
        "output": {"format": "both"},
        "system": {
            "dim": d,
            "hamiltonian": _pairs(h),
            "observable": _pairs(jz),
            "initial_state": _pairs(np.outer(v, v.conj())),
        },
        # 40 >= 5 x spectral diameter 7, so no WeakRegimeWarning
        "pointer": {"width": 40.0, "truncation": "exact"},
        "plan": {"k": k, "times": [0.0, 0.3, 0.6, 0.9]},
        "run": {"n_strong": n_strong, "n_weak": n_weak},
    }
    return Workload("lg-run", cfg, k * (n_strong + n_weak))


# tau keeps the strong correlator cos(tau) away from +-1, so even a 200-event
# point has both product signs in plenty and a nonzero standard error
SWEEP_TAU_RANGE = (np.pi / 3, 2 * np.pi / 3)
SWEEP_N = (200, 1000, 5000)


def _sweep_grid(seed: int, rng: np.random.Generator, smoke: bool) -> Workload:
    n_width, n_tau = (2, 3) if smoke else (8, 20)
    widths = np.sort(rng.uniform(10.0, 100.0, size=n_width))
    taus = np.sort(rng.uniform(*SWEEP_TAU_RANGE, size=n_tau))
    cfg = {
        "scenario": "sweep",
        "seed": seed,
        "output": {"format": "both"},
        "system": {
            "dim": 2,
            "hamiltonian": _SIGMA_X_HALF,
            "observable": _SIGMA_Z,
            "initial_state": _KET_PLUS,
        },
        "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
        "sweep": {
            "delta_p": [float(w) for w in widths],
            "n": list(SWEEP_N),
            "tau": [float(t) for t in taus],
            "mode": "strong",
        },
    }
    return Workload("sweep", cfg, n_width * n_tau * sum(SWEEP_N))


def _verify_wide(seed: int, rng: np.random.Generator, smoke: bool) -> Workload:
    n_samples, n_random = (20_000, 20) if smoke else (2_000_000, 1000)
    cfg = {
        "scenario": "verify",
        "seed": seed,
        "output": {"format": "both"},
        "verify": {
            "widths": [10.0, 20.0, 40.0, 80.0],
            "n_samples": n_samples,
            "n_random": n_random,
            "corrupt_state": False,
        },
    }
    # its Monte Carlo events are the sampled pointer readings, strong and weak
    return Workload("verify", cfg, 2 * n_samples)


_BUILDERS = {
    "lg_qubit": _lg_qubit,
    "lg_qudit8": _lg_qudit8,
    "sweep_grid": _sweep_grid,
    "verify_wide": _verify_wide,
}
WORKLOADS = tuple(_BUILDERS)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's config, drawn from ``seed`` alone."""
    return _BUILDERS[name](seed, np.random.default_rng(seed), smoke)
