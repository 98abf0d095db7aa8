"""Output checks for one scenario run, with exact correlators computed here.

The exact two-time correlators use only numpy and the config, never lgsim.
With rho_1 the state at t_1, U the propagator over t_2 - t_1,
B_b = U^dagger P_b U and G[b, i, j] = tr(B_b P_i rho_1 P_j):

    strong  E[x^k] = sum_b a_b^k sum_i a_i^k Re G[b, i, i]
    weak    E[x]   = sum_b a_b sum_ij Re G[b, i, j] (a_i + a_j)/2 D_ij
            E[x^2] = sum_b a_b^2 sum_ij Re G[b, i, j] ((a_i + a_j)^2/4 + w^2/2) D_ij
            D_ij = exp(-(a_i - a_j)^2 / (4 w^2))

where x is the product of the two readings. An estimate over n events fails
when |value - E[x]| exceeds Z_LIMIT exact standard errors sqrt(Var x / n).
For a normal estimate that happens with probability 5.7e-7 per correlator.
The exact binomial tails of the 200-event sweep points raise it to at most
1.1e-6, about 3e-4 per sweep_grid seed (480 correlators); since a seed fixes
every draw, a false failure repeats on every commit at that seed.
Where n >= STDERR_MIN_EVENTS, the reported std_error must also lie within
STDERR_RTOL of the exact one.
"""

from __future__ import annotations

import math

import numpy as np

Z_LIMIT = 5.0
STDERR_MIN_EVENTS = 5000
STDERR_RTOL = 0.1


def _matrix(pairs, dim: int) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs]).reshape(dim, dim)


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def _spectrum(a: np.ndarray, gap: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues and their eigenspace projectors."""
    evals, evecs = np.linalg.eigh(a)
    groups: list[list[int]] = [[0]]
    for i in range(1, evals.size):
        if evals[i] - evals[i - 1] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    values = np.array([evals[g].mean() for g in groups])
    projs = np.stack([evecs[:, g] @ evecs[:, g].conj().T for g in groups])
    return values, projs


class System:
    """The config's (H, A, rho) as plain arrays."""

    def __init__(self, system_cfg: dict):
        d = system_cfg["dim"]
        self.h = _matrix(system_cfg["hamiltonian"], d)
        self.a, self.projs = _spectrum(_matrix(system_cfg["observable"], d))
        self.rho = _matrix(system_cfg["initial_state"], d)

    def moments(self, t1: float, t2: float, mode: str, width: float | None) -> tuple[float, float]:
        """Exact mean and second moment of the product of the two readings."""
        u1 = _unitary(self.h, t1)
        rho1 = u1 @ self.rho @ u1.conj().T
        ug = _unitary(self.h, t2 - t1)
        heis = np.einsum("ab,kbc,cd->kad", ug.conj().T, self.projs, ug)
        g = np.einsum(
            "bxy,iyz,zw,jwx->bij", heis, self.projs, rho1, self.projs, optimize=True
        ).real
        a = self.a
        if mode == "strong":
            w1, w2 = np.diag(a), np.diag(a**2)
        else:
            damping = np.exp(-((a[:, None] - a[None, :]) ** 2) / (4.0 * width**2))
            mid = 0.5 * (a[:, None] + a[None, :])
            w1, w2 = mid * damping, (mid**2 + 0.5 * width**2) * damping
        return (
            float(np.einsum("b,bij,ij->", a, g, w1)),
            float(np.einsum("b,bij,ij->", a**2, g, w2)),
        )


def _estimate_problems(label: str, est: dict, n: int, moments: tuple[float, float]) -> list[str]:
    value, std_error = est["value"], est["std_error"]
    if not (math.isfinite(value) and math.isfinite(std_error)):
        return [f"{label}: non-finite estimate {value!r} +/- {std_error!r}"]
    mean, second = moments
    exact_se = math.sqrt(max(second - mean * mean, 0.0) / n)
    diff = abs(value - mean)
    if exact_se < 1e-12:
        return [] if diff <= 1e-9 else [f"{label}: {value!r} != exact {mean!r} with zero variance"]
    problems = []
    if diff > Z_LIMIT * exact_se:
        problems.append(f"{label}: |z| = {diff / exact_se:.2f} > {Z_LIMIT} (value {value!r}, exact {mean!r})")
    if n >= STDERR_MIN_EVENTS and abs(std_error / exact_se - 1.0) > STDERR_RTOL:
        problems.append(f"{label}: std_error {std_error!r}, exact {exact_se!r}")
    return problems


def _check_lg_run(cfg: dict, payload: dict) -> list[str]:
    system = System(cfg["system"])
    times = cfg["plan"]["times"]
    k = cfg["plan"]["k"]
    pairs = [[i, i + 1] for i in range(1, k)] + [[1, k]]
    problems = []
    for mode, n_key in (("strong", "n_strong"), ("weak", "n_weak")):
        corrs = payload[mode]["correlators"]
        if [c["pair"] for c in corrs] != pairs:
            problems.append(f"{mode}: pairs {[c['pair'] for c in corrs]} != {pairs}")
            continue
        for c in corrs:
            if c["n_events"] != cfg["run"][n_key]:
                problems.append(f"{mode} {c['pair']}: {c['n_events']} events, not {cfg['run'][n_key]}")
            i, j = c["pair"]
            moments = system.moments(times[i - 1], times[j - 1], mode, cfg["pointer"]["width"])
            problems += _estimate_problems(f"{mode} {c['pair']}", c, c["n_events"], moments)
    return problems


def _check_sweep(cfg: dict, payload: dict) -> list[str]:
    system = System(cfg["system"])
    sweep = cfg["sweep"]
    t1 = cfg["plan"]["times"][0]
    points: dict[tuple, dict] = {}
    for row in payload["rows"]:
        key = (row["delta_p"], row["n"], row["tau"])
        points.setdefault(key, {})[row["metric"]] = row["value"]
    want = len(sweep["delta_p"]) * len(sweep["n"]) * len(sweep["tau"])
    problems = [] if len(points) == want else [f"{len(points)} sweep points, not {want}"]
    for (width, n, tau), metrics in points.items():
        if "corr_value" not in metrics or "corr_std_error" not in metrics:
            problems.append(f"point {(width, n, tau)}: no correlator")
            continue
        est = {"value": metrics["corr_value"], "std_error": metrics["corr_std_error"]}
        moments = system.moments(t1, t1 + tau, sweep["mode"], width)
        problems += _estimate_problems(f"point {(width, n, tau)}", est, n, moments)
    return problems


def check_run(cfg: dict, exit_code: int, report: dict | None) -> list[str]:
    """Everything wrong with one run's outcome; empty when it is correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if report is None:
        return problems + ["no report.json written"]
    payload = report["payload"]
    if cfg["scenario"] == "lg_run":
        problems += _check_lg_run(cfg, payload)
    elif cfg["scenario"] == "sweep":
        problems += _check_sweep(cfg, payload)
    elif cfg["scenario"] == "verify" and not payload["passed"]:
        failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
        problems.append(f"verification failed: {failed}")
    return problems
