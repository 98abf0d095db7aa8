"""Scenario runners behind the CLI: budget, lg_run, verify, sweep.

Every runner maps a validated RunConfig to a JSON-ready payload dict;
``execute`` wraps the payload in a report envelope carrying the schema
version, the resolved-config echo and wall-clock metadata. Reports are
deterministic for a fixed (config, seed) apart from the ``meta`` block.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .budget import BudgetInput, target_error, strong_subensemble, wastage_report
from .config import (
    RunConfig,
    SCHEMA_VERSION,
    SweepConfig,
    SystemConfig,
    VerifyConfig,
    config_to_dict,
    pairs_to_matrix,
)
from .invasiveness import measure_invasiveness, predicted_strong, predicted_weak
from .measurement import (
    PointerModel,
    sample_strong_readings,
    sample_weak_readings,
    strong_channel,
    weak_channel_exact,
    weak_channel_perturbative,
)
from .protocol import (
    CorrelatorEstimate,
    DynamicsSpec,
    build_series,
    estimate_correlator,
    k3_statistic,
    lg_satisfied,
    run_series,
)
from .quantum import (
    DensityMatrix,
    expectation,
    pure_state,
    purity,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    spectral_decompose,
    variance,
)
from .streams import substream

OUT_DIR_ENV = "LGSIM_OUT_DIR"
DEFAULT_OUT_DIR = "lgsim_out"


# ---------------------------------------------------------------------------
# config materialization


def _system_objects(system: SystemConfig, eigen_gap: float):
    h = pairs_to_matrix(system.hamiltonian, system.dim)
    obs = spectral_decompose(pairs_to_matrix(system.observable, system.dim), gap_tol=eigen_gap)
    rho = DensityMatrix(pairs_to_matrix(system.initial_state, system.dim))
    return h, obs, rho


def _estimate_dict(est: CorrelatorEstimate) -> dict:
    return {
        "pair": list(est.pair),
        "value": est.value,
        "std_error": est.std_error,
        "n_events": est.n_events,
    }


# ---------------------------------------------------------------------------
# budget scenario


def run_budget(cfg: RunConfig) -> dict:
    b = cfg.budget
    delta_p = b.delta_p if b.delta_p is not None else cfg.pointer.width
    if b.var_a is not None:
        var_a, var_source = b.var_a, "config"
    else:
        _, obs, rho = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
        var_a, var_source = variance(rho, obs), "system"

    inp = BudgetInput(
        ensemble_size=b.ensemble_size,
        k=b.k,
        delta_p=delta_p,
        var_a=var_a,
        order_unity_threshold=b.order_unity_threshold,
    )
    rep = wastage_report(inp)
    return {
        "input": {
            "ensemble_size": inp.ensemble_size,
            "k": inp.k,
            "delta_p": inp.delta_p,
            "var_a": inp.var_a,
            "var_a_source": var_source,
            "order_unity_threshold": inp.order_unity_threshold,
        },
        "report": {
            "eps_weak_both": rep.eps_weak_both,
            "eps_target": rep.eps_target,
            "error_ratio_strong_over_weak": rep.error_ratio_strong_over_weak,
            "strong_subensemble": rep.strong_subensemble,
            "total_strong_ensemble": rep.total_strong_ensemble,
            "ensemble_ratio_strong_over_weak": rep.ensemble_ratio_strong_over_weak,
            "strong_scheme_smaller": rep.strong_scheme_smaller,
            "waste_weak_per_measurement": rep.waste_weak_per_measurement,
            "waste_weak_per_measurement_i2": rep.waste_weak_per_measurement_i2,
            "waste_strong_per_measurement": rep.waste_strong_per_measurement,
            "waste_total_weak_scheme": rep.waste_total_weak_scheme,
            "waste_total_strong_scheme": rep.waste_total_strong_scheme,
            "waste_ratio_strong_over_weak": rep.waste_ratio_strong_over_weak,
        },
    }


# ---------------------------------------------------------------------------
# lg_run scenario


def _k3_block(estimates: list[CorrelatorEstimate]) -> dict | None:
    if len(estimates) != 3:
        return None
    c12, c23, c13 = (e.value for e in estimates)
    k3 = k3_statistic(c12, c23, c13)
    se = math.sqrt(sum(e.std_error**2 for e in estimates))
    return {
        "value": k3,
        "std_error": se,
        "satisfies_macrorealism": lg_satisfied(k3),
        "violates_macrorealism": not lg_satisfied(k3),
    }


def run_lg(cfg: RunConfig) -> dict:
    h, obs, rho = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
    dyn = DynamicsSpec(hamiltonian=h, observable=obs, initial_state=rho)
    plan = build_series(cfg.plan.k, cfg.plan.times)
    pm = PointerModel(width=cfg.pointer.width)

    strong = run_series(plan, dyn, "strong", cfg.run.n_strong, cfg.seed, stream_base=0)
    weak = run_series(
        plan, dyn, "weak", cfg.run.n_weak, cfg.seed, pointer=pm, stream_base=plan.k
    )

    per_pair = []
    for es, ew in zip(strong, weak):
        combined = math.sqrt(es.std_error**2 + ew.std_error**2)
        per_pair.append({
            "pair": list(es.pair),
            "mean_diff": ew.value - es.value,
            "combined_sigma": combined,
            "agreement_sigmas": abs(ew.value - es.value) / combined if combined else 0.0,
            # a deterministic strong correlator (eigenstate, zero gap) has no
            # spread to compare against
            "stderr_ratio_weak_over_strong": (
                ew.std_error / es.std_error if es.std_error else None
            ),
            "variance_inflation_per_event": (
                ew.n_events * ew.std_error**2 - es.n_events * es.std_error**2
            ),
        })

    return {
        "plan": {"k": plan.k, "times": list(plan.times), "pairs": [list(p) for p in plan.pairs]},
        "strong": {
            "mode": "strong",
            "n_per_series": cfg.run.n_strong,
            "correlators": [_estimate_dict(e) for e in strong],
            "k3": _k3_block(strong),
        },
        "weak": {
            "mode": "weak",
            "pointer_width": pm.width,
            "n_per_series": cfg.run.n_weak,
            "correlators": [_estimate_dict(e) for e in weak],
            "k3": _k3_block(weak),
        },
        "comparison": {
            "per_pair": per_pair,
            "predicted_variance_inflation_per_event": pm.position_variance,
            "predicted_stderr_ratio_small_c": math.sqrt(1.0 + pm.position_variance),
        },
    }


# ---------------------------------------------------------------------------
# verify scenario


def _check(name: str, passed: bool, margin: float, detail: str, out_of_regime: bool = False) -> dict:
    status = "out_of_regime" if out_of_regime else ("pass" if passed else "fail")
    return {"name": name, "status": status, "margin": float(margin), "detail": detail}


def _fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    lx, ly = np.log(x), np.log(y)
    return float(np.polyfit(lx, ly, 1)[0])


def _coherent_probe(obs) -> DensityMatrix:
    """Pure state with equal weight on every eigenspace of the observable.

    One unit vector per eigenspace, summed: orthogonality keeps the sum
    nonzero, and the result maximizes eigenbasis coherence, which is what
    the weak-channel checks need regardless of the configured state.
    """
    vecs = []
    for p in obs.projectors:
        col = p[:, int(np.argmax(np.linalg.norm(p, axis=0)))]
        vecs.append(col / np.linalg.norm(col))
    return pure_state(np.sum(vecs, axis=0))


def _verify_checks(cfg: RunConfig) -> list[dict]:
    vc = cfg.verify or VerifyConfig()
    eigen_gap = cfg.tolerances.eigen_gap
    if cfg.system is not None:
        _, obs, rho = _system_objects(cfg.system, eigen_gap)
    else:
        from .protocol import precession_qubit

        bench = precession_qubit()
        obs = bench.observable
        rho = _coherent_probe(obs)  # the x-eigenstate for the stock qubit
    probe = _coherent_probe(obs)
    diam = obs.spectral_diameter
    checks: list[dict] = []

    # structural invariants of spectral decomposition
    rng = substream(cfg.seed, 101)
    worst = 0.0
    for _ in range(vc.n_random):
        dim = int(rng.integers(2, 5))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = 0.5 * (g + g.conj().T)
        ob = spectral_decompose(herm, gap_tol=eigen_gap)
        worst = max(worst, float(np.max(np.abs(ob.matrix() - herm))))
    checks.append(_check(
        "observable_reconstruction", worst <= 1e-9, 1e-9 - worst,
        f"max reconstruction error {worst:.2e} over {vc.n_random} random Hermitians",
    ))

    # channel sanity: trace, and strong output commutes with A. Hermiticity
    # needs no measuring: _eigenbasis_map symmetrises every channel output
    # and DensityMatrix rejects a non-Hermitian one
    rng = substream(cfg.seed, 102)
    pm = PointerModel(width=max(5.0 * diam, 10.0))
    worst = 0.0
    worst_comm = 0.0
    a = obs.matrix()
    for _ in range(vc.n_random):
        state = random_density_matrix(obs.dim, rng)
        strong = strong_channel(state, obs)
        for out in (strong, weak_channel_exact(state, obs, pm)):
            worst = max(worst, abs(float(np.trace(out.matrix).real) - 1.0))
        post = strong.matrix
        worst_comm = max(worst_comm, float(np.max(np.abs(post @ a - a @ post))))
    checks.append(_check(
        "channel_trace_hermiticity", worst <= 1e-12, 1e-12 - worst,
        f"worst trace/hermiticity defect {worst:.2e}",
    ))
    checks.append(_check(
        "strong_channel_commutes", worst_comm <= 1e-10, 1e-10 - worst_comm,
        f"worst commutator entry {worst_comm:.2e}",
    ))

    # unitary evolution preserves purity
    rng = substream(cfg.seed, 103)
    worst = 0.0
    for _ in range(vc.n_random):
        state = random_density_matrix(obs.dim, rng)
        u = random_unitary(obs.dim, rng)
        worst = max(worst, abs(purity(DensityMatrix(u @ state.matrix @ u.conj().T)) - purity(state)))
    checks.append(_check(
        "unitary_preserves_purity", worst <= 1e-10, 1e-10 - worst,
        f"worst purity drift {worst:.2e} over {vc.n_random} random (rho, U)",
    ))

    # exact-vs-perturbative gap falls off as width^-4 (coherent probe state)
    widths = np.array(sorted(vc.widths))
    in_regime = bool(widths.min() >= 5.0 * diam)
    gaps = []
    for w in widths:
        exact = weak_channel_exact(probe, obs, PointerModel(width=float(w)))
        pert = weak_channel_perturbative(probe, obs, PointerModel(width=float(w)))
        gaps.append(float(np.max(np.abs(exact.matrix - pert.matrix))))
    if not in_regime:
        checks.append(_check(
            "weak_expansion_convergence", True, 0.0,
            f"widths {widths.tolist()} below {5.0 * diam:.3g} (5 x spectral diameter); "
            "asymptotic slope not judged",
            out_of_regime=True,
        ))
    elif min(gaps) <= 0:
        checks.append(_check(
            "weak_expansion_convergence", True, 0.0,
            "observable has a single eigenspace; both channels are the identity",
        ))
    else:
        slope = _fit_loglog_slope(widths, np.array(gaps))
        checks.append(_check(
            "weak_expansion_convergence", abs(slope + 4.0) <= 0.1, 0.1 - abs(slope + 4.0),
            f"log-log slope {slope:.3f} over widths {widths.tolist()}",
        ))

    # strong invasiveness closed form, exact to 1e-12
    rng = substream(cfg.seed, 104)
    worst = 0.0
    for _ in range(vc.n_random):
        dim = int(rng.integers(2, 4))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ob = spectral_decompose(0.5 * (g + g.conj().T), gap_tol=eigen_gap)
        state = random_pure_state(dim, rng)
        meas = measure_invasiveness(state, strong_channel(state, ob))
        pred = predicted_strong(state, ob)
        worst = max(worst, abs(meas.i1 - pred.i1), abs(meas.i2 - pred.i2))
    checks.append(_check(
        "strong_invasiveness_closed_form", worst <= 1e-12, 1e-12 - worst,
        f"worst |measured - predicted| {worst:.2e}",
    ))

    # weak invasiveness: deficit scales as width^-4 with a stable coefficient
    if not in_regime:
        checks.append(_check(
            "weak_invasiveness_expansion", True, 0.0,
            "pointer widths below the weak regime; coefficient fit not judged",
            out_of_regime=True,
        ))
    elif diam == 0:
        checks.append(_check(
            "weak_invasiveness_expansion", True, 0.0,
            "observable has a single eigenspace; nothing is disturbed",
        ))
    else:
        coeffs_i1, coeffs_i2 = [], []
        for w in widths[:3]:
            pmw = PointerModel(width=float(w))
            meas = measure_invasiveness(probe, weak_channel_exact(probe, obs, pmw))
            pred = predicted_weak(probe, obs, pmw)
            coeffs_i1.append(abs(meas.i1 - pred.i1) * w**4)
            coeffs_i2.append(abs(meas.i2 - pred.i2) * w**4)
        spread = max(
            max(coeffs_i1) / min(coeffs_i1) if min(coeffs_i1) > 0 else math.inf,
            max(coeffs_i2) / min(coeffs_i2) if min(coeffs_i2) > 0 else math.inf,
        )
        checks.append(_check(
            "weak_invasiveness_expansion", spread <= 1.1, 1.1 - spread,
            f"fitted width^4 coefficient spread x{spread:.4f} across widths {widths[:3].tolist()}",
        ))

    # purity drop approaches twice the fidelity deficit
    if diam == 0:
        checks.append(_check(
            "invasiveness_ratio_two", True, 0.0,
            "observable has a single eigenspace; ratio law is vacuous",
        ))
    else:
        w_ratio = 50.0 * diam
        meas = measure_invasiveness(
            probe, weak_channel_exact(probe, obs, PointerModel(width=w_ratio))
        )
        ratio = meas.i1 / meas.i2 if meas.i2 else math.nan
        ratio_err = abs(ratio / 2.0 - 1.0) if math.isfinite(ratio) else math.inf
        checks.append(_check(
            "invasiveness_ratio_two", ratio_err <= 0.01, 0.01 - ratio_err,
            f"I1/I2 = {ratio:.5f} at width {w_ratio:g}",
        ))

    # sum_ij p_i p_j (a_i - a_j)^2 = 2 Var(A)
    rng = substream(cfg.seed, 105)
    worst = 0.0
    for _ in range(vc.n_random):
        state = random_density_matrix(obs.dim, rng)
        p = np.array([float(np.trace(pr @ state.matrix).real) for pr in obs.projectors])
        a = obs.eigenvalues
        dsum = float(np.einsum("i,j,ij->", p, p, (a[:, None] - a[None, :]) ** 2))
        worst = max(worst, abs(dsum - 2.0 * variance(state, obs)))
    checks.append(_check(
        "variance_double_sum_identity", worst <= 1e-12, 1e-12 - worst,
        f"worst |double sum - 2 Var| {worst:.2e}",
    ))

    # budget algebra: two routes to the strong subensemble agree
    rng = substream(cfg.seed, 106)
    worst_n = 0
    for _ in range(1000):
        m = int(rng.integers(1000, 10_000_000))
        k = int(rng.integers(3, 12))
        dp = float(rng.uniform(1.0, 100.0))
        var = float(rng.uniform(0.01, 4.0))
        direct = strong_subensemble(var, target_error(m, k, dp))
        alt = math.ceil((var / dp**2) * (2.0 * m / k) * (1.0 - 1e-12))
        worst_n = max(worst_n, abs(direct - alt))
    checks.append(_check(
        "budget_formula_consistency", worst_n <= 1, float(1 - worst_n),
        f"worst count disagreement {worst_n} over 1000 random budgets",
    ))

    # sampled pointer statistics against the closed forms
    rng = substream(cfg.seed, 107)
    n = vc.n_samples
    pm_stat = PointerModel(width=max(5.0 * diam, 10.0))
    mean_a = expectation(rho, obs)
    var_a = variance(rho, obs)
    weak_var = pm_stat.position_variance + var_a
    wr = sample_weak_readings(rho, obs, pm_stat, n, rng)
    sr = sample_strong_readings(rho, obs, n, rng)
    errs = [
        abs(wr.mean() - mean_a) / (5.0 * math.sqrt(weak_var / n)),
        abs(wr.var(ddof=1) - weak_var) / (0.02 * weak_var),
        abs(sr.mean() - mean_a) / (5.0 * math.sqrt(var_a / n)) if var_a > 0 else 0.0,
        abs(sr.var(ddof=1) - var_a) / (0.02 * var_a) if var_a > 0 else 0.0,
    ]
    worst = max(errs)
    checks.append(_check(
        "pointer_sampler_statistics", worst <= 1.0, 1.0 - worst,
        f"worst normalized deviation {worst:.3f} (1.0 = tolerance) at n = {n}",
    ))

    # positivity guard over the states the pipeline produces
    rng = substream(cfg.seed, 108)
    states = [random_density_matrix(obs.dim, rng).matrix for _ in range(10)]
    states.append(strong_channel(rho, obs).matrix)
    if vc.corrupt_state:
        bad = np.zeros((obs.dim, obs.dim), dtype=complex)
        bad[0, 0], bad[1, 1] = 1.5, -0.5
        states.append(bad)
    min_eval = min(float(np.linalg.eigvalsh(s).min()) for s in states)
    checks.append(_check(
        "state_positivity", min_eval >= -1e-10, min_eval + 1e-10,
        f"smallest eigenvalue across checked states {min_eval:.2e}",
    ))

    return checks


def run_verify(cfg: RunConfig) -> dict:
    checks = _verify_checks(cfg)
    return {
        "checks": checks,
        "passed": all(c["status"] != "fail" for c in checks),
        "n_out_of_regime": sum(c["status"] == "out_of_regime" for c in checks),
    }


# ---------------------------------------------------------------------------
# sweep scenario


def run_sweep(cfg: RunConfig) -> dict:
    sw: SweepConfig = cfg.sweep
    h, obs, rho = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
    mc_wanted = bool(sw.n or sw.tau)
    dyn = DynamicsSpec(hamiltonian=h, observable=obs, initial_state=rho)

    axes = {
        "delta_p": list(sw.delta_p) or [None],
        "n": list(sw.n) or [None],
        "tau": list(sw.tau) or [None],
    }
    rows: list[dict] = []
    point_index = 0
    for d in axes["delta_p"]:
        for n in axes["n"]:
            for t in axes["tau"]:
                coords = {"delta_p": d, "n": n, "tau": t}

                if d is not None:
                    pmw = PointerModel(width=d)
                    meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pmw))
                    pred = predicted_weak(rho, obs, pmw)
                    for metric, value in (
                        ("i1_measured", meas.i1),
                        ("i1_predicted", pred.i1),
                        ("i2_measured", meas.i2),
                        ("i2_predicted", pred.i2),
                    ):
                        rows.append({**coords, "metric": metric, "value": value})

                if mc_wanted:
                    t1 = cfg.plan.times[0]
                    if t is not None:
                        t_first, t_second = t1, t1 + t
                    else:
                        t_first, t_second = cfg.plan.times[0], cfg.plan.times[1]
                    n_events = n if n is not None else sw.n_per_point
                    width = d if d is not None else (cfg.pointer.width if cfg.pointer else None)
                    pointer = PointerModel(width=width) if sw.mode == "weak" else None
                    est = estimate_correlator(
                        dyn, t_first, t_second, sw.mode, n_events,
                        cfg.seed, pointer=pointer, stream_base=point_index,
                    )
                    rows.append({**coords, "metric": "corr_value", "value": est.value})
                    rows.append({**coords, "metric": "corr_std_error", "value": est.std_error})
                point_index += 1

    return {"axes": {k: [v for v in vs if v is not None] for k, vs in axes.items()}, "rows": rows}


# ---------------------------------------------------------------------------
# report envelope and emission


_RUNNERS = {
    "budget": run_budget,
    "lg_run": run_lg,
    "verify": run_verify,
    "sweep": run_sweep,
}


def execute(cfg: RunConfig) -> dict:
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    payload = _RUNNERS[cfg.scenario](cfg)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "payload": payload,
        "meta": {
            "started_at": started,
            "duration_s": time.perf_counter() - t0,
            "lgsim_version": __version__,
        },
    }


def payload_json(report: dict) -> str:
    """Canonical payload serialization used for determinism comparisons."""
    return json.dumps(report["payload"], sort_keys=True)


def _write_correlator_csv(path: str, correlators: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_i", "pair_j", "value", "std_error", "n_events"])
        for c in correlators:
            writer.writerow([c["pair"][0], c["pair"][1], c["value"], c["std_error"], c["n_events"]])


def _write_budget_csv(path: str, payload: dict) -> None:
    inp, rep = payload["input"], payload["report"]
    subensemble = math.ceil(inp["ensemble_size"] / inp["k"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "scheme", "eps", "events_per_measurement",
            "waste_per_measurement", "waste_total", "total_ensemble_required",
        ])
        writer.writerow([
            "weak_first", rep["eps_target"], subensemble,
            rep["waste_weak_per_measurement"], rep["waste_total_weak_scheme"],
            inp["ensemble_size"],
        ])
        writer.writerow([
            "all_strong", rep["eps_target"], rep["strong_subensemble"],
            rep["waste_strong_per_measurement"], rep["waste_total_strong_scheme"],
            rep["total_strong_ensemble"],
        ])


def _write_verify_csv(path: str, payload: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "status", "margin", "detail"])
        for c in payload["checks"]:
            writer.writerow([c["name"], c["status"], c["margin"], c["detail"]])


def _write_sweep_csv(path: str, payload: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_p", "n", "tau", "metric", "value"])
        for r in payload["rows"]:
            writer.writerow([
                "" if r["delta_p"] is None else r["delta_p"],
                "" if r["n"] is None else r["n"],
                "" if r["tau"] is None else r["tau"],
                r["metric"],
                r["value"],
            ])


def write_report(report: dict, out_dir: str, fmt: str) -> list[str]:
    """Write report.json and/or scenario CSVs; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if fmt in ("csv", "both"):
        scenario = report["scenario"]
        payload = report["payload"]
        if scenario == "budget":
            path = os.path.join(out_dir, "budget_comparison.csv")
            _write_budget_csv(path, payload)
            written.append(path)
        elif scenario == "lg_run":
            for mode in ("strong", "weak"):
                path = os.path.join(out_dir, f"correlators_{mode}.csv")
                _write_correlator_csv(path, payload[mode]["correlators"])
                written.append(path)
        elif scenario == "verify":
            path = os.path.join(out_dir, "verification.csv")
            _write_verify_csv(path, payload)
            written.append(path)
        elif scenario == "sweep":
            path = os.path.join(out_dir, "sweep.csv")
            _write_sweep_csv(path, payload)
            written.append(path)
    return written


def resolve_out_dir(cli_out: str | None, cfg: RunConfig) -> str:
    """CLI flag beats config, which beats the environment override, then the default."""
    if cli_out:
        return cli_out
    if cfg.output.dir:
        return cfg.output.dir
    return os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
