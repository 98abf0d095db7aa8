"""Scenario runners behind the CLI: budget, lg_run, verify, sweep.

Each scenario is one ``_SCENARIOS`` entry: a runner that maps a validated
RunConfig to a JSON-ready payload dict, and a function that derives the
scenario's CSV tables, {file name: (header, rows)}, from that payload alone.
``execute`` wraps the payload in a report envelope carrying the schema
version, the resolved-config echo and wall-clock metadata. ``write_report``
writes the envelope as report.json, with the bytes of the stdlib's
``json.dump(indent=2, sort_keys=True)``, and each table as one CSV file,
both through ``writers``.
Reports are deterministic for a fixed (config, seed) apart from ``meta``.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .budget import BudgetInput, wastage_report
from .config import (
    RunConfig,
    SCHEMA_VERSION,
    SweepConfig,
    SystemConfig,
    VerifyConfig,
    config_to_dict,
    pairs_to_matrix,
)
from .invasiveness import measure_invasiveness, predicted_weak
from .measurement import (
    WEAK_REGIME_FACTOR,
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
    SeriesPlan,
    _check_run_args,
    _check_times,
    _estimate,
    _SeriesKernel,
    k3_statistic,
    lg_satisfied,
    precession_qubit,
    run_series,
)
from .quantum import (
    DensityMatrix,
    born_weights,
    expectation,
    pure_state,
    random_density_matrix,
    spectral_decompose,
    variance,
)
from .streams import substream
from .writers import write_csv, write_json

OUT_DIR_ENV = "LGSIM_OUT_DIR"
DEFAULT_OUT_DIR = "lgsim_out"


# ---------------------------------------------------------------------------
# config materialization


def _system_objects(system: SystemConfig, eigen_gap: float) -> DynamicsSpec:
    h = pairs_to_matrix(system.hamiltonian, system.dim)
    obs = spectral_decompose(pairs_to_matrix(system.observable, system.dim), gap_tol=eigen_gap)
    rho = DensityMatrix(pairs_to_matrix(system.initial_state, system.dim))
    return DynamicsSpec(hamiltonian=h, observable=obs, initial_state=rho)  # checks H


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
        dyn = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
        var_a, var_source = variance(dyn.initial_state, dyn.observable), "system"
        if var_a == 0.0:
            # an eigenstate of the observable: the formulas then say no
            # strong members are needed, which is rarely the question asked
            warnings.warn(
                "the prepared state has zero variance of the observable, so the "
                "budget reports strong_subensemble 0; set budget.var_a to the "
                "variance to budget for",
                UserWarning,
                stacklevel=2,
            )

    inp = BudgetInput(**{**asdict(b), "delta_p": delta_p, "var_a": var_a})
    return {
        "input": {**asdict(inp), "var_a_source": var_source},
        "report": asdict(wastage_report(inp)),
    }


def _budget_tables(payload: dict) -> dict:
    inp, rep = payload["input"], payload["report"]
    return {"budget_comparison.csv": (
        ["scheme", "eps", "events_per_measurement",
         "waste_per_measurement", "waste_total", "total_ensemble_required"],
        [
            ["weak_first", rep["eps_target"], math.ceil(inp["ensemble_size"] / inp["k"]),
             rep["waste_weak_per_measurement"], rep["waste_total_weak_scheme"],
             inp["ensemble_size"]],
            ["all_strong", rep["eps_target"], rep["strong_subensemble"],
             rep["waste_strong_per_measurement"], rep["waste_total_strong_scheme"],
             rep["total_strong_ensemble"]],
        ],
    )}


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
    dyn = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
    plan = SeriesPlan(cfg.plan.k, cfg.plan.times)
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


def _lg_tables(payload: dict) -> dict:
    return {
        f"correlators_{mode}.csv": (
            ["pair_i", "pair_j", "value", "std_error", "n_events"],
            ([*c["pair"], c["value"], c["std_error"], c["n_events"]]
             for c in payload[mode]["correlators"]),
        )
        for mode in ("strong", "weak")
    }


# ---------------------------------------------------------------------------
# verify scenario


def _check(name: str, value: float, limit: float, detail: str, out_of_regime: bool = False) -> dict:
    """A check passes when ``value <= limit``; its margin is ``limit - value``."""
    status = "out_of_regime" if out_of_regime else ("pass" if value <= limit else "fail")
    return {"name": name, "status": status, "margin": float(limit - value), "detail": detail}


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


def _sampler_deviation(rho, obs, n: int, rng) -> float:
    """Worst deviation of n weak and n strong readings from their exact law, in
    tolerances (1.0 = tolerance). The weak mean gets 5 standard errors. As
    s^2 - var = (n (S - var) + var - n (m - mean)^2) / (n-1), S the mean squared
    deviation from the true mean, the weak variance gets 5 standard errors of S
    (from the exact fourth central moment) plus a 5-sigma m, and at least 2%.
    Each strong outcome count K_i scores sqrt(n KL(K_i/n || p_i) / L) with
    L = ln(2d / 1.7e-6), and P(n KL > L) <= 2 e^-L for any n and p (Chernoff).
    So correct code fails at most 1.7e-6 of the time on the strong counts, rare
    outcomes included, plus 1.7e-6 on the weak terms while S and m are near
    normal (pointer variance >= 50 against a spectral diameter <= width/5)."""
    pm = PointerModel(width=max(WEAK_REGIME_FACTOR * obs.spectral_diameter, 10.0))
    p = born_weights(rho, obs)
    mean_a = expectation(rho, obs)
    var_a = variance(rho, obs)
    s2 = pm.position_variance
    weak_var = s2 + var_a
    m4 = float(np.dot(p, (obs.eigenvalues - mean_a) ** 4)) + 6.0 * s2 * var_a + 3.0 * s2**2
    spread = 5.0 * math.sqrt(max(m4 - weak_var**2, 0.0) * n) + 25.0 * weak_var
    var_tol = max(0.02 * weak_var, spread / (n - 1))

    wr = sample_weak_readings(rho, obs, pm, n, rng)
    sr = sample_strong_readings(rho, obs, n, rng)
    q = np.array([np.count_nonzero(sr == a) for a in obs.eigenvalues]) / n
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0; a count where p_i = 0 scores inf
        kl = (np.where(q > 0, q * np.log(q / p), 0.0)
              + np.where(q < 1, (1 - q) * np.log((1 - q) / (1 - p)), 0.0))
    level = math.log(2 * obs.n_outcomes / 1.7e-6)
    return max(
        abs(wr.mean() - mean_a) / (5.0 * math.sqrt(weak_var / n)),
        abs(wr.var(ddof=1) - weak_var) / var_tol,
        math.sqrt(max(n * float(kl.max()), 0.0) / level),
    )


def _verify_checks(cfg: RunConfig) -> list[dict]:
    vc = cfg.verify or VerifyConfig()
    if cfg.system is not None:
        dyn = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
        obs, rho = dyn.observable, dyn.initial_state
    else:
        obs = precession_qubit().observable
        rho = _coherent_probe(obs)  # the x-eigenstate for the stock qubit
    probe = _coherent_probe(obs)
    diam = obs.spectral_diameter
    checks: list[dict] = []

    # channel sanity: trace, and strong output commutes with A. Hermiticity
    # needs no measuring: _eigenbasis_map symmetrises every channel output
    # and DensityMatrix rejects a non-Hermitian one
    rng = substream(cfg.seed, 102)
    pm = PointerModel(width=max(WEAK_REGIME_FACTOR * diam, 10.0))
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
        "channel_trace", worst, 1e-12,
        f"worst trace defect {worst:.2e}",
    ))
    checks.append(_check(
        "strong_channel_commutes", worst_comm, 1e-10,
        f"worst commutator entry {worst_comm:.2e}",
    ))

    # exact-vs-perturbative gap falls off as width^-4 (coherent probe state)
    widths = np.array(sorted(vc.widths))
    in_regime = PointerModel(width=float(widths.min())).in_weak_regime(obs)
    gaps = []
    for w in widths:
        exact = weak_channel_exact(probe, obs, PointerModel(width=float(w)))
        pert = weak_channel_perturbative(probe, obs, PointerModel(width=float(w)))
        gaps.append(float(np.max(np.abs(exact.matrix - pert))))
    if not in_regime:
        checks.append(_check(
            "weak_expansion_convergence", 0.0, 0.0,
            f"widths {widths.tolist()} below {WEAK_REGIME_FACTOR * diam:.3g} "
            f"({WEAK_REGIME_FACTOR:g} x spectral diameter); asymptotic slope not judged",
            out_of_regime=True,
        ))
    elif min(gaps) <= 0:
        checks.append(_check(
            "weak_expansion_convergence", 0.0, 0.0,
            "observable has a single eigenspace; both channels are the identity",
        ))
    else:
        slope = _fit_loglog_slope(widths, np.array(gaps))
        checks.append(_check(
            "weak_expansion_convergence", abs(slope + 4.0), 0.1,
            f"log-log slope {slope:.3f} over widths {widths.tolist()}",
        ))

    # weak invasiveness: deficit scales as width^-4 with a stable coefficient
    if not in_regime:
        checks.append(_check(
            "weak_invasiveness_expansion", 0.0, 0.0,
            "pointer widths below the weak regime; coefficient fit not judged",
            out_of_regime=True,
        ))
    elif diam == 0:
        checks.append(_check(
            "weak_invasiveness_expansion", 0.0, 0.0,
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
            "weak_invasiveness_expansion", spread, 1.1,
            f"fitted width^4 coefficient spread x{spread:.4f} across widths {widths[:3].tolist()}",
        ))

    # purity drop approaches twice the fidelity deficit
    if diam == 0:
        checks.append(_check(
            "invasiveness_ratio_two", 0.0, 0.0,
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
            "invasiveness_ratio_two", ratio_err, 0.01,
            f"I1/I2 = {ratio:.5f} at width {w_ratio:g}",
        ))

    # sampled pointer statistics against the closed forms
    worst = _sampler_deviation(rho, obs, vc.n_samples, substream(cfg.seed, 107))
    checks.append(_check(
        "pointer_sampler_statistics", worst, 1.0,
        f"worst normalized deviation {worst:.3f} (1.0 = tolerance) at n = {vc.n_samples}",
    ))

    # positivity guard over the states the pipeline produces. Only
    # corrupt_state can fail it: the strong channel's output is a
    # DensityMatrix, which already rejects an eigenvalue below -1e-10
    states = [strong_channel(rho, obs).matrix]
    if vc.corrupt_state:
        states.append(-0.5 * np.eye(obs.dim))  # eigenvalue -0.5 at any dimension
    min_eval = min(float(np.linalg.eigvalsh(s).min()) for s in states)
    checks.append(_check(
        "state_positivity", -min_eval, 1e-10,
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


def _verify_tables(payload: dict) -> dict:
    return {"verification.csv": (
        ["check", "status", "margin", "detail"],
        ([c["name"], c["status"], c["margin"], c["detail"]] for c in payload["checks"]),
    )}


# ---------------------------------------------------------------------------
# sweep scenario


def run_sweep(cfg: RunConfig) -> dict:
    """Each grid point is the correlator ``estimate_correlator`` would give it,
    drawn from streams (seed, point_index, chunk), with the same checks and
    warnings; only work that repeats across points is shared.

    A kernel depends on the two times, the mode and, in weak mode only, the
    pointer, so the sweep builds one per distinct (t_first, t_second, pointer),
    with pointer None in strong mode, where the width does not enter. The
    weak-channel invasiveness depends on the width alone, so it is computed
    once per delta_p and repeated at each (n, tau) point. Nothing is kept
    beyond the call."""
    sw: SweepConfig = cfg.sweep
    dyn = _system_objects(cfg.system, cfg.tolerances.eigen_gap)
    obs, rho = dyn.observable, dyn.initial_state
    mc_wanted = bool(sw.n or sw.tau)

    axes = {
        "delta_p": list(sw.delta_p) or [None],
        "n": list(sw.n) or [None],
        "tau": list(sw.tau) or [None],
    }
    kernels: dict[tuple, _SeriesKernel] = {}
    rows: list[dict] = []
    point_index = 0
    for d in axes["delta_p"]:
        invasiveness = []
        if d is not None:
            pmw = PointerModel(width=d)
            meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pmw))
            pred = predicted_weak(rho, obs, pmw)
            invasiveness = [
                ("i1_measured", meas.i1),
                ("i1_predicted", pred.i1),
                ("i2_measured", meas.i2),
                ("i2_predicted", pred.i2),
            ]
        for n in axes["n"]:
            for t in axes["tau"]:
                coords = {"delta_p": d, "n": n, "tau": t}
                rows.extend({**coords, "metric": m, "value": v} for m, v in invasiveness)

                if mc_wanted:
                    t_first = cfg.plan.times[0]
                    t_second = t_first + t if t is not None else cfg.plan.times[1]
                    n_events = n if n is not None else sw.n_per_point
                    width = d if d is not None else (cfg.pointer.width if cfg.pointer else None)
                    pointer = PointerModel(width=width) if sw.mode == "weak" else None
                    _check_times(t_first, t_second)
                    _check_run_args(sw.mode, pointer, obs, n_events, stacklevel=2)
                    key = (t_first, t_second, pointer)
                    if key not in kernels:
                        kernels[key] = _SeriesKernel(dyn, t_first, t_second, sw.mode, pointer)
                    est = _estimate(kernels[key], n_events, cfg.seed, point_index, (1, 2))
                    rows.append({**coords, "metric": "corr_value", "value": est.value})
                    rows.append({**coords, "metric": "corr_std_error", "value": est.std_error})
                point_index += 1

    return {"axes": {k: [v for v in vs if v is not None] for k, vs in axes.items()}, "rows": rows}


def _sweep_tables(payload: dict) -> dict:
    # csv writes None, an axis the grid does not sweep, as an empty field
    return {"sweep.csv": (
        ["delta_p", "n", "tau", "metric", "value"],
        ([r["delta_p"], r["n"], r["tau"], r["metric"], r["value"]] for r in payload["rows"]),
    )}


# ---------------------------------------------------------------------------
# report envelope and emission


_SCENARIOS = {
    "budget": (run_budget, _budget_tables),
    "lg_run": (run_lg, _lg_tables),
    "verify": (run_verify, _verify_tables),
    "sweep": (run_sweep, _sweep_tables),
}


def execute(cfg: RunConfig) -> dict:
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    runner, _ = _SCENARIOS[cfg.scenario]
    payload = runner(cfg)
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


def write_report(report: dict, out_dir: str, fmt: str) -> list[str]:
    """Write report.json and/or scenario CSVs; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_json(fh, report)
            fh.write("\n")
        written.append(path)
    if fmt in ("csv", "both"):
        _, csv_tables = _SCENARIOS[report["scenario"]]
        for name, (header, rows) in csv_tables(report["payload"]).items():
            path = os.path.join(out_dir, name)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                write_csv(fh, header, rows)
            written.append(path)
    return written


def resolve_out_dir(cli_out: str | None, cfg: RunConfig) -> str:
    """CLI flag beats config, which beats the environment override, then the default."""
    if cli_out:
        return cli_out
    if cfg.output.dir:
        return cfg.output.dir
    return os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
