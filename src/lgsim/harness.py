"""Scenario runners behind the CLI: budget, lg_run, verify, sweep.

Each scenario is one ``_SCENARIOS`` entry: a runner that maps a validated
RunConfig to a JSON-ready payload dict, and a function that derives the
scenario's CSV tables, {file name: (header, rows)}, from that payload alone.
``execute`` wraps the payload in a report envelope carrying the schema
version, the resolved-config echo and ``meta``: wall clock and environment.
``write_report`` writes the envelope as report.json, with the bytes of the
stdlib's ``json.dump(indent=2, sort_keys=True)``, and each table as one CSV
file, both through ``writers``.
Reports are deterministic for a fixed (config, seed) apart from ``meta``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
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
from .errors import ValidationError
from .invasiveness import measure_invasiveness, predicted_weak
from .measurement import (
    WEAK_REGIME_FACTOR,
    PointerModel,
    _eigenbasis_map,
    _warn_if_not_weak,
    _weak_damping,
    _weak_draw,
    weak_channel_exact,
)
from .protocol import (
    CorrelatorEstimate,
    DynamicsSpec,
    _chunk_moments,
    _estimates,
    _moments,
    lg_statistic,
    macrorealism_bounds,
    precession_qubit,
)
from .quantum import (
    DensityMatrix,
    born_weights,
    expectation,
    pure_state,
    random_density_matrices,
    spectral_decompose,
    variance,
)
from .streams import BIT_GENERATOR, series_words, substream
from .writers import FloatText, write_csv, write_json

# events per sweep point when the grid has no n axis
SWEEP_N_EVENTS = 10_000


# ---------------------------------------------------------------------------
# config materialization


def _system_objects(system: SystemConfig) -> DynamicsSpec:
    """The configured system; an invalid matrix is refused under its config key."""
    key = "observable"
    try:
        obs = spectral_decompose(pairs_to_matrix(system.observable, system.dim))
        key = "initial_state"
        rho = DensityMatrix(pairs_to_matrix(system.initial_state, system.dim))
        key = "hamiltonian"  # the dimensions agree, so DynamicsSpec can refuse only H
        return DynamicsSpec(pairs_to_matrix(system.hamiltonian, system.dim), obs, rho)
    except ValidationError as exc:
        raise ValidationError(f"config.system.{key}: {exc}") from exc


def _estimate_dict(est: CorrelatorEstimate) -> dict:
    return {**asdict(est), "pair": list(est.pair)}


# ---------------------------------------------------------------------------
# budget scenario


def run_budget(cfg: RunConfig) -> dict:
    b = cfg.budget
    dyn = _system_objects(cfg.system) if cfg.system else None  # refuses a broken system
    if b.var_a is not None:
        var_a, var_source = b.var_a, "config"
    else:
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

    inp = BudgetInput(**{**asdict(b), "delta_p": cfg.pointer.width, "var_a": var_a})
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
            ["weak_first", rep["eps_target"], -(-inp["ensemble_size"] // inp["k"]),
             rep["waste_weak_per_measurement"], rep["waste_total_weak_scheme"],
             inp["ensemble_size"]],
            ["all_strong", rep["eps_target"], rep["strong_subensemble"],
             rep["waste_strong_per_measurement"], rep["waste_total_strong_scheme"],
             rep["total_strong_ensemble"]],
        ],
    )}


# ---------------------------------------------------------------------------
# lg_run scenario


def _lg_block(estimates: list[CorrelatorEstimate], scale: float) -> dict:
    """K_k of one mode's correlators, its macrorealist range and whether it is
    broken. K_k is multilinear in readings that lie in [-c, c], so that range
    is ``scale`` = c^2 times the +/-1 one, exact when -c and c are eigenvalues."""
    k = len(estimates)
    value = lg_statistic([e.value for e in estimates])
    lo, hi = (scale * b for b in macrorealism_bounds(k))
    return {
        "k": k,
        "value": value,
        "std_error": math.sqrt(sum(e.std_error**2 for e in estimates)),
        "bounds": [lo, hi],
        "violates_macrorealism": not lo <= value <= hi,
    }


def run_lg(cfg: RunConfig) -> dict:
    dyn, plan = _system_objects(cfg.system), cfg.plan  # the config holds the SeriesPlan
    pm = PointerModel(width=cfg.pointer.width)

    # one batch: strong series s on stream s, then weak series s on stream k + s
    modes = ((None, cfg.run.n_strong), (pm, cfg.run.n_weak))
    estimates = _estimates(dyn, [(pair, *plan.pair_times(pair), pointer, n)
                                 for pointer, n in modes for pair in plan.pairs], cfg.seed)
    strong, weak = estimates[:plan.k], estimates[plan.k:]
    # the warning and c = max|a| come after the batch, which refuses an
    # observable far from unit scale with its one error line; c * c
    # overflows to inf where c ** 2 would raise
    _warn_if_not_weak(pm, dyn.observable, stacklevel=2)
    c = float(np.abs(dyn.observable.eigenvalues).max())

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
            "lg": _lg_block(strong, c * c),
        },
        "weak": {
            "mode": "weak",
            "pointer_width": pm.width,
            "n_per_series": cfg.run.n_weak,
            "correlators": [_estimate_dict(e) for e in weak],
            "lg": _lg_block(weak, c * c),
        },
        "comparison": {"per_pair": per_pair},
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


def _check(name: str, value: float, limit: float, detail: str) -> dict:
    """A check passes when ``value <= limit``; its margin is ``limit - value``."""
    status = "pass" if value <= limit else "fail"
    return {"name": name, "status": status, "margin": float(limit - value), "detail": detail}


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


def _verify_width(obs) -> float:
    """Verify's pointer width: in the weak regime of ``obs``, with a position
    variance of at least 50."""
    return max(WEAK_REGIME_FACTOR * obs.spectral_diameter, 10.0)


def _sampler_deviation(rho, obs, n: int, seed: int, stream: int) -> float:
    """Worst deviation of n weak and n strong readings from their exact law, in
    tolerances (1.0 = tolerance). ``_chunk_moments`` runs the chunks on stream
    ``stream``; each takes the outcome counts and m weak readings of one
    ``_weak_draw``, the draw behind every weak correlator, and keeps only the
    counts and the readings' moments. The chunks may run on several threads
    and so append their counts in any order; integer sums are exact in any.
    The weak mean gets 5 standard errors. As
    s^2 - var = (n (S - var) + var - n (m - mean)^2) / (n-1), S the mean squared
    deviation from the true mean, the weak variance gets 5 standard errors of S
    (from the exact fourth central moment) plus a 5-sigma m, and at least 2%.
    Each strong outcome count K_i scores sqrt(n KL(K_i/n || p_i) / L) with
    L = ln(2d / 1.7e-6), and P(n KL > L) <= 2 e^-L for any n and p (Chernoff).
    So correct code fails at most 1.7e-6 of the time on the strong counts, rare
    outcomes included, plus 1.7e-6 on the weak terms while S and m are near
    normal (pointer variance >= 50 against a spectral diameter <= width/5). The
    sum is a union bound, so it holds though both come from the same draw.

    The law's figures come first, computed so that an overflow gives inf. An
    observable so far from unit scale that one of them is not finite is
    refused before anything is drawn: an infinite tolerance would pass any
    readings."""
    width = _verify_width(obs)
    s2 = width * width / 2.0  # the pointer's position variance
    with np.errstate(over="ignore", invalid="ignore"):
        p = born_weights(rho, obs)
        mean_a = expectation(rho, obs)
        var_a = variance(rho, obs)
        weak_var = s2 + var_a
        m4 = float(np.dot(p, (obs.eigenvalues - mean_a) ** 4)) + 6.0 * s2 * var_a + 3.0 * s2 * s2
    # Python floats: an overflow gives inf, and inf - inf a NaN, neither of
    # which raises or warns
    spread = 5.0 * math.sqrt(max(m4 - weak_var * weak_var, 0.0) * n) + 25.0 * weak_var
    var_tol = max(0.02 * weak_var, spread / (n - 1))
    if not all(map(math.isfinite, (mean_a, weak_var, m4, spread, var_tol))):
        raise ValidationError(
            f"system.observable: spectral diameter {obs.spectral_diameter:g} is too large for "
            f"verify; its pointer sampler check's tolerances overflow float64 at n_samples {n}")
    pm = PointerModel(width=width)

    counts = []

    def draw(rng, m):
        k, readings = _weak_draw(rho, obs, pm, m, rng)
        counts.append(k)
        return _moments(readings)
    total, sq_dev = _chunk_moments(n, series_words(seed, [stream], [n])[0], draw)
    q = np.sum(counts, axis=0) / n
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0; a count where p_i = 0 scores inf
        kl = (np.where(q > 0, q * np.log(q / p), 0.0)
              + np.where(q < 1, (1 - q) * np.log((1 - q) / (1 - p)), 0.0))
    level = math.log(2 * obs.n_outcomes / 1.7e-6)
    return max(
        abs(total / n - mean_a) / (5.0 * math.sqrt(weak_var / n)),
        abs(sq_dev / (n - 1) - weak_var) / var_tol,
        math.sqrt(max(n * float(kl.max()), 0.0) / level),
    )


# A width enters the w^-4 coefficient fit only where its effect, x^2 with
# x = (diameter / 2w)^2, is at least 1e3 float64 ulps: the purities it is a
# difference of are O(1) and known to a few ulps. Just above the bound,
# round-off moved a fitted coefficient by at most 6% against the 10% spread
# tolerance (scans over d = 2 to 24); at 56 ulps it moved a qutrit's
# coefficient by 29%.
_RESOLVABLE_EFFECT = 1e3 * np.finfo(float).eps
# verify's widest pointer, the I1 = 2 I2 check's, in spectral diameters
_RATIO_WIDTH_FACTOR = 50.0


def _unjudged(name: str, detail: str) -> dict:
    return {"name": name, "status": "out_of_regime", "margin": 0.0, "detail": detail}


def _width_law_checks(obs, probe: DensityMatrix, widths: np.ndarray) -> list[dict]:
    """The weak channel's width laws on ``probe``, for sorted ``widths``. Whether
    the coefficient fit can be judged is decided before anything is built, so
    an unjudged fit builds no channel and raises no warning."""
    diam = obs.spectral_diameter
    if diam == 0:
        return [_unjudged(name, f"observable has a single eigenspace; {why}") for name, why in (
            ("weak_invasiveness_expansion", "nothing is disturbed"),
            ("invasiveness_ratio_two", "ratio law is vacuous"),
        )]
    # the fit's widths: the distinct ones (not by np.unique, whose first call
    # adds about 1.5 MB to peak RSS under numpy 2) at which the w^-4 effect is
    # resolvable. The effect falls with width, so the widest are dropped; it is
    # computed only in the weak regime, where it cannot overflow
    distinct = sorted(set(widths.tolist()))
    weak = PointerModel(width=distinct[0]).in_weak_regime(obs)
    fit = [w for w in distinct if weak and (diam / (2.0 * w)) ** 4 >= _RESOLVABLE_EFFECT]
    unresolved = (f"widths {distinct[len(fit):]} put (diameter / 2 width)^4 below "
                  f"{_RESOLVABLE_EFFECT:.3g} (1e3 float64 ulps) and are not fitted")
    if not weak:
        skip = "pointer widths below the weak regime; coefficient fit not judged"
    elif len(fit) < 3:
        # parse_config asks for three distinct widths, so unresolvable ones
        # are what leave fewer
        skip = (f"{unresolved}, leaving {len(fit)} of the three distinct widths the fit "
                "needs; coefficient fit not judged")
    else:
        skip = None

    if skip is None:
        coeffs_i1, coeffs_i2 = [], []
        for w in fit:
            pm = PointerModel(width=w)
            meas = measure_invasiveness(probe, weak_channel_exact(probe, obs, pm))
            pred = predicted_weak(probe, obs, pm)
            coeffs_i1.append(abs(meas.i1 - pred.i1) * w**4)
            coeffs_i2.append(abs(meas.i2 - pred.i2) * w**4)
        spread = max(max(c) / min(c) if min(c) > 0 else math.inf for c in (coeffs_i1, coeffs_i2))
        checks = [_check(
            "weak_invasiveness_expansion", spread, 1.1,
            f"fitted width^4 coefficient spread x{spread:.4f} across widths {fit}"
            + (f"; {unresolved}" if len(fit) < len(distinct) else ""),
        )]
    else:
        checks = [_unjudged("weak_invasiveness_expansion", skip)]

    # purity drop approaches twice the overlap drop; x = 1e-4 at any diameter
    w_ratio = _RATIO_WIDTH_FACTOR * diam
    meas = measure_invasiveness(probe, weak_channel_exact(probe, obs, PointerModel(width=w_ratio)))
    ratio = meas.i1 / meas.i2 if meas.i2 else math.nan
    ratio_err = abs(ratio / 2.0 - 1.0) if math.isfinite(ratio) else math.inf
    checks.append(_check(
        "invasiveness_ratio_two", ratio_err, 0.01, f"I1/I2 = {ratio:.5f} at width {w_ratio:g}"
    ))
    return checks


# verify maps its states in blocks whose (block, n_outcomes, d, d)
# complex intermediate holds at most this many bytes
_STACK_BYTES = 1 << 20


def _verify_checks(cfg: RunConfig) -> list[dict]:
    vc = cfg.verify or VerifyConfig()
    dyn = _system_objects(cfg.system) if cfg.system else precession_qubit()
    obs, probe = dyn.observable, _coherent_probe(dyn.observable)
    rho = dyn.initial_state if cfg.system else probe  # the x-eigenstate for the stock qubit
    # sampled pointer statistics against the closed forms, first: the check
    # refuses an observable whose tolerances overflow float64, and with them
    # every pointer verify builds, up to 50 x diameter, stays in WIDTH_RANGE
    sampler = _sampler_deviation(rho, obs, vc.n_samples, cfg.seed, 107)
    checks: list[dict] = []

    # channel sanity on the configured state, then on n_random random states
    # drawn a block at a time, each stack mapped through both channels: trace,
    # strong output commutes with A, and the smallest eigenvalue of every
    # output. Hermiticity needs no measuring: _eigenbasis_map symmetrises
    # every output. Per-stack values are reduced with numpy, so a NaN fails
    rng = substream(cfg.seed, 102)
    tables = (np.eye(obs.n_outcomes), _weak_damping(obs, PointerModel(width=_verify_width(obs))))
    a = obs.matrix()
    block = max(1, _STACK_BYTES // (16 * obs.n_outcomes * obs.dim**2))
    stacks = itertools.chain([rho.matrix[None]], (
        random_density_matrices(min(block, vc.n_random - start), obs.dim, rng)
        for start in range(0, vc.n_random, block)))
    traces, comms, evals = [], [], []
    for states in stacks:
        strong, weak = (_eigenbasis_map(states, obs, w) for w in tables)
        for out in (strong, weak):
            traces.append(np.abs(out.trace(axis1=1, axis2=2).real - 1.0).max())
            evals.append(np.linalg.eigvalsh(out)[:, 0].min())
        comms.append(np.abs(strong @ a - a @ strong).max())
    worst, worst_comm, min_eval = float(np.max(traces)), float(np.max(comms)), float(np.min(evals))
    checks.append(_check(
        "channel_trace", worst, 1e-12,
        f"worst trace defect {worst:.2e}",
    ))
    checks.append(_check(
        "strong_channel_commutes", worst_comm, 1e-10,
        f"worst commutator entry {worst_comm:.2e}",
    ))

    # invasiveness deficit ~ width^-4 with a stable coefficient, and
    # I1 = 2 I2, on the coherent probe
    checks.extend(_width_law_checks(obs, probe, np.array(sorted(vc.widths))))

    checks.append(_check(
        "pointer_sampler_statistics", sampler, 1.0,
        f"worst normalized deviation {sampler:.3f} (1.0 = tolerance) at n = {vc.n_samples}",
    ))

    # corrupt_state adds -0.5 I, eigenvalue -0.5 at any dimension, to the
    # judged outputs
    if vc.corrupt_state:
        min_eval = min(min_eval, -0.5)
    checks.append(_check(
        "state_positivity", -min_eval, 1e-10,
        f"smallest eigenvalue of the channel outputs {min_eval:.2e}",
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
    """Each grid point, in (delta_p, n, tau) order, is a correlator of pair
    (1, 2) with the law (t_first, t_second, pointer, n), the pointer None in
    strong mode, where the width does not enter. Distinct law s, counted in
    order of first appearance, draws from streams (seed, s, chunk) alone, and
    every grid point of that law takes its one estimate: a strong sweep draws
    each (n, tau) once for all its widths, and a repeated axis value repeats
    a draw instead of making a new one. ``rows`` holds each point's
    ``corr_value`` and ``corr_std_error``; a grid with no n or tau axis has
    no correlator and so no rows.

    The weak-channel invasiveness depends on the width alone, so
    ``invasiveness`` holds one record per delta_p entry, in axis order, each
    computed before anything is drawn: its measured and predicted I1 and I2,
    for any state. A width whose predicted invasiveness overflows float64 is
    refused. The distinct laws are then one ``_estimates`` batch, which builds
    one kernel per distinct (t_first, t_second, pointer) and refuses a law
    whose sums overflow by naming its first grid point; the kernel checks its
    times, and ``parse_config`` already holds the mode, the weak pointer and
    n to their ranges. Each narrow width warns once: a delta_p width from its
    weak channel, the pointer of a weak sweep without a delta_p axis before
    the grid. Nothing is kept beyond the call."""
    sw: SweepConfig = cfg.sweep
    dyn = _system_objects(cfg.system)
    obs, rho = dyn.observable, dyn.initial_state
    if sw.mode == "weak" and not sw.delta_p:
        _warn_if_not_weak(PointerModel(width=cfg.pointer.width), obs, stacklevel=2)

    axes = {
        "delta_p": list(sw.delta_p) or [None],
        "n": list(sw.n) or [None],
        "tau": list(sw.tau) or [None],
    }
    invasiveness = []
    # overflows become inf or NaN, which the width refusal turns into a
    # ValidationError
    with np.errstate(over="ignore", invalid="ignore"):
        for d in sw.delta_p:
            pmw = PointerModel(width=d)
            # a gap (a_i - a_j)^2 that overflows damps its coherence to 0, as it should
            meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pmw))
            pred = predicted_weak(rho, obs, pmw)
            if not math.isfinite(pred.i1):
                raise ValidationError(
                    f"sweep.delta_p {d:g}: the predicted purity drop sum_ij (a_i - a_j)^2 "
                    "|P_i rho P_j|^2 / (2 delta_p^2) overflows float64; the observable's "
                    f"largest |eigenvalue| is {np.abs(obs.eigenvalues).max():g}")
            invasiveness.append({"delta_p": d, "i1_measured": meas.i1, "i1_predicted": pred.i1,
                                 "i2_measured": meas.i2, "i2_predicted": pred.i2})

    rows: list[dict] = []
    if sw.n or sw.tau:
        grid = [{"delta_p": d, "n": n, "tau": t} for d, n, t in itertools.product(*axes.values())]
        # widths and counts are positive, so `or` only replaces an absent axis
        t_first, t_second = cfg.plan.times[:2]
        laws = [(t_first, t_second if c["tau"] is None else t_first + c["tau"],
                 PointerModel(width=c["delta_p"] or cfg.pointer.width) if sw.mode == "weak" else None,
                 c["n"] or SWEEP_N_EVENTS) for c in grid]
        index, starts = {}, []  # law -> s; s -> grid index of its first point
        for i, law in enumerate(laws):
            if law not in index:
                index[law] = len(starts)
                starts.append(i)
        drawn = _estimates(dyn, [((1, 2), *laws[i]) for i in starts], cfg.seed,
                           where=lambda s: "sweep point " + ", ".join(
                               f"{k} {v:g}" for k, v in grid[starts[s]].items() if v is not None))
        for c, law in zip(grid, laws):
            est = drawn[index[law]]
            rows.append({**c, "metric": "corr_value", "value": est.value})
            rows.append({**c, "metric": "corr_std_error", "value": est.std_error})

    return {"axes": {k: [v for v in vs if v is not None] for k, vs in axes.items()},
            "invasiveness": invasiveness, "rows": rows}


def _sweep_tables(payload: dict) -> dict:
    # csv writes None, an axis the grid does not sweep, as an empty field
    invasiveness = ["delta_p", "i1_measured", "i1_predicted", "i2_measured", "i2_predicted"]
    return {
        "sweep.csv": (
            ["delta_p", "n", "tau", "metric", "value"],
            ([r["delta_p"], r["n"], r["tau"], r["metric"], r["value"]] for r in payload["rows"]),
        ),
        "invasiveness.csv": (
            invasiveness, ([r[k] for k in invasiveness] for r in payload["invasiveness"]),
        ),
    }


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
            "env": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                    "bit_generator": BIT_GENERATOR},
        },
    }


def payload_json(report: dict) -> str:
    """Canonical payload serialization used for determinism comparisons."""
    return json.dumps(report["payload"], sort_keys=True)


def write_report(report: dict, out_dir: str, fmt: str) -> list[str]:
    """Write report.json and/or scenario CSVs; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    floats = FloatText()  # each distinct float is formatted once for all files
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_json(fh, report, floats)
            fh.write("\n")
        written.append(path)
    if fmt in ("csv", "both"):
        _, csv_tables = _SCENARIOS[report["scenario"]]
        for name, (header, rows) in csv_tables(report["payload"]).items():
            path = os.path.join(out_dir, name)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                write_csv(fh, header, rows, floats)
            written.append(path)
    return written

