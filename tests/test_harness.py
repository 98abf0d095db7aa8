import csv
import dataclasses
import importlib.util
import inspect
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lgsim import harness
from lgsim.config import parse_config
from lgsim.harness import (
    _sampler_deviation,
    execute,
    payload_json,
    resolve_out_dir,
    run_budget,
    run_lg,
    run_sweep,
    run_verify,
    write_report,
)
from lgsim.errors import WeakRegimeWarning
from lgsim.invasiveness import measure_invasiveness, predicted_weak
from lgsim.measurement import PointerModel, weak_channel_exact
from lgsim.protocol import _SeriesKernel, estimate_correlator
from lgsim.quantum import DensityMatrix, Observable, pauli, plus_state, spectral_decompose
from lgsim.streams import substream

import test_invasiveness
import test_quantum

SX = [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]
SZ = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
PLUS = [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
TAU = math.pi / 3


def lg_cfg(n_strong=20_000, n_weak=40_000, seed=5):
    return parse_config({
        "scenario": "lg_run",
        "seed": seed,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
        "pointer": {"width": 10.0},
        "plan": {"k": 3, "times": [0.0, TAU, 2 * TAU]},
        "run": {"n_strong": n_strong, "n_weak": n_weak},
    })


def _pairs(m) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def sweep_cfg(grid: str) -> dict:
    """A sweep config: "strong" (2 widths x 2 n x 3 tau, one tau repeated),
    "weak" (2 widths x 2 tau) or "stock" (``configs/sweep.json``, no tau)."""
    if grid == "stock":
        return json.loads((Path(__file__).parent.parent / "configs" / "sweep.json").read_text())
    sweep = {"delta_p": [10.0, 25.0], "tau": [0.5, 1.2, 0.5], "n": [300, 1_000], "mode": grid}
    if grid == "weak":
        sweep = {"delta_p": [10.0, 25.0], "tau": [0.5, 1.2], "mode": grid, "n_per_point": 2_000}
    return {
        "scenario": "sweep", "seed": 9,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
        "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
        "sweep": sweep,
    }


def budget_cfg(**budget):
    section = {"ensemble_size": 10**6, "k": 4, "delta_p": 10.0, "var_a": 1.0}
    section.update(budget)
    return parse_config({"scenario": "budget", "seed": 1, "budget": section})


class TestRunBudget:
    def test_benchmark_payload(self):
        payload = run_budget(budget_cfg())
        rep = payload["report"]
        assert rep["eps_target"] == pytest.approx(0.0141421356, abs=1e-9)
        assert rep["strong_subensemble"] == 5000
        assert rep["total_strong_ensemble"] == 40_000
        assert rep["waste_weak_per_measurement"] == 2500
        assert rep["waste_strong_per_measurement"] == 5000

    def test_zero_variance_config(self):
        payload = run_budget(budget_cfg(var_a=0.0))
        rep = payload["report"]
        assert rep["waste_weak_per_measurement"] == 0
        assert rep["waste_total_strong_scheme"] == 0

    def test_variance_resolved_from_system(self):
        cfg = parse_config({
            "scenario": "budget",
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
            "budget": {"ensemble_size": 10**6, "k": 4, "delta_p": 10.0},
        })
        payload = run_budget(cfg)
        assert payload["input"]["var_a"] == pytest.approx(1.0, abs=1e-12)
        assert payload["input"]["var_a_source"] == "system"

    def test_zero_variance_from_system_warns(self):
        # the stock qubit starts in |0>, an eigenstate of sigma_z: Var(A) = 0
        # and the budget says no strong members are needed; the warning names
        # the key that sets the variance, and the payload is unchanged
        cfg = parse_config({
            "scenario": "budget",
            "system": STOCK_CONFIGS["lg_run"]["system"],
            "pointer": {"width": 10},
            "budget": {"ensemble_size": 10**6, "k": 4},
        })
        with pytest.warns(UserWarning, match=r"budget\.var_a") as record:
            payload = run_budget(cfg)
        assert len(record) == 1
        assert payload["input"]["var_a"] == 0.0
        assert payload["report"]["strong_subensemble"] == 0

    def test_stock_budget_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_budget(parse_config(STOCK_CONFIGS["budget"]))

    def test_delta_p_resolved_from_pointer(self):
        cfg = parse_config({
            "scenario": "budget",
            "pointer": {"width": 10.0},
            "budget": {"ensemble_size": 10**6, "k": 4, "var_a": 1.0},
        })
        assert run_budget(cfg)["input"]["delta_p"] == 10.0


@pytest.fixture(scope="module")
def payload():
    return run_lg(lg_cfg())


class TestRunLg:
    def test_k3_violation_detected(self, payload):
        k3 = payload["strong"]["k3"]
        assert abs(k3["value"] - 1.5) < 4 * k3["std_error"]
        assert k3["violates_macrorealism"]

    def test_weak_k3_agrees(self, payload):
        ks, kw = payload["strong"]["k3"], payload["weak"]["k3"]
        combined = math.hypot(ks["std_error"], kw["std_error"])
        assert abs(ks["value"] - kw["value"]) < 5 * combined

    def test_payload_blocks(self, payload):
        assert sorted(payload) == ["comparison", "plan", "strong", "weak"]
        assert payload["plan"] == {
            "k": 3, "times": [0.0, TAU, 2 * TAU], "pairs": [[1, 2], [2, 3], [1, 3]],
        }

    def test_correlator_table_shape(self, payload):
        for mode in ("strong", "weak"):
            table = payload[mode]["correlators"]
            assert [c["pair"] for c in table] == [[1, 2], [2, 3], [1, 3]]
            assert all(c["std_error"] > 0 for c in table)

    def test_variance_inflation_near_prediction(self, payload):
        pred = payload["comparison"]["predicted_variance_inflation_per_event"]
        assert pred == 50.0
        for pair in payload["comparison"]["per_pair"]:
            assert pair["variance_inflation_per_event"] == pytest.approx(pred, rel=0.10)

    def test_vanishing_gaps_drive_k3_to_one(self):
        # repeated measurement limit: every correlator tends to 1, so K3 does
        cfg = parse_config({
            "scenario": "lg_run",
            "seed": 5,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
            "pointer": {"width": 10.0},
            "plan": {"k": 3, "times": [0.0, 1e-6, 2e-6]},
            "run": {"n_strong": 20_000, "n_weak": 20_000},
        })
        k3 = run_lg(cfg)["strong"]["k3"]
        assert abs(k3["value"] - 1.0) < 5 * k3["std_error"] + 1e-9

    def test_k3_absent_for_k4(self):
        cfg = parse_config({
            "scenario": "lg_run",
            "seed": 5,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
            "pointer": {"width": 10.0},
            "plan": {"k": 4, "times": [0.0, 1.0, 2.0, 3.0]},
            "run": {"n_strong": 2000, "n_weak": 2000},
        })
        payload = run_lg(cfg)
        assert payload["strong"]["k3"] is None
        assert len(payload["strong"]["correlators"]) == 4


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self):
        a = execute(lg_cfg(n_strong=5_000, n_weak=10_000))
        b = execute(lg_cfg(n_strong=5_000, n_weak=10_000))
        assert payload_json(a) == payload_json(b)
        assert a["meta"] != b["meta"] or a["meta"]["duration_s"] == b["meta"]["duration_s"]

    def test_seed_changes_results(self):
        a = execute(lg_cfg(seed=5, n_strong=5_000, n_weak=5_000))
        b = execute(lg_cfg(seed=6, n_strong=5_000, n_weak=5_000))
        assert payload_json(a) != payload_json(b)


class TestRunVerify:
    def test_default_battery_passes(self):
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"n_samples": 50_000, "n_random": 40}})
        payload = run_verify(cfg)
        assert payload["passed"]
        assert {c["status"] for c in payload["checks"]} == {"pass"}
        assert [c["name"] for c in payload["checks"]] == [
            "channel_trace", "strong_channel_commutes", "weak_expansion_convergence",
            "weak_invasiveness_expansion", "invasiveness_ratio_two",
            "pointer_sampler_statistics", "state_positivity",
        ]

    @pytest.mark.filterwarnings("ignore::lgsim.errors.WeakRegimeWarning")
    @pytest.mark.filterwarnings("ignore::lgsim.errors.PerturbationAccuracyWarning")
    def test_narrow_pointer_flagged_not_failed(self):
        # the narrow widths legitimately trip the weak-regime guardrails
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"widths": [1.0, 2.0], "n_samples": 20_000,
                                        "n_random": 20}})
        payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["weak_expansion_convergence"]["status"] == "out_of_regime"
        assert by_name["weak_invasiveness_expansion"]["status"] == "out_of_regime"
        assert payload["passed"]
        assert payload["n_out_of_regime"] == 2

    def test_user_system_with_mixed_state(self):
        # invasiveness checks probe with a coherent pure state built from
        # the observable, so a mixed configured state must not trip them
        cfg = parse_config({
            "scenario": "verify", "seed": 3,
            "system": {
                "dim": 2,
                "hamiltonian": [[1, 0], [0, 0], [0, 0], [-1, 0]],
                "observable": [[0, 0], [1, 0], [1, 0], [0, 0]],
                "initial_state": [[0.6, 0], [0, 0], [0, 0], [0.4, 0]],
            },
            "verify": {"n_samples": 20_000, "n_random": 20},
        })
        payload = run_verify(cfg)
        assert payload["passed"], [c for c in payload["checks"] if c["status"] == "fail"]

    def test_corrupt_state_injection_fails_positivity(self):
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"corrupt_state": True, "n_samples": 20_000,
                                        "n_random": 20}})
        payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["state_positivity"]["status"] == "fail"
        assert not payload["passed"]


def _biased_strong(f, rho, obs, n, rng):
    readings = f(rho, obs, n, rng)
    readings[::20] = obs.eigenvalues[0]  # one reading in 20 forced to the first outcome
    return readings


# each judged verify check with a defect it must catch: the function it checks,
# as lgsim.harness calls it, wrapped to push its result off the exact value
BROKEN = {
    "weak_channel_exact": (
        "channel_trace", lambda f, *a: DensityMatrix(f(*a).matrix * (1.0 + 1e-11))),
    "strong_channel": ("strong_channel_commutes", lambda f, rho, obs: rho),
    "weak_channel_perturbative": (
        "weak_expansion_convergence",
        lambda f, rho, obs, pm: f(rho, obs, PointerModel(width=1.01 * pm.width))),
    "predicted_weak": (
        "weak_invasiveness_expansion",
        lambda f, rho, obs, pm: f(rho, obs, PointerModel(width=1.001 * pm.width))),
    "measure_invasiveness": (
        "invasiveness_ratio_two", lambda f, *a: dataclasses.replace(f(*a), i1=1.02 * f(*a).i1)),
    "sample_weak_readings": ("pointer_sampler_statistics", lambda f, *a: 1.1 * f(*a)),
    "sample_strong_readings": ("pointer_sampler_statistics", _biased_strong),
}
# library identities that hold for any input, so unit tests check them and
# verify does not: the function, the unit test that must catch its defect, and
# the defect
BROKEN_IDENTITY = {
    "spectral_decompose": (
        test_quantum.TestSpectralDecompose.test_random_hermitian_reconstructs,
        lambda f, *a, **k: Observable(f(*a, **k).eigenvalues + 1e-8, f(*a, **k).projectors)),
    "purity": (
        test_quantum.TestEvolve.test_purity_preserved_for_random_pairs,
        lambda f, rho: f(rho) + 1e-8 * rho.matrix[0, 0].real),
    "predicted_strong": (
        test_invasiveness.TestPredictedStrong.test_matches_measurement_exactly,
        lambda f, *a: dataclasses.replace(f(*a), i1=f(*a).i1 + 1e-9)),
    "variance": (
        test_invasiveness.TestPredictedWeak.test_double_sum_identity_random_inputs,
        lambda f, *a: f(*a) + 1e-9),
}
VERIFY_SMALL = {"scenario": "verify", "seed": 3, "verify": {"n_samples": 20_000, "n_random": 20}}


class TestVerifyChecksCanFail:
    @pytest.mark.parametrize("function", sorted(BROKEN))
    def test_defect_fails_its_check(self, monkeypatch, function):
        check, wrap = BROKEN[function]
        original = getattr(harness, function)
        monkeypatch.setattr(harness, function, lambda *a, **k: wrap(original, *a, **k))
        payload = run_verify(parse_config(VERIFY_SMALL))
        assert {c["name"]: c["status"] for c in payload["checks"]}[check] == "fail"
        assert not payload["passed"]

    def test_every_judged_check_has_a_defect(self):
        # state_positivity's failing input is corrupt_state, tested above
        names = {c["name"] for c in run_verify(parse_config(VERIFY_SMALL))["checks"]}
        assert names - {"state_positivity"} == {check for check, _ in BROKEN.values()}

    @pytest.mark.parametrize("function", sorted(BROKEN_IDENTITY))
    def test_defect_fails_its_unit_test(self, monkeypatch, rng, function):
        test, wrap = BROKEN_IDENTITY[function]
        module = inspect.getmodule(test)
        original = getattr(module, function)
        monkeypatch.setattr(module, function, lambda *a, **k: wrap(original, *a, **k))
        with pytest.raises(AssertionError):
            test(None, rng)  # the unit tests keep no instance state


class TestSamplerStatistics:
    # verify's stock probe (sigma_z in |+>), and a qutrit whose strong
    # readings have a spread-out variance of their own
    PROBES = {
        "qubit": (spectral_decompose(pauli("z")), plus_state()),
        "qutrit": (spectral_decompose(np.diag([0.0, 1.0, 3.0])),
                   DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))),
    }

    @pytest.mark.parametrize("n", [100, 1_000, 20_000])
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_no_false_failures_over_200_seeds(self, probe, n):
        obs, rho = self.PROBES[probe]
        worst = max(_sampler_deviation(rho, obs, n, substream(seed, 107)) for seed in range(200))
        assert worst <= 1.0

    def test_rare_outcome_no_false_failures_over_1000_seeds(self):
        # n p = 1 for the rare outcome, where a normal approximation of the
        # strong readings' moments failed seed 12
        obs = spectral_decompose(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.diag([0.99, 0.01]).astype(complex))
        worst = max(_sampler_deviation(rho, obs, 100, substream(seed, 107)) for seed in range(1000))
        assert worst <= 1.0


class TestRunSweep:
    def test_invasiveness_slope_minus_two(self):
        cfg = parse_config({
            "scenario": "sweep", "seed": 2,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
            "sweep": {"delta_p": [10.0, 20.0, 40.0, 80.0]},
        })
        rows = run_sweep(cfg)["rows"]
        pts = [(r["delta_p"], r["value"]) for r in rows if r["metric"] == "i1_measured"]
        slope = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_stderr_slope_minus_half(self):
        cfg = parse_config({
            "scenario": "sweep", "seed": 2,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
            "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
            "sweep": {"n": [1_000, 10_000, 100_000]},
        })
        rows = run_sweep(cfg)["rows"]
        pts = [(r["n"], r["value"]) for r in rows if r["metric"] == "corr_std_error"]
        slope = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_tau_sweep_tracks_cosine(self):
        cfg = parse_config({
            "scenario": "sweep", "seed": 2,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
            "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
            "sweep": {"tau": [0.5, 1.0, 2.0], "n_per_point": 40_000},
        })
        rows = run_sweep(cfg)["rows"]
        values = {r["tau"]: r["value"] for r in rows if r["metric"] == "corr_value"}
        errors = {r["tau"]: r["value"] for r in rows if r["metric"] == "corr_std_error"}
        for tau in (0.5, 1.0, 2.0):
            assert abs(values[tau] - math.cos(tau)) < 5 * errors[tau]

    @pytest.mark.parametrize("grid", ["strong", "weak", "stock"])
    def test_point_is_its_own_estimate_correlator(self, grid):
        # kernels and invasiveness blocks are shared across points; every row
        # must still be what a point computed alone gives, bitwise. The weak
        # grid fails if a kernel is shared between widths, the strong one
        # repeats a tau, and the stock one has no tau axis
        cfg = parse_config(sweep_cfg(grid))
        sw = cfg.sweep
        dyn = harness._system_objects(cfg.system, cfg.tolerances.eigen_gap)
        obs, rho = dyn.observable, dyn.initial_state
        t1 = cfg.plan.times[0]
        want = []
        grid_points = itertools.product(sw.delta_p or [None], sw.n or [None], sw.tau or [None])
        for point_index, (d, n, tau) in enumerate(grid_points):
            coords = {"delta_p": d, "n": n, "tau": tau}
            pm = PointerModel(width=d)
            meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pm))
            pred = predicted_weak(rho, obs, pm)
            for metric, value in (("i1_measured", meas.i1), ("i1_predicted", pred.i1),
                                  ("i2_measured", meas.i2), ("i2_predicted", pred.i2)):
                want.append({**coords, "metric": metric, "value": value})
            est = estimate_correlator(
                dyn, t1, t1 + tau if tau is not None else cfg.plan.times[1], sw.mode,
                n if n is not None else sw.n_per_point, cfg.seed,
                pm if sw.mode == "weak" else None, stream_base=point_index,
            )
            want.append({**coords, "metric": "corr_value", "value": est.value})
            want.append({**coords, "metric": "corr_std_error", "value": est.std_error})
        assert run_sweep(cfg)["rows"] == want

    @pytest.mark.parametrize("mode, kernels", [("strong", 3), ("weak", 2 * 3)])
    def test_builds_each_kernel_and_channel_once(self, monkeypatch, mode, kernels):
        # 2 widths x 2 n x 3 tau: a strong kernel depends on tau alone, a weak
        # one on the width too, and the weak channel on the width alone
        calls = {"kernel": 0, "channel": 0}
        init, channel = _SeriesKernel.__init__, harness.weak_channel_exact

        def counting_init(self, *args):
            calls["kernel"] += 1
            init(self, *args)

        def counting_channel(*args):
            calls["channel"] += 1
            return channel(*args)

        monkeypatch.setattr(_SeriesKernel, "__init__", counting_init)
        monkeypatch.setattr(harness, "weak_channel_exact", counting_channel)
        cfg = sweep_cfg(mode)
        cfg["sweep"]["tau"] = [0.5, 1.0, 1.5]
        cfg["sweep"]["n"] = [200, 300]
        rows = run_sweep(parse_config(cfg))["rows"]
        assert len(rows) == 2 * 2 * 3 * 6
        assert calls == {"kernel": kernels, "channel": 2}

    @pytest.mark.parametrize("category", [WeakRegimeWarning, UserWarning])
    def test_warnings_name_run_sweep(self, category):
        if category is WeakRegimeWarning:
            # width 1 is below 5 x the spectral diameter 2 of sigma_z; both the
            # weak channel and the Monte Carlo checks warn
            data = {
                "scenario": "sweep", "seed": 3,
                "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
                "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
                "sweep": {"delta_p": [1.0], "tau": [0.5], "mode": "weak", "n_per_point": 100},
            }
        else:
            # spin-1 J_z has eigenvalues 1, 0, -1: not dichotomic
            jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
            data = {
                "scenario": "sweep", "seed": 3,
                "system": {"dim": 3, "hamiltonian": _pairs(jx),
                           "observable": _pairs(np.diag([1.0, 0.0, -1.0])),
                           "initial_state": _pairs(np.diag([1.0, 0.0, 0.0]))},
                "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
                "sweep": {"tau": [0.5, 1.0], "n_per_point": 100},
            }
        cfg = parse_config(data)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(cfg)
        lines, start = inspect.getsourcelines(run_sweep)
        hits = [w for w in record if w.category is category]
        assert len(hits) == 2
        for w in hits:
            assert w.filename == harness.__file__
            assert start <= w.lineno < start + len(lines)


class TestReportEnvelope:
    def test_envelope_fields(self):
        report = execute(budget_cfg())
        assert report["schema_version"] == "1"
        assert report["scenario"] == "budget"
        assert report["seed"] == 1
        assert "started_at" in report["meta"]

    def test_config_echo_reparses_equal(self):
        cfg = lg_cfg(n_strong=2_000, n_weak=2_000)
        report = execute(cfg)
        assert parse_config(report["config"]) == cfg


class TestWriteReport:
    def test_json_and_csv_outputs(self, tmp_path):
        report = execute(budget_cfg())
        written = write_report(report, str(tmp_path), "both")
        names = {os.path.basename(p) for p in written}
        assert names == {"report.json", "budget_comparison.csv"}
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["payload"]["report"]["total_strong_ensemble"] == 40_000
        csv_text = (tmp_path / "budget_comparison.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "scheme,eps,events_per_measurement,waste_per_measurement,"
            "waste_total,total_ensemble_required"
        )
        assert csv_text.count("\n") == 3

    def test_correlator_csv_columns(self, tmp_path):
        report = execute(lg_cfg(n_strong=2_000, n_weak=2_000))
        written = write_report(report, str(tmp_path), "csv")
        names = {os.path.basename(p) for p in written}
        assert names == {"correlators_strong.csv", "correlators_weak.csv"}
        lines = (tmp_path / "correlators_strong.csv").read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,value,std_error,n_events"
        assert len(lines) == 4
        assert lines[1].startswith("1,2,")

    def test_json_only(self, tmp_path):
        report = execute(budget_cfg())
        written = write_report(report, str(tmp_path), "json")
        assert [os.path.basename(p) for p in written] == ["report.json"]


STOCK_CONFIGS = {
    p.stem: json.loads(p.read_text())
    for p in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
}
# M/k = 333,333.33...: the weak-first row must round the subensemble up
STOCK_CONFIGS["budget_k3"] = dict(
    STOCK_CONFIGS["budget"], budget=dict(STOCK_CONFIGS["budget"]["budget"], k=3)
)


def _stock_tables(scenario: str, payload: dict) -> dict:
    """The CSV tables a scenario's payload must come out as."""
    if scenario == "verify":
        return {"verification.csv": [["check", "status", "margin", "detail"]] + [
            [c["name"], c["status"], c["margin"], c["detail"]] for c in payload["checks"]
        ]}
    if scenario == "sweep":
        return {"sweep.csv": [["delta_p", "n", "tau", "metric", "value"]] + [
            [r["delta_p"], r["n"], r["tau"], r["metric"], r["value"]] for r in payload["rows"]
        ]}
    if scenario == "budget":
        inp, rep = payload["input"], payload["report"]
        return {"budget_comparison.csv": [
            ["scheme", "eps", "events_per_measurement", "waste_per_measurement",
             "waste_total", "total_ensemble_required"],
            ["weak_first", rep["eps_target"], -(-inp["ensemble_size"] // inp["k"]),  # ceil(M/k)
             rep["waste_weak_per_measurement"], rep["waste_total_weak_scheme"],
             inp["ensemble_size"]],
            ["all_strong", rep["eps_target"], rep["strong_subensemble"],
             rep["waste_strong_per_measurement"], rep["waste_total_strong_scheme"],
             rep["total_strong_ensemble"]],
        ]}
    return {f"correlators_{mode}.csv": [["pair_i", "pair_j", "value", "std_error", "n_events"]] + [
        [*c["pair"], c["value"], c["std_error"], c["n_events"]]
        for c in payload[mode]["correlators"]
    ] for mode in ("strong", "weak")}


def _read_back(cell: str, like):
    """A CSV cell parsed as the type of the payload value it stands for; "" is None."""
    if like is None:
        return None if cell == "" else cell
    return type(like)(cell)


class TestStockCsv:
    @pytest.mark.parametrize("name", STOCK_CONFIGS)
    def test_csv_rows_match_payload(self, tmp_path, name):
        report = execute(parse_config(STOCK_CONFIGS[name]))
        written = write_report(report, str(tmp_path), "both")
        expected = _stock_tables(report["scenario"], report["payload"])
        assert [os.path.basename(p) for p in written] == ["report.json", *expected]
        for file, rows in expected.items():
            with open(tmp_path / file, newline="", encoding="utf-8") as fh:
                read = list(csv.reader(fh))
            assert len(read) == len(rows)
            for got, want in zip(read, rows):
                assert len(got) == len(want)
                assert [_read_back(c, v) for c, v in zip(got, want)] == want


def _workload_config(name: str, seed: int) -> dict:
    """The benchmark's generated config for one workload (bench/workloads.py):
    the full sweep grid, whose 2,880 rows span several writer batches, and the
    others at smoke sizes, which change their numbers but not their layout."""
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module.make_workload(name, seed, smoke=name != "sweep_grid").config


class TestReportBytes:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # lg_qudit8's A is not +-1
    @pytest.mark.parametrize("name", [*STOCK_CONFIGS, *(
        f"{w}:{s}" for w in ("lg_qubit", "lg_qudit8", "sweep_grid", "verify_wide") for s in (1, 7))])
    def test_report_json_is_stdlib_encoding(self, tmp_path, name):
        if name in STOCK_CONFIGS:
            config = STOCK_CONFIGS[name]
        else:
            workload, seed = name.split(":")
            config = _workload_config(workload, int(seed))
        report = execute(parse_config(config))
        write_report(report, str(tmp_path), "json")
        written = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert written == json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestResolveOutDir:
    def test_cli_flag_wins(self, monkeypatch):
        monkeypatch.setenv("LGSIM_OUT_DIR", "envdir")
        cfg = dataclasses.replace(budget_cfg(), output=budget_cfg().output)
        assert resolve_out_dir("clidir", cfg) == "clidir"

    def test_config_dir_beats_env(self, monkeypatch):
        monkeypatch.setenv("LGSIM_OUT_DIR", "envdir")
        cfg = parse_config({
            "scenario": "budget",
            "output": {"dir": "cfgdir"},
            "budget": {"ensemble_size": 100, "k": 3, "delta_p": 1.0, "var_a": 0.5},
        })
        assert resolve_out_dir(None, cfg) == "cfgdir"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("LGSIM_OUT_DIR", "envdir")
        assert resolve_out_dir(None, budget_cfg()) == "envdir"

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("LGSIM_OUT_DIR", raising=False)
        assert resolve_out_dir(None, budget_cfg()) == "lgsim_out"
