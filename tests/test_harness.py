import csv
import dataclasses
import importlib.util
import inspect
import itertools
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsim
from lgsim import harness, protocol, streams
from lgsim.config import parse_config
from lgsim.harness import (
    _sampler_deviation,
    execute,
    payload_json,
    run_budget,
    run_lg,
    run_sweep,
    run_verify,
    write_report,
)
from lgsim.invasiveness import measure_invasiveness, predicted_weak
from lgsim.cli import main
from lgsim.errors import ValidationError, WeakRegimeWarning
from lgsim.measurement import (
    PointerModel,
    _eigenbasis_map,
    _weak_damping,
    _weak_draw,
    strong_channel,
    weak_channel_exact,
)
from lgsim.protocol import CorrelatorEstimate, SeriesPlan, _SeriesKernel
from lgsim.quantum import (
    DensityMatrix,
    Observable,
    born_weights,
    expectation,
    pauli,
    plus_state,
    random_density_matrices,
    spectral_decompose,
    variance,
)
from lgsim.streams import DEFAULT_CHUNK_SIZE, chunk_sizes, series_words, substream

from conftest import random_density_matrix
import test_invasiveness
import test_quantum

SX = [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]
SZ = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
PLUS = [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
TAU = math.pi / 3


def lg_cfg(n_strong=20_000, n_weak=40_000, seed=5, k=3, gap=TAU):
    """The stock precessing qubit over k times spaced by ``gap``."""
    return parse_config({
        "scenario": "lg_run",
        "seed": seed,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
        "pointer": {"width": 10.0},
        "plan": {"k": k, "times": [i * gap for i in range(k)]},
        "run": {"n_strong": n_strong, "n_weak": n_weak},
    })


def _pairs(m) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def sweep_cfg(grid: str) -> dict:
    """A sweep config: "strong" (2 widths x 2 n x 3 tau, one tau repeated),
    "weak" (2 widths x 1 n x 2 tau), "chunked" (weak, 1 width x 3 n x 2 tau,
    the n axis 1, 2 and 3 chunks of 500 events) or "stock"
    (``configs/sweep.json``, no tau)."""
    if grid == "stock":
        return json.loads((Path(__file__).parent.parent / "configs" / "sweep.json").read_text())
    sweep = {"delta_p": [10.0, 25.0], "tau": [0.5, 1.2, 0.5], "n": [300, 1_000], "mode": grid}
    if grid == "weak":
        sweep = {"delta_p": [10.0, 25.0], "tau": [0.5, 1.2], "mode": grid, "n": [2_000]}
    if grid == "chunked":
        sweep = {"delta_p": [10.0], "tau": [0.5, 1.2], "mode": "weak", "n": [300, 1_000, 1_200]}
    return {
        "scenario": "sweep", "seed": 9,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
        "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
        "sweep": sweep,
    }


def budget_cfg(**budget):
    section = {"ensemble_size": 10**6, "k": 4, "var_a": 1.0}
    section.update(budget)
    return parse_config({
        "scenario": "budget", "seed": 1, "pointer": {"width": 10.0}, "budget": section,
    })


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
            "pointer": {"width": 10.0},
            "budget": {"ensemble_size": 10**6, "k": 4},
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

    def test_stock_report_unchanged(self):
        # pinned bytes: reading the width from pointer.width and the constant
        # order-unity threshold must give the same report as before
        report = run_budget(parse_config(STOCK_CONFIGS["budget"]))["report"]
        assert json.dumps(report, sort_keys=True) == (
            '{"ensemble_ratio_strong_over_weak": 0.04, "eps_target": 0.01414213562373095, '
            '"eps_weak_both": 0.02, "error_ratio_strong_over_weak": 0.1414213562373095, '
            '"strong_scheme_smaller": true, "strong_subensemble": 5000, '
            '"total_strong_ensemble": 40000, "waste_ratio_strong_over_weak": 2.0, '
            '"waste_strong_per_measurement": 5000, "waste_total_strong_scheme": 40000, '
            '"waste_total_weak_scheme": 10000, "waste_weak_per_measurement": 2500, '
            '"waste_weak_per_measurement_i2": 1250}'
        )


@pytest.fixture(scope="module")
def payload():
    return run_lg(lg_cfg())


@pytest.fixture
def seed_hashes(monkeypatch):
    """The arguments of every ``series_words`` call protocol makes, with
    chunks of 500 events, so that every series below spans several."""
    calls, series_words = [], protocol.series_words

    def counting(*args):
        calls.append(args)
        return series_words(*args)

    monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 500)
    monkeypatch.setattr(protocol, "series_words", counting)
    return calls


class TestRunLg:
    def test_both_modes_are_one_seed_hash(self, seed_hashes):
        # an lg_run is one batch: strong series s on stream s, then weak
        # series s on stream k + s, every chunk seeded in one hash
        run_lg(lg_cfg(n_strong=1_200, n_weak=2_400))
        assert [(list(ids), list(ns)) for _, ids, ns in seed_hashes] == [
            ([0, 1, 2, 3, 4, 5], [1_200] * 3 + [2_400] * 3)]

    def test_lg_violation_detected(self, payload):
        lg = payload["strong"]["lg"]
        assert (lg["k"], lg["bounds"]) == (3, [-3, 1])
        assert abs(lg["value"] - 1.5) < 4 * lg["std_error"]
        assert lg["violates_macrorealism"] is True

    def test_weak_lg_agrees(self, payload):
        ks, kw = payload["strong"]["lg"], payload["weak"]["lg"]
        assert sorted(kw) == ["bounds", "k", "std_error", "value", "violates_macrorealism"]
        combined = math.hypot(ks["std_error"], kw["std_error"])
        assert abs(ks["value"] - kw["value"]) < 5 * combined

    def test_payload_blocks(self, payload):
        assert sorted(payload) == ["comparison", "plan", "strong", "weak"]
        assert sorted(payload["comparison"]) == ["per_pair"]
        assert payload["plan"] == {
            "k": 3, "times": [0.0, TAU, 2 * TAU], "pairs": [[1, 2], [2, 3], [1, 3]],
        }

    def test_correlator_table_shape(self, payload):
        for mode in ("strong", "weak"):
            table = payload[mode]["correlators"]
            assert [c["pair"] for c in table] == [[1, 2], [2, 3], [1, 3]]
            assert all(c["std_error"] > 0 for c in table)

    def test_variance_inflation_near_prediction(self, payload):
        # +/-1 readings near C = 0: the pointer adds width^2 / 2 = 50 per event
        for pair in payload["comparison"]["per_pair"]:
            assert pair["variance_inflation_per_event"] == pytest.approx(50.0, rel=0.10)

    def test_vanishing_gaps_drive_lg_to_one(self):
        # repeated measurement limit: every correlator tends to 1, so K3 does
        lg = run_lg(lg_cfg(20_000, 20_000, gap=1e-6))["strong"]["lg"]
        assert abs(lg["value"] - 1.0) < 5 * lg["std_error"] + 1e-9

    @pytest.mark.parametrize("k", range(3, 7))
    def test_strong_lg_matches_k_cos_pi_over_k(self, k):
        # at omega tau = pi/k every strong correlator is cos(pi/k) but
        # C(1, k) = cos((k-1) pi/k) = -cos(pi/k), so K_k = k cos(pi/k)
        lg = run_lg(lg_cfg(100_000, 2, k=k, gap=math.pi / k))["strong"]["lg"]
        assert lg["k"] == k
        assert abs(lg["value"] - k * math.cos(math.pi / k)) < 5 * lg["std_error"]

    def test_k4_qubit_reports_violation(self):
        payload = run_lg(lg_cfg(20_000, 100_000, k=4, gap=math.pi / 4))
        assert len(payload["strong"]["correlators"]) == 4
        for mode in ("strong", "weak"):
            lg = payload[mode]["lg"]
            assert (lg["k"], lg["bounds"]) == (4, [-2, 2])
            assert lg["violates_macrorealism"] is True

    def test_bounds_scale_with_the_largest_reading(self):
        # the +/-1 bounds times c^2, c = max|a|: spin-1 J_z (eigenvalues 1, 0,
        # -1) keeps them, sigma_z / 2 on the stock run quarters them and breaks
        # them in both modes, at K_3 = 3/8 > 1/4, and lg_qudit8's spin-7/2 J_z
        # scales K_4's by 49/4. None of them warns, and neither does a sweep
        jz = _pairs(np.diag([1.0, 0.0, -1.0]))
        jx = _pairs(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2))
        system = {"dim": 3, "hamiltonian": jx, "observable": jz,
                  "initial_state": _pairs(np.diag([1.0, 0.0, 0.0]))}
        base = {"scenario": "lg_run", "seed": 5, "system": system, "pointer": {"width": 20.0},
                "run": {"n_strong": 200, "n_weak": 200}}
        stock = json.loads((Path(__file__).parent.parent / "configs" / "lg_run.json").read_text())
        stock["system"]["observable"] = [[0.5, 0], [0, 0], [0, 0], [-0.5, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, bounds in ((3, [-3, 1]), (4, [-2, 2])):
                payload = run_lg(parse_config(
                    {**base, "plan": {"k": k, "times": [float(t) for t in range(k)]}}))
                for mode in ("strong", "weak"):
                    assert payload[mode]["lg"]["bounds"] == bounds
                    assert isinstance(payload[mode]["lg"]["violates_macrorealism"], bool)
            run_sweep(parse_config({
                "scenario": "sweep", "seed": 3, "system": system,
                "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
                "sweep": {"tau": [0.5, 1.0], "n": [100]},
            }))
            half = run_lg(parse_config(stock))
            qudit = execute(parse_config(_workload_config("lg_qudit8", 1)))["payload"]
        for mode in ("strong", "weak"):
            lg = half[mode]["lg"]
            assert lg["bounds"] == [-0.75, 0.25]
            assert abs(lg["value"] - 0.375) < 5 * lg["std_error"]
            assert lg["violates_macrorealism"] is True
            lg = qudit[mode]["lg"]
            assert lg["k"] == 4 and math.isfinite(lg["value"])
            assert lg["bounds"] == [-24.5, 24.5]
            assert lg["violates_macrorealism"] is (not -24.5 <= lg["value"] <= 24.5)

    @settings(deadline=None)
    @given(k=st.integers(3, 6), ends=st.lists(
        st.floats(-100.0, 100.0, allow_subnormal=False), min_size=2, max_size=2, unique=True),
        symmetric=st.booleans())
    def test_bounds_hold_every_extreme_assignment(self, k, ends, symmetric):
        # K_k is multilinear in the readings, so over readings in [a_min,
        # a_max] its extremes lie among the 2^k assignments of a_min and a_max:
        # the scaled bounds contain all of them, and are theirs when a_min = -a_max
        a_min, a_max = sorted(ends)
        if symmetric:
            a_min, a_max = -max(-a_min, a_max), max(-a_min, a_max)
        c = max(-a_min, a_max)
        estimates = [CorrelatorEstimate(pair, 0.0, 0.0, 2)
                     for pair in SeriesPlan(k, range(k)).pairs]
        lo, hi = harness._lg_block(estimates, c * c)["bounds"]
        values = [sum(q[i] * q[i + 1] for i in range(k - 1)) - q[0] * q[-1]
                  for q in itertools.product((a_min, a_max), repeat=k)]
        slack = 1e-12 * k * c * c + 1e-300
        assert lo - slack <= min(values) and max(values) <= hi + slack
        if symmetric:
            assert (min(values), max(values)) == pytest.approx((lo, hi), rel=1e-12, abs=1e-300)


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
            "channel_trace", "strong_channel_commutes", "weak_invasiveness_expansion",
            "invasiveness_ratio_two",
            "pointer_sampler_statistics", "state_positivity",
        ]

    def test_narrow_pointer_flagged_not_failed(self):
        # widths below the weak regime leave the coefficient fit unjudged, and
        # an unjudged fit builds no channel, so nothing warns
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"widths": [1.0, 2.0, 4.0], "n_samples": 20_000,
                                        "n_random": 20}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["weak_invasiveness_expansion"]["status"] == "out_of_regime"
        assert payload["passed"]
        assert payload["n_out_of_regime"] == 1

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

    def test_builds_each_width_channel_once(self, monkeypatch):
        # one exact channel per distinct width and one for the ratio law; the
        # random states go through the stacked map
        calls = []
        monkeypatch.setattr(harness, "weak_channel_exact",
                            lambda *a, _f=harness.weak_channel_exact: calls.append(a[2]) or _f(*a))
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"widths": [40.0, 10.0, 20.0, 10.0, 80.0],
                                       "n_samples": 20_000, "n_random": 1}})
        assert run_verify(cfg)["passed"]
        assert [pm.width for pm in calls] == [10.0, 20.0, 40.0, 80.0, 100.0]

    @pytest.mark.parametrize("widths, observable", [
        ([10.0, 20.0, 1e4], SZ), ([10.0, 20.0, 1e5], SZ), ([10.0, 20.0, 3000.0], SZ),
        (None, [[0.01, 0], [0, 0], [0, 0], [-0.01, 0]]),
        (None, [[0.001, 0], [0, 0], [0, 0], [-0.001, 0]]),
    ], ids=["sz-1e4", "sz-1e5", "sz-3000", "diag0.01", "diag0.001"])
    def test_widths_too_wide_to_resolve_not_judged(self, widths, observable):
        # x = (diameter / 2w)^2 at the widest width puts the w^-4 effect near
        # round-off; the coefficient fit is left unjudged, naming the limit
        cfg = _verify_system_cfg(observable, widths)
        payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert payload["passed"]
        fit = by_name["weak_invasiveness_expansion"]
        assert fit["status"] == "out_of_regime"
        assert "float64 ulps" in fit["detail"]
        assert by_name["invasiveness_ratio_two"]["status"] == "pass"
        assert not any("single eigenspace" in c["detail"] for c in payload["checks"])

    def test_resolvable_widths_stay_judged(self):
        # A = diag(0.1, -0.1) puts the default widths at up to 400 diameters,
        # x^2 = 1.1e4 ulps at the widest: the coefficient fit is still judged
        payload = run_verify(_verify_system_cfg([[0.1, 0], [0, 0], [0, 0], [-0.1, 0]], None))
        assert {c["status"] for c in payload["checks"]} == {"pass"}

    def test_one_unresolvable_width_is_dropped_not_the_fit(self):
        # width 1e4 alone is past round-off on sigma_z; the fit is judged on
        # the other three and names the one it dropped
        payload = run_verify(_verify_system_cfg(SZ, [10.0, 20.0, 40.0, 1e4]))
        assert {c["status"] for c in payload["checks"]} == {"pass"}
        fit = {c["name"]: c for c in payload["checks"]}["weak_invasiveness_expansion"]
        assert "across widths [10.0, 20.0, 40.0]; widths [10000.0] put" in fit["detail"]

    def test_coefficient_fit_takes_every_distinct_width(self):
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"widths": [20.0, 10.0, 10.0, 40.0, 80.0],
                                       "n_samples": 20_000, "n_random": 5}})
        by_name = {c["name"]: c for c in run_verify(cfg)["checks"]}
        fit = by_name["weak_invasiveness_expansion"]
        assert fit["status"] == "pass"
        assert fit["detail"].endswith("across widths [10.0, 20.0, 40.0, 80.0]")

    def test_fewer_than_three_distinct_widths_rejected_at_parse(self):
        # the coefficient fit needs three distinct widths; [10, 10, 10, 20]
        # once fitted three equal widths, a spread of x1 that could not fail,
        # and [10, 20] parsed only to leave the fit unjudged
        for widths in ([10.0, 10.0, 10.0, 20.0], [10.0, 20.0]):
            with pytest.raises(ValidationError, match=r"config\.verify\.widths: must hold at "
                               "least three distinct widths"):
                parse_config({"scenario": "verify", "seed": 3, "verify": {"widths": widths}})

    @pytest.mark.parametrize("system", [
        {"dim": 1, "hamiltonian": [[0.5, 0]], "observable": [[1, 0]], "initial_state": [[1, 0]]},
        {"dim": 2, "hamiltonian": SX, "observable": [[2, 0], [0, 0], [0, 0], [2, 0]],
         "initial_state": PLUS},
    ], ids=["dim1", "qubit-2I"])
    def test_single_eigenspace_leaves_width_laws_unjudged(self, system):
        # with one eigenspace every weak channel is the identity, so the two
        # width laws hold at margin 0 whatever the code does
        cfg = parse_config({"scenario": "verify", "seed": 3, "system": system,
                            "verify": {"n_samples": 20_000, "n_random": 5}})
        payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        for name in ("weak_invasiveness_expansion", "invasiveness_ratio_two"):
            assert by_name[name]["status"] == "out_of_regime"
            assert by_name[name]["detail"].startswith("observable has a single eigenspace")
        assert payload["passed"] and payload["n_out_of_regime"] == 2

    def test_corrupt_state_injection_fails_positivity(self):
        cfg = parse_config({"scenario": "verify", "seed": 3,
                            "verify": {"corrupt_state": True, "n_samples": 20_000,
                                        "n_random": 20}})
        payload = run_verify(cfg)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["state_positivity"]["status"] == "fail"
        assert not payload["passed"]


def _rotated_spin_7_2() -> np.ndarray:
    """J_z of spin 7/2 in a random real basis, so products carry round-off."""
    u = np.linalg.qr(np.random.default_rng(8).normal(size=(8, 8)))[0]
    return u @ np.diag(np.arange(3.5, -4.0, -1.0)) @ u.T


STACK_OBSERVABLES = {
    "qubit": pauli("z"),
    "degenerate_qutrit": np.diag([1.0, 1.0, -1.0]),
    "spin_7_2": _rotated_spin_7_2(),
}


class TestVerifyStacks:
    @pytest.mark.parametrize("name", sorted(STACK_OBSERVABLES))
    def test_stacked_channels_match_single_state_channels(self, rng, name):
        obs = spectral_decompose(STACK_OBSERVABLES[name])
        pm = PointerModel(width=harness._verify_width(obs))
        states = random_density_matrices(7, obs.dim, rng)
        strong = _eigenbasis_map(states, obs, np.eye(obs.n_outcomes))
        weak = _eigenbasis_map(states, obs, _weak_damping(obs, pm))
        for k, state in enumerate(states):
            rho = DensityMatrix(state)
            np.testing.assert_allclose(strong[k], strong_channel(rho, obs).matrix,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(weak[k], weak_channel_exact(rho, obs, pm).matrix,
                                       rtol=0, atol=1e-15)

    def test_margins_match_per_state_loop_across_blocks(self, monkeypatch):
        # the configured state and every random state are mapped through both
        # channels, in its own one-state stack, a full block and a one-state block
        seen = []
        monkeypatch.setattr(harness, "_eigenbasis_map",
                            lambda m, *a, _f=harness._eigenbasis_map: seen.append(len(m)) or _f(m, *a))
        spin = STACK_OBSERVABLES["spin_7_2"]
        obs = spectral_decompose(spin)
        block = harness._STACK_BYTES // (16 * obs.n_outcomes * obs.dim**2)
        assert 1 < block < 1000  # two blocks, the second of one state
        cfg = parse_config({
            "scenario": "verify", "seed": 11,
            "system": {"dim": 8, "hamiltonian": _pairs(np.diag(np.arange(8.0))),
                       "observable": _pairs(spin), "initial_state": _pairs(np.eye(8) / 8)},
            "verify": {"n_samples": 20_000, "n_random": block + 1},
        })
        margins = {c["name"]: c["margin"] for c in run_verify(cfg)["checks"]}
        assert seen == [1, 1, block, block, 1, 1]

        # the loop verify ran before its states were stacked, over the
        # configured state and then the random ones
        dyn = harness._system_objects(cfg.system)
        obs = dyn.observable
        rng, pm, a = substream(cfg.seed, 102), PointerModel(width=harness._verify_width(obs)), obs.matrix()
        states = [dyn.initial_state] + [random_density_matrix(obs.dim, rng) for _ in range(block + 1)]
        worst = worst_comm = 0.0
        min_eval = math.inf
        for state in states:
            strong = strong_channel(state, obs)
            for out in (strong, weak_channel_exact(state, obs, pm)):
                worst = max(worst, abs(float(np.trace(out.matrix).real) - 1.0))
                min_eval = min(min_eval, float(np.linalg.eigvalsh(out.matrix)[0]))
            post = strong.matrix
            worst_comm = max(worst_comm, float(np.max(np.abs(post @ a - a @ post))))
        assert worst_comm > 0  # the rotated basis leaves round-off to compare
        assert margins["channel_trace"] == 1e-12 - worst
        assert margins["strong_channel_commutes"] == 1e-10 - worst_comm
        assert margins["state_positivity"] == 1e-10 + min_eval

    @pytest.mark.parametrize("defect, check", [
        (lambda out: out * 1.5, "channel_trace"),
        (lambda out: np.diag([1.5, -0.5]), "state_positivity"),
    ], ids=["trace", "negative"])
    def test_invalid_channel_output_fails_its_check(
            self, monkeypatch, tmp_path, capsys, defect, check):
        # a channel output that is not a state fails a check, which the CLI
        # reports as a verification failure, exit 2, not a bad input
        def broken(rho, obs, weights):
            out = _eigenbasis_map(rho, obs, weights)
            if len(out) > 2:
                out[2] = defect(out[2])  # one member of a random block, not the first
            return out
        monkeypatch.setattr(harness, "_eigenbasis_map", broken)
        payload = run_verify(parse_config(VERIFY_SMALL))
        assert [c["name"] for c in payload["checks"] if c["status"] == "fail"] == [check]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(VERIFY_SMALL))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"verification failed: {check}\n"

    @pytest.mark.parametrize("defect, check", [
        (lambda out: out * 1.5, "channel_trace"),
        (lambda out: np.diag([1.5, -0.5]), "state_positivity"),
    ], ids=["trace", "negative"])
    def test_invalid_configured_output_fails_its_check(self, monkeypatch, defect, check):
        # the configured state's outputs are judged too: its stack is the only
        # one-state stack when n_random fills one block
        def broken(rho, obs, weights):
            out = _eigenbasis_map(rho, obs, weights)
            if len(out) == 1:
                out[0] = defect(out[0])
            return out
        monkeypatch.setattr(harness, "_eigenbasis_map", broken)
        payload = run_verify(parse_config(VERIFY_SMALL))
        assert [c["name"] for c in payload["checks"] if c["status"] == "fail"] == [check]

def _verify_system_cfg(observable, widths):
    verify = {"n_samples": 20_000, "n_random": 20}
    if widths is not None:
        verify["widths"] = widths
    return parse_config({
        "scenario": "verify", "seed": 3,
        "system": {"dim": 2, "hamiltonian": SX, "observable": observable, "initial_state": PLUS},
        "verify": verify,
    })


def _biased_counts(f, *a):
    counts, readings = f(*a)
    moved = counts[1:] // 20  # one count in 20 moved to the first outcome
    counts[1:] -= moved
    counts[0] += moved.sum()
    return counts, readings


def _noisier(f, rho, obs, pm, n, rng):
    # pointer noise scaled by 1.1: the readings' variance by 1.21
    return f(rho, obs, PointerModel(width=1.1 * pm.width), n, rng)


# each judged verify check with a defect it must catch, by test id: the
# function it checks, as lgsim.harness calls it or, with a module prefix, as
# that module calls it, the check, and a wrap that pushes the function's
# result off the exact value
BROKEN = {
    "_weak_damping": ("_weak_damping", "channel_trace", lambda f, *a: f(*a) * (1.0 + 1e-11)),
    "_eigenbasis_map": (
        "_eigenbasis_map", "strong_channel_commutes", lambda f, rho, obs, weights: rho),
    # a first-order defect in the exact channel: exp(-gap^2 / (4.04 w^2))
    "measurement._weak_damping": (
        "measurement._weak_damping", "weak_invasiveness_expansion",
        lambda f, *a: f(*a) ** (1 / 1.01)),
    "predicted_weak": (
        "predicted_weak", "weak_invasiveness_expansion",
        lambda f, rho, obs, pm: f(rho, obs, PointerModel(width=1.001 * pm.width))),
    "measure_invasiveness": (
        "measure_invasiveness", "invasiveness_ratio_two",
        lambda f, *a: dataclasses.replace(f(*a), i1=1.02 * f(*a).i1)),
    "_weak_draw_noise": ("_weak_draw", "pointer_sampler_statistics", _noisier),
    "_weak_draw_counts": ("_weak_draw", "pointer_sampler_statistics", _biased_counts),
    # off-diagonal weights doubled: the trace is kept, positivity is not
    "_weak_damping_coherences": (
        "_weak_damping", "state_positivity",
        lambda f, *a: 2.0 * f(*a) - np.diag(np.diag(f(*a)))),
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
    @pytest.mark.parametrize("defect", sorted(BROKEN))
    def test_defect_fails_its_check(self, monkeypatch, defect):
        function, check, wrap = BROKEN[defect]
        module, _, function = function.rpartition(".")
        owner = getattr(lgsim, module) if module else harness
        original = getattr(owner, function)
        monkeypatch.setattr(owner, function, lambda *a, **k: wrap(original, *a, **k))
        payload = run_verify(parse_config(VERIFY_SMALL))
        assert {c["name"]: c["status"] for c in payload["checks"]}[check] == "fail"
        assert not payload["passed"]

    def test_every_judged_check_has_a_defect(self):
        names = {c["name"] for c in run_verify(parse_config(VERIFY_SMALL))["checks"]}
        assert names == {check for _, check, _ in BROKEN.values()}

    @pytest.mark.parametrize("function", sorted(BROKEN_IDENTITY))
    def test_defect_fails_its_unit_test(self, monkeypatch, rng, function):
        test, wrap = BROKEN_IDENTITY[function]
        module = inspect.getmodule(test)
        original = getattr(module, function)
        monkeypatch.setattr(module, function, lambda *a, **k: wrap(original, *a, **k))
        with pytest.raises(AssertionError):
            test(None, rng)  # the unit tests keep no instance state

    @pytest.mark.parametrize("defect", ["_weak_draw_counts", "_weak_draw_noise"])
    def test_sampler_defect_fails_across_chunks(self, monkeypatch, chunk_of, defect):
        # the defect is applied chunk by chunk, a full chunk and a ragged one
        function, check, wrap = BROKEN[defect]
        original, sizes = getattr(harness, function), {}

        def broken(*a):
            counts, readings = wrap(original, *a)
            sizes[chunk_of(a[-1])] = readings.size
            return counts, readings

        monkeypatch.setattr(harness, function, broken)
        n = DEFAULT_CHUNK_SIZE + 1_000
        payload = run_verify(parse_config({**VERIFY_SMALL, "verify": {"n_samples": n, "n_random": 20}}))
        assert sizes == {0: DEFAULT_CHUNK_SIZE, 1: 1_000}
        assert {c["name"]: c["status"] for c in payload["checks"]}[check] == "fail"


def _whole_array_deviation(rho, obs, wr, counts) -> float:
    """The sampler check's scores taken over a whole array of weak readings
    ``wr`` and the outcome ``counts`` drawn with them: the reference for the
    chunked sums."""
    n, pm = len(wr), PointerModel(width=harness._verify_width(obs))
    p = born_weights(rho, obs)
    mean_a, var_a = expectation(rho, obs), variance(rho, obs)
    s2 = pm.position_variance
    weak_var = s2 + var_a
    m4 = float(np.dot(p, (obs.eigenvalues - mean_a) ** 4)) + 6.0 * s2 * var_a + 3.0 * s2**2
    spread = 5.0 * math.sqrt(max(m4 - weak_var**2, 0.0) * n) + 25.0 * weak_var
    var_tol = max(0.02 * weak_var, spread / (n - 1))
    q = counts / n
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = (np.where(q > 0, q * np.log(q / p), 0.0)
              + np.where(q < 1, (1 - q) * np.log((1 - q) / (1 - p)), 0.0))
    level = math.log(2 * obs.n_outcomes / 1.7e-6)
    return max(
        abs(wr.mean() - mean_a) / (5.0 * math.sqrt(weak_var / n)),
        abs(wr.var(ddof=1) - weak_var) / var_tol,
        math.sqrt(max(n * float(kl.max()), 0.0) / level),
    )


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
        worst = max(_sampler_deviation(rho, obs, n, seed, 107) for seed in range(200))
        assert worst <= 1.0

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_two_chunks_no_false_failures_over_100_seeds(self, probe):
        obs, rho = self.PROBES[probe]
        n = DEFAULT_CHUNK_SIZE + 1_000
        worst = max(_sampler_deviation(rho, obs, n, seed, 107) for seed in range(100))
        assert worst <= 1.0

    def test_rare_outcome_no_false_failures_over_1000_seeds(self):
        # n p = 1 for the rare outcome, where a normal approximation of the
        # strong readings' moments failed seed 12
        obs = spectral_decompose(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.diag([0.99, 0.01]).astype(complex))
        worst = max(_sampler_deviation(rho, obs, 100, seed, 107) for seed in range(1000))
        assert worst <= 1.0

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_chunked_sums_match_whole_arrays(self, monkeypatch, probe):
        # chunk c draws its outcome counts and weak readings from (seed, 107,
        # c) in one shared draw; 7_000 leaves a ragged last chunk of 6_000,
        # and the merged chunk moments match numpy's over the whole array
        obs, rho = self.PROBES[probe]
        monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 7_000)
        pm, wr, counts = PointerModel(width=harness._verify_width(obs)), [], 0
        for c, m in enumerate([7_000, 7_000, 6_000]):
            k, readings = _weak_draw(rho, obs, pm, m, substream(12, 107, c))
            counts, wr = counts + k, wr + [readings]
        want = _whole_array_deviation(rho, obs, np.concatenate(wr), counts)
        assert _sampler_deviation(rho, obs, 20_000, 12, 107) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_counts_and_weak_moments_share_one_draw(self, monkeypatch, probe):
        # with the pointer noise taken out, each weak reading is the
        # eigenvalue of the outcome counted for it, so the weak sum is
        # sum_i K_i a_i exactly (the spectra are integers); a second draw for
        # the counts would miss
        obs, rho = self.PROBES[probe]
        weak_draw, chunk_moments, counted, merged = harness._weak_draw, harness._chunk_moments, [], []

        class Noiseless:
            def __init__(self, rng):
                self.multinomial = rng.multinomial

            def standard_normal(self, out):
                out[:] = 0.0
                return out

        def spy_draw(rho, obs, pm, m, rng):
            counts, readings = weak_draw(rho, obs, pm, m, Noiseless(rng))
            counted.append(counts)
            return counts, readings

        def spy_moments(*a):
            merged.append(chunk_moments(*a))
            return merged[-1]

        monkeypatch.setattr(harness, "_weak_draw", spy_draw)
        monkeypatch.setattr(harness, "_chunk_moments", spy_moments)
        n = DEFAULT_CHUNK_SIZE + 1_000
        _sampler_deviation(rho, obs, n, 5, 107)
        # one count vector in each of the two chunks
        assert len(counted) == 2
        counts = np.sum(counted, axis=0)
        assert counts.sum() == n
        assert merged[0][0] == float(counts @ obs.eigenvalues)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_judges_the_weak_correlators_draw(self, monkeypatch, chunk_of, probe):
        # chunk c's weak readings are _weak_draw's from (seed, 107, c), draw
        # for draw
        obs, rho = self.PROBES[probe]
        weak_draw, moments, drawn, judged = harness._weak_draw, harness._moments, {}, {}

        def spy_draw(*a):
            counts, readings = weak_draw(*a)
            drawn[id(readings)] = chunk_of(a[-1])
            return counts, readings

        def spy_moments(x):
            judged[drawn[id(x)]] = x.copy()
            return moments(x)

        monkeypatch.setattr(harness, "_weak_draw", spy_draw)
        monkeypatch.setattr(harness, "_moments", spy_moments)
        n = DEFAULT_CHUNK_SIZE + 1_000
        _sampler_deviation(rho, obs, n, 9, 107)
        pm = PointerModel(width=harness._verify_width(obs))
        assert {c: r.size for c, r in judged.items()} == dict(enumerate(chunk_sizes(n)))
        for c, readings in judged.items():
            _, want = _weak_draw(rho, obs, pm, readings.size, substream(9, 107, c))
            assert np.array_equal(readings, want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_offset_spectrum_keeps_precision(self, seed):
        # the same draws with every reading moved by 1e6: raw sums of x and
        # x^2 would lose about ten of the variance's sixteen digits
        z = pauli("z")
        got = [_sampler_deviation(plus_state(), spectral_decompose(a), 200_000, seed, 107)
               for a in (z, z + 1e6 * np.eye(2))]
        assert got[1] == pytest.approx(got[0], rel=1e-6)

    def test_peak_memory_is_bounded(self):
        # one chunk's readings at a time; whole arrays of 1e6 qutrit readings
        # peaked at 25.6 MiB
        obs, rho = self.PROBES["qutrit"]
        tracemalloc.start()
        try:
            _sampler_deviation(rho, obs, 10**6, 4, 107)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRunSweep:
    def test_invasiveness_slope_minus_two(self):
        cfg = parse_config({
            "scenario": "sweep", "seed": 2,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
            "sweep": {"delta_p": [10.0, 20.0, 40.0, 80.0]},
        })
        pts = [(r["delta_p"], r["i1_measured"]) for r in run_sweep(cfg)["invasiveness"]]
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
            "sweep": {"tau": [0.5, 1.0, 2.0], "n": [40_000]},
        })
        rows = run_sweep(cfg)["rows"]
        values = {r["tau"]: r["value"] for r in rows if r["metric"] == "corr_value"}
        errors = {r["tau"]: r["value"] for r in rows if r["metric"] == "corr_std_error"}
        for tau in (0.5, 1.0, 2.0):
            assert abs(values[tau] - math.cos(tau)) < 5 * errors[tau]

    @pytest.mark.parametrize("grid", ["strong", "weak", "chunked", "stock"])
    def test_point_is_its_own_single_correlator(self, monkeypatch, grid):
        # kernels are shared across points; every row must still be what its
        # law computed alone gives, bitwise, and each width's invasiveness
        # record what its weak channel alone gives. A law is
        # (n, tau) in strong mode and (width, n, tau) in weak mode, and distinct
        # law s, in order of first appearance, draws from stream s. The weak
        # grid fails if a kernel is shared between widths, the strong one
        # repeats a tau and has two widths per law, and the stock one has no
        # tau axis. The weak and chunked grids have no repeated law, so there
        # point s is stream s. The chunked one's points take 1, 2 and 3 rows
        # of the grid's one table of seed words, so a point that read another
        # point's rows fails
        cfg = parse_config(sweep_cfg(grid))
        sw = cfg.sweep
        if grid == "chunked":
            monkeypatch.setattr(streams, "DEFAULT_CHUNK_SIZE", 500)
            assert [len(chunk_sizes(n)) for n in sw.n] == [1, 2, 3]
        dyn = harness._system_objects(cfg.system)
        obs, rho = dyn.observable, dyn.initial_state
        t1 = cfg.plan.times[0]
        want_inv = []
        for d in sw.delta_p:
            pm = PointerModel(width=d)
            meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pm))
            pred = predicted_weak(rho, obs, pm)
            want_inv.append({"delta_p": d, "i1_measured": meas.i1, "i1_predicted": pred.i1,
                             "i2_measured": meas.i2, "i2_predicted": pred.i2})
        want, streams_of = [], {}
        grid_points = itertools.product(sw.delta_p or [None], sw.n or [None], sw.tau or [None])
        for point_index, (d, n, tau) in enumerate(grid_points):
            coords = {"delta_p": d, "n": n, "tau": tau}
            pm = PointerModel(width=d)
            law = (d if sw.mode == "weak" else None, n, tau)
            stream = streams_of.setdefault(law, len(streams_of))
            if sw.mode == "weak":
                assert stream == point_index
            kernel = _SeriesKernel(dyn, t1, t1 + tau if tau is not None else cfg.plan.times[1],
                                   pm if sw.mode == "weak" else None)
            total, sq_dev = protocol._chunk_moments(
                n, series_words(cfg.seed, [stream], [n])[0], kernel.run_chunk)
            want.append({**coords, "metric": "corr_value", "value": total / n})
            want.append({**coords, "metric": "corr_std_error",
                         "value": math.sqrt(sq_dev / (n - 1) / n)})
        assert len(streams_of) == {"strong": 4, "stock": 3, "weak": 4, "chunked": 6}[grid]
        payload = run_sweep(cfg)
        assert payload["rows"] == want
        assert payload["invasiveness"] == want_inv

    @pytest.mark.parametrize("mode, delta_p, laws", [
        ("strong", [10.0, 25.0], 2 * 2),  # 2 n x 2 distinct tau, for 12 grid points
        ("weak", [10.0, 25.0, 10.0], 2 * 2),  # 2 distinct widths x 2 tau, for 6
    ], ids=["strong", "weak-repeated-width"])
    def test_each_law_is_drawn_once(self, monkeypatch, mode, delta_p, laws):
        # a strong correlator does not depend on the width, and a repeated
        # axis value repeats its law: each law runs one chunk, and every grid
        # point of a law reports the same value and standard error
        calls = []
        run_chunk = _SeriesKernel.run_chunk

        def counting_run_chunk(self, *args):
            calls.append(self)
            return run_chunk(self, *args)

        monkeypatch.setattr(_SeriesKernel, "run_chunk", counting_run_chunk)
        cfg = sweep_cfg(mode)
        cfg["sweep"]["delta_p"] = delta_p
        rows = run_sweep(parse_config(cfg))["rows"]
        assert len(calls) == laws
        corr = {}
        for r in rows:
            if r["metric"] in ("corr_value", "corr_std_error"):
                law = (r["delta_p"] if mode == "weak" else None, r["n"], r["tau"], r["metric"])
                corr.setdefault(law, set()).add(r["value"])
        assert len(corr) == 2 * laws
        assert all(len(values) == 1 for values in corr.values())
        points = len(delta_p) * len(cfg["sweep"]["n"]) * len(cfg["sweep"]["tau"])
        assert len(rows) == 2 * points

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_no_n_axis_is_a_one_value_n_axis(self, mode):
        # a sweep without an n axis draws 10,000 events per point from the
        # same streams as the one-value axis
        data = {
            "scenario": "sweep", "seed": 4,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
            "pointer": {"width": 10.0},
            "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
            "sweep": {"tau": [0.5, 1.2], "mode": mode},
        }
        with_n = {**data, "sweep": {**data["sweep"], "n": [10_000]}}
        metrics = ("corr_value", "corr_std_error")
        rows = [[(r["metric"], r["value"]) for r in run_sweep(parse_config(d))["rows"]
                 if r["metric"] in metrics] for d in (data, with_n)]
        assert rows[0] == rows[1] and len(rows[0]) == 4

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
        assert len(rows) == 2 * 2 * 3 * 2
        assert calls == {"kernel": kernels, "channel": 2}

    @pytest.mark.parametrize("grid", ["strong", "weak", "stock"])
    def test_each_width_is_written_once(self, grid):
        # one invasiveness record per delta_p entry, in axis order, and only
        # the two correlator rows at each grid point
        cfg = parse_config(sweep_cfg(grid))
        sw = cfg.sweep
        payload = run_sweep(cfg)
        assert [r["delta_p"] for r in payload["invasiveness"]] == list(sw.delta_p)
        assert all(sorted(r) == ["delta_p", "i1_measured", "i1_predicted", "i2_measured",
                                 "i2_predicted"] for r in payload["invasiveness"])
        points = len(sw.delta_p) * len(sw.n or [None]) * len(sw.tau or [None])
        assert [r["metric"] for r in payload["rows"]] == ["corr_value", "corr_std_error"] * points

    def test_sweep_without_widths_has_no_invasiveness(self, tmp_path):
        # a weak sweep over tau alone: an empty list, and an invasiveness.csv
        # that holds its header only
        cfg = sweep_cfg("weak")
        cfg["pointer"] = {"width": 10.0}
        del cfg["sweep"]["delta_p"]
        report = execute(parse_config(cfg))
        assert report["payload"]["invasiveness"] == []
        assert len(report["payload"]["rows"]) == 2 * 2
        write_report(report, str(tmp_path), "csv")
        assert (tmp_path / "invasiveness.csv").read_text() == (
            "delta_p,i1_measured,i1_predicted,i2_measured,i2_predicted\n")

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_times_out_of_order_are_refused(self, mode):
        # 1e17 + 1 rounds back to 1e17, so tau 1 gives t_second == t_first
        cfg = sweep_cfg(mode)
        cfg["plan"]["times"] = [1e17, 2e17, 3e17]
        cfg["sweep"]["tau"] = [1.0]
        with pytest.raises(ValidationError, match=r"need t_second > t_first, got 1e\+17 >= 1e\+17"):
            run_sweep(parse_config(cfg))

    @pytest.mark.parametrize("state", [KET0, PLUS], ids=["nan", "inf"])
    def test_overflowing_invasiveness_is_refused(self, state):
        # A = 1e160 sigma_z: the gap (a_i - a_j)^2 overflows, and inf * 0 makes
        # the predicted purity drop NaN on |0> and |+> alike; a width-only sweep
        # has no correlator to refuse
        cfg = sweep_cfg("strong")
        cfg["system"].update(observable=[[1e160, 0], [0, 0], [0, 0], [-1e160, 0]],
                             initial_state=state)
        cfg["sweep"] = {"delta_p": [10.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", WeakRegimeWarning)  # width 10 against 2e160
            with pytest.raises(ValidationError, match=r"sweep\.delta_p 10: .* 1e\+160$"):
                run_sweep(parse_config(cfg))

    @pytest.mark.parametrize("sweep, where", [
        ({"delta_p": [10.0], "n": [1000], "tau": [0.5]}, "delta_p 10, n 1000, tau 0.5"),
        ({"tau": [0.5, 1.0]}, "tau 0.5"),
    ], ids=["every_axis", "tau_only"])
    def test_overflowing_sums_name_the_grid_point(self, sweep, where):
        # A = 1e140 sigma_z: the width's invasiveness is finite and the
        # correlator's squared deviations are not. A sweep has no pairs, so the
        # refusal names the first point by the axes it sweeps
        cfg = sweep_cfg("strong")
        cfg["system"]["observable"] = [[1e140, 0], [0, 0], [0, 0], [-1e140, 0]]
        cfg["sweep"] = sweep
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", WeakRegimeWarning)  # width 10 against 2e140
            with pytest.raises(ValidationError) as refused:
                run_sweep(parse_config(cfg))
        assert str(refused.value) == (
            f"sweep point {where}: the correlator's sums overflow float64; the observable's "
            "largest |eigenvalue| is 1e+140")

    def test_bad_width_is_refused_before_any_sampling(self, monkeypatch):
        # A = 1e60 sigma_z: width 10 is fine and width 1e-100 overflows the
        # predicted purity drop. Every width is judged before the grid's
        # first chunk, so the points of width 10 draw nothing
        chunks, run_chunk = [], _SeriesKernel.run_chunk

        def counting(self, rng, m):
            chunks.append(m)
            return run_chunk(self, rng, m)

        monkeypatch.setattr(_SeriesKernel, "run_chunk", counting)
        cfg = sweep_cfg("strong")
        cfg["system"]["observable"] = [[1e60, 0], [0, 0], [0, 0], [-1e60, 0]]
        cfg["sweep"] = {"delta_p": [10.0, 1e-100], "n": [1000, 2000]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", WeakRegimeWarning)  # width 10 against 2e60
            with pytest.raises(ValidationError, match=r"^sweep\.delta_p 1e-100: "):
                run_sweep(parse_config(cfg))
        assert chunks == []

    def test_grid_is_one_seed_hash(self, seed_hashes):
        # every chunk of every point is seeded by one hash: 6 points of 1, 2
        # and 3 chunks of 500 events
        run_sweep(parse_config(sweep_cfg("chunked")))
        assert [(list(bases), list(ns)) for _, bases, ns in seed_hashes] == [
            (list(range(6)), [300, 300, 1_000, 1_000, 1_200, 1_200])]

    def test_weak_regime_warnings_name_run_sweep(self):
        # width 1 is below 5 x the spectral diameter 2 of sigma_z; its weak
        # channel judges it, and the Monte Carlo kernel does not judge it again
        cfg = parse_config({
            "scenario": "sweep", "seed": 3,
            "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": PLUS},
            "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
            "sweep": {"delta_p": [1.0], "tau": [0.5], "mode": "weak", "n": [100]},
        })
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(cfg)
        lines, start = inspect.getsourcelines(run_sweep)
        hits = [w for w in record if w.category is WeakRegimeWarning]
        assert len(hits) == 1
        for w in hits:
            assert w.filename == harness.__file__
            assert start <= w.lineno < start + len(lines)

    def test_weak_sweep_judges_each_pointer_once(self):
        # delta_p 1 is below the weak regime: one warning from its weak
        # channel, none from the two kernels it builds or the (n, tau) points
        cfg = sweep_cfg("stock")
        cfg["sweep"] = {"delta_p": [1.0, 10.0], "tau": [0.3, 0.6],
                        "n": [1000, 10000, 100000], "mode": "weak"}
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(parse_config(cfg))
        lines, start = inspect.getsourcelines(run_sweep)
        assert [w.category for w in record] == [WeakRegimeWarning]
        for w in record:
            assert w.filename == harness.__file__
            assert start <= w.lineno < start + len(lines)

    def test_pointer_only_weak_sweep_warns_once(self):
        # no delta_p axis: the pointer's width 1 is judged once, before the
        # grid, not once per kernel (two tau values)
        cfg = sweep_cfg("stock")
        cfg["pointer"] = {"width": 1.0}
        cfg["sweep"] = {"tau": [0.3, 0.6], "mode": "weak"}
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(parse_config(cfg))
        lines, start = inspect.getsourcelines(run_sweep)
        assert [w.category for w in record] == [WeakRegimeWarning]
        assert record[0].filename == harness.__file__
        assert start <= record[0].lineno < start + len(lines)


class TestReportEnvelope:
    def test_envelope_fields(self):
        report = execute(budget_cfg())
        assert report["schema_version"] == "2"
        assert report["scenario"] == "budget"
        assert report["seed"] == 1
        assert "started_at" in report["meta"]

    def test_meta_env(self):
        env = execute(budget_cfg())["meta"]["env"]
        assert env == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "bit_generator": "SFC64",
        }
        assert env["bit_generator"] == streams.BIT_GENERATOR

    def test_env_stays_out_of_payload(self, monkeypatch):
        cfg = lg_cfg(n_strong=2_000, n_weak=2_000)
        a = execute(cfg)
        monkeypatch.setattr(harness.np, "__version__", "0.0.0")
        b = execute(cfg)
        assert b["meta"]["env"]["numpy"] == "0.0.0" != a["meta"]["env"]["numpy"]
        assert payload_json(a) == payload_json(b)
        assert "SFC64" not in payload_json(a)

    def test_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
        assert version == lgsim.__version__ == execute(budget_cfg())["meta"]["lgsim_version"]

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

    def test_budget_csv_weak_events_are_exact_ceiling(self, tmp_path):
        # M/k in float64 is 10^17, one below ceil(M / k)
        write_report(execute(budget_cfg(ensemble_size=3 * 10**17 + 1, k=3)), str(tmp_path), "csv")
        with open(tmp_path / "budget_comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert (rows[1][0], rows[1][2]) == ("weak_first", str(10**17 + 1))

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
        invasiveness = ["delta_p", "i1_measured", "i1_predicted", "i2_measured", "i2_predicted"]
        return {"sweep.csv": [["delta_p", "n", "tau", "metric", "value"]] + [
            [r["delta_p"], r["n"], r["tau"], r["metric"], r["value"]] for r in payload["rows"]
        ], "invasiveness.csv": [invasiveness] + [
            [r[k] for k in invasiveness] for r in payload["invasiveness"]
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
    the full sweep grid, whose 960 rows span several writer batches, and the
    others at smoke sizes, which change their numbers but not their layout."""
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module.make_workload(name, seed, smoke=name != "sweep_grid").config


class TestReportBytes:
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
