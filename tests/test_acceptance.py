"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import functools
import math

import numpy as np
import pytest

from lgsim import (
    PointerModel,
    measure_invasiveness,
    pauli,
    plus_state,
    predicted_strong,
    sample_weak_readings,
    spectral_decompose,
    strong_channel,
    weak_channel_exact,
)
from lgsim.config import parse_config
from lgsim.harness import execute, payload_json
from lgsim.measurement import _weak_draw
from lgsim.quantum import born_weights
from lgsim.streams import substream

from conftest import random_pure_state

SEED = 20250808
TAU = math.pi / 3

SX = [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]
SZ = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0], [0, 0], [0, 0]]


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
        return wrapper
    return deco


def lg_run_config(seed=SEED, n_strong=100_000, n_weak=1_000_000):
    return parse_config({
        "scenario": "lg_run",
        "seed": seed,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
        "pointer": {"width": 10.0},
        "plan": {"k": 3, "times": [0.0, TAU, 2 * TAU]},
        "run": {"n_strong": n_strong, "n_weak": n_weak},
    })


def strong_readings(rho, obs, n, rng):
    """n projective readings, grouped by outcome: the outcome counts of the
    weak reading draw, one multinomial over the Born weights, each eigenvalue
    repeated its count. The pointer's width does not enter the counts."""
    return np.repeat(obs.eigenvalues, _weak_draw(rho, obs, PointerModel(width=10.0), n, rng)[0])


BUDGET_CONFIG = {
    "scenario": "budget",
    "seed": SEED,
    "pointer": {"width": 10.0},
    "budget": {"ensemble_size": 10**6, "k": 4, "var_a": 1.0},
}


@criterion(1, "strong invasiveness closed form")
def test_strong_invasiveness_closed_form():
    rng = substream(SEED, 1)
    for dim in (2, 3, 5):
        for _ in range(34):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            obs = spectral_decompose(0.5 * (g + g.conj().T))
            rho = random_pure_state(dim, rng)
            post = strong_channel(rho, obs)
            meas = measure_invasiveness(rho, post)
            p = born_weights(rho, obs)
            closed_form = 1.0 - float(np.dot(p, p))
            assert abs(meas.i1 - closed_form) <= 1e-12
            assert abs(meas.i2 - closed_form) <= 1e-12
            assert abs(meas.i1 - meas.i2) <= 1e-12
            pred = predicted_strong(rho, obs)
            assert pred.i1 == pred.i2  # same expression on both sides


@criterion(2, "weak expansion convergence")
def test_weak_expansion_convergence():
    obs = spectral_decompose(pauli("z"))
    rho = plus_state()

    def order_two(w):  # the |+> coherence to order 2: 0.5 (1 - (a_0 - a_1)^2 / (4 w^2))
        return 0.5 * (1.0 - 1.0 / w**2)

    widths = np.array([10.0, 20.0, 40.0, 80.0])
    gaps = []
    for w in widths:
        exact = weak_channel_exact(rho, obs, PointerModel(width=float(w)))
        gaps.append(abs(exact.matrix[0, 1].real - order_two(w)))
    slope = np.polyfit(np.log(widths), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.1)

    at_ten = weak_channel_exact(rho, obs, PointerModel(width=10.0)).matrix[0, 1].real
    assert at_ten == pytest.approx(0.5 * math.exp(-0.01), abs=1e-14)
    # order 2 gives 0.495 at w = 10; the exact value is within its Taylor
    # remainder 0.5 x^2 / 2, x = 1 / w^2
    assert abs(at_ten - 0.495) <= 0.5 * 0.01**2 / 2


@criterion(3, "weak invasiveness laws")
def test_weak_invasiveness_laws():
    obs = spectral_decompose(pauli("z"))  # spectral diameter 2
    rho = plus_state()                    # Var A = 1
    pm = PointerModel(width=100.0)
    meas = measure_invasiveness(rho, weak_channel_exact(rho, obs, pm))
    assert meas.i1 == pytest.approx(1.0 / pm.width**2, rel=0.01)
    assert meas.i1 / meas.i2 == pytest.approx(2.0, rel=0.01)


@criterion(4, "pointer statistics")
def test_pointer_statistics_at_scale():
    obs = spectral_decompose(pauli("z"))
    rho = plus_state()
    n = 1_000_000

    weak = sample_weak_readings(rho, obs, PointerModel(width=10.0), n, substream(SEED, 4, 0))
    assert abs(weak.mean()) <= 5 * math.sqrt(51.0 / n)   # ~0.036
    assert weak.var(ddof=1) == pytest.approx(51.0, rel=0.02)

    strong = strong_readings(rho, obs, n, substream(SEED, 4, 1))
    assert abs(strong.mean()) <= 5e-3
    assert strong.var(ddof=1) == pytest.approx(1.0, rel=0.02)


@criterion(5, "budget reproduction")
def test_budget_reproduction():
    report = execute(parse_config(BUDGET_CONFIG))["payload"]["report"]
    eps = report["eps_target"]
    assert eps == pytest.approx(0.0141421, abs=1e-7)
    assert report["strong_subensemble"] == 5000
    assert report["total_strong_ensemble"] == 40_000
    assert report["total_strong_ensemble"] == 4 * 1.0 * 10**6 / 10.0**2

    # Monte Carlo: strong mean estimation with n = M_s members hits the
    # target error in RMS over 200 replicate runs
    obs = spectral_decompose(pauli("z"))
    rho = plus_state()
    sq = []
    for r in range(200):
        readings = strong_readings(rho, obs, 5000, substream(777, 55, r))
        sq.append(readings.mean() ** 2)  # true mean is 0
    rms = math.sqrt(np.mean(sq))
    assert rms <= 1.1 * eps


@criterion(6, "wastage comparability")
def test_wastage_comparability():
    report = execute(parse_config(BUDGET_CONFIG))["payload"]["report"]
    assert report["waste_weak_per_measurement"] == 2500
    assert report["waste_strong_per_measurement"] == 5000
    assert report["waste_ratio_strong_over_weak"] == 2.0


@criterion(7, "LG violation end to end")
def test_lg_violation_end_to_end():
    payload = execute(lg_run_config())["payload"]
    strong_lg = payload["strong"]["lg"]
    weak_lg = payload["weak"]["lg"]

    # all-strong run lands on the quantum value and flags the violation
    assert abs(strong_lg["value"] - 1.5) <= 3 * strong_lg["std_error"]
    assert strong_lg["violates_macrorealism"]

    # weak-first run agrees in mean within combined five sigma
    combined = math.hypot(strong_lg["std_error"], weak_lg["std_error"])
    assert abs(strong_lg["value"] - weak_lg["value"]) <= 5 * combined
    for pair in payload["comparison"]["per_pair"]:
        assert pair["agreement_sigmas"] <= 5.0

    # per-correlator errors inflate by the pointer variance width^2/2 = 50
    for pair, (es, ew) in zip(
        payload["comparison"]["per_pair"],
        zip(payload["strong"]["correlators"], payload["weak"]["correlators"]),
    ):
        assert pair["variance_inflation_per_event"] == pytest.approx(50.0, rel=0.10)
        per_event_ratio = (
            ew["std_error"] * math.sqrt(ew["n_events"])
        ) / (es["std_error"] * math.sqrt(es["n_events"]))
        c = es["value"]
        predicted_ratio = math.sqrt((50.0 + 1.0 - c * c) / (1.0 - c * c))
        assert per_event_ratio == pytest.approx(predicted_ratio, rel=0.05)
        # and the headline factor sqrt(1 + width^2/2) describes it to ~15%
        assert per_event_ratio == pytest.approx(math.sqrt(51.0), rel=0.25)


@criterion(8, "determinism")
def test_determinism():
    # criterion-4 sampling reruns byte-identically
    obs = spectral_decompose(pauli("z"))
    rho = plus_state()
    a = sample_weak_readings(rho, obs, PointerModel(width=10.0), 1_000_000, substream(SEED, 4, 0))
    b = sample_weak_readings(rho, obs, PointerModel(width=10.0), 1_000_000, substream(SEED, 4, 0))
    assert a.tobytes() == b.tobytes()

    # criterion-7 harness payload reruns byte-identically
    first = payload_json(execute(lg_run_config()))
    second = payload_json(execute(lg_run_config()))
    assert first == second
