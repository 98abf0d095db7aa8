import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lgsim.config import (
    config_to_dict,
    load_config,
    pairs_to_matrix,
    parse_config,
)
from lgsim.errors import ValidationError

from conftest import matrix_to_pairs

SX = [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]
SZ = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
STOCK_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def lg_config(**overrides):
    data = {
        "scenario": "lg_run",
        "seed": 7,
        "system": {"dim": 2, "hamiltonian": SX, "observable": SZ, "initial_state": KET0},
        "pointer": {"width": 10.0},
        "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
        "run": {"n_strong": 1000, "n_weak": 1000},
    }
    data.update(overrides)
    return data


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])
        pairs = matrix_to_pairs(m)
        assert pairs == [[1.0, 0.0], [2.0, -1.0], [2.0, 1.0], [-0.5, 0.0]]
        np.testing.assert_array_equal(pairs_to_matrix(pairs, 2), m)


class TestParseConfig:
    def test_minimal_lg_run(self):
        cfg = parse_config(lg_config())
        assert cfg.scenario == "lg_run"
        assert cfg.seed == 7
        assert cfg.plan.times == (0.0, 1.0, 2.0)
        assert cfg.pointer.truncation == "exact"

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ValidationError, match="config.bogus"):
            parse_config(lg_config(bogus=1))

    def test_unknown_nested_key_named(self):
        data = lg_config()
        data["pointer"]["sigma"] = 2.0
        with pytest.raises(ValidationError, match="config.pointer.sigma"):
            parse_config(data)

    def test_bad_value_names_key_path(self):
        data = lg_config()
        data["run"]["n_strong"] = "many"
        with pytest.raises(ValidationError, match="config.run.n_strong"):
            parse_config(data)

    def test_matrix_entry_path_in_error(self):
        data = lg_config()
        data["system"]["observable"] = [[1, 0], [0, 0], [0, 0], "x"]
        with pytest.raises(ValidationError, match=r"config.system.observable\[3\]"):
            parse_config(data)

    def test_missing_section_for_scenario(self):
        data = lg_config()
        del data["pointer"]
        with pytest.raises(ValidationError, match="config.pointer"):
            parse_config(data)

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="config.scenario"):
            parse_config(lg_config(scenario="explore"))

    def test_times_must_increase(self):
        data = lg_config()
        data["plan"]["times"] = [0.0, 2.0, 1.0]
        with pytest.raises(ValidationError, match=re.escape(
                "config.plan: times must be strictly increasing, got (0.0, 2.0, 1.0)")):
            parse_config(data)

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="config.seed"):
            parse_config(lg_config(seed=-1))
        with pytest.raises(ValidationError, match="config.seed"):
            parse_config(lg_config(seed=2**64))

    def test_budget_needs_pointer(self):
        with pytest.raises(ValidationError, match="^config.pointer: is required"):
            parse_config({
                "scenario": "budget",
                "budget": {"ensemble_size": 1000, "k": 3, "var_a": 1.0},
            })

    def test_budget_needs_var_or_system(self):
        with pytest.raises(ValidationError, match="config.budget.var_a"):
            parse_config({
                "scenario": "budget",
                "pointer": {"width": 10.0},
                "budget": {"ensemble_size": 1000, "k": 3},
            })

    def test_empty_sweep_grid_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            parse_config({
                "scenario": "sweep",
                "system": lg_config()["system"],
                "sweep": {},
            })

    def test_sweep_over_n_needs_plan(self):
        with pytest.raises(ValidationError, match="config.plan"):
            parse_config({
                "scenario": "sweep",
                "system": lg_config()["system"],
                "sweep": {"n": [100, 1000]},
            })

    def test_verify_defaults(self):
        cfg = parse_config({"scenario": "verify"})
        assert cfg.verify is None  # defaults applied at run time
        cfg = parse_config({"scenario": "verify", "verify": {"n_random": 5}})
        assert cfg.verify.n_random == 5
        assert cfg.verify.widths == (10.0, 20.0, 40.0, 80.0)
        assert cfg.verify.corrupt_state is False


MISSING = object()


def edited(data, key_path, value):
    """Deep copy of data with the dotted key path set to value, or removed."""
    out = copy.deepcopy(data)
    *parents, last = key_path.split(".")
    node = out
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return out


SYSTEM = lg_config()["system"]
BUDGET = {
    "scenario": "budget",
    "pointer": {"width": 10.0},
    "budget": {"ensemble_size": 1000, "k": 3, "var_a": 1.0},
}
SWEEP = {
    "scenario": "sweep",
    "system": SYSTEM,
    "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
    "sweep": {"delta_p": [10.0], "n": [100], "tau": [0.5]},
}
VERIFY = {"scenario": "verify", "verify": {"widths": [10.0, 20.0, 40.0], "n_samples": 1000}}
LG = lg_config()

# One single-defect input per message the parser can raise, with the full
# text of that message.
MESSAGES = [
    # top level
    (LG, "bogus", 1, "config.bogus: unknown key"),
    (LG, "scenario", MISSING, "config.scenario: is required"),
    (LG, "scenario", "explore",
     "config.scenario: must be one of ['budget', 'lg_run', 'verify', 'sweep'], got 'explore'"),
    (LG, "scenario", None,
     "config.scenario: must be one of ['budget', 'lg_run', 'verify', 'sweep'], got None"),
    (LG, "seed", 1.5, "config.seed: must be an integer, got 1.5"),
    (LG, "seed", True, "config.seed: must be an integer, got True"),
    (LG, "seed", None, "config.seed: must be an integer, got None"),
    (LG, "seed", -1, "config.seed: must be >= 0, got -1"),
    (LG, "seed", 2**64, "config.seed: must fit in 64 unsigned bits"),
    (LG, "system", None, "config.system: must be an object, got NoneType"),
    (LG, "pointer", [], "config.pointer: must be an object, got list"),
    (LG, "output", None, "config.output: must be an object, got NoneType"),
    (VERIFY, "verify", None, "config.verify: must be an object, got NoneType"),
    # required sections and cross-section rules
    (LG, "system", MISSING, "config.system: is required for scenario 'lg_run'"),
    (LG, "pointer", MISSING, "config.pointer: is required for scenario 'lg_run'"),
    (LG, "plan", MISSING, "config.plan: is required for scenario 'lg_run'"),
    (LG, "run", MISSING, "config.run: is required for scenario 'lg_run'"),
    (BUDGET, "budget", MISSING, "config.budget: is required for scenario 'budget'"),
    (SWEEP, "system", MISSING, "config.system: is required for scenario 'sweep'"),
    (SWEEP, "sweep", MISSING, "config.sweep: is required for scenario 'sweep'"),
    (SWEEP, "plan", MISSING, "config.plan: is required when sweeping n or tau"),
    (edited(SWEEP, "sweep.delta_p", []), "sweep.mode", "weak",
     "config.pointer: is required for weak-mode sweeps without a delta_p axis"),
    (BUDGET, "pointer", MISSING, "config.pointer: is required for scenario 'budget'"),
    (BUDGET, "budget.var_a", MISSING,
     "config.budget.var_a: is required (or provide a system section)"),
    # system
    (LG, "system.spin", 1, "config.system.spin: unknown key"),
    (LG, "system.dim", MISSING, "config.system.dim: is required"),
    (LG, "system.initial_state", MISSING, "config.system.initial_state: is required"),
    (LG, "system.dim", "2", "config.system.dim: must be an integer, got '2'"),
    (LG, "system.dim", 2.0, "config.system.dim: must be an integer, got 2.0"),
    (LG, "system.dim", 0, "config.system.dim: must be >= 1, got 0"),
    (LG, "system.dim", 3,
     "config.system.hamiltonian: must be a row-major list of 9 [re, im] pairs"),
    (LG, "system.hamiltonian", SX[:3],
     "config.system.hamiltonian: must be a row-major list of 4 [re, im] pairs"),
    (LG, "system.hamiltonian", "sx",
     "config.system.hamiltonian: must be a row-major list of 4 [re, im] pairs"),
    (LG, "system.observable", None,
     "config.system.observable: must be a row-major list of 4 [re, im] pairs"),
    (LG, "system.observable", SZ[:3] + ["x"],
     "config.system.observable[3]: must be an [re, im] number pair, got 'x'"),
    (LG, "system.initial_state", [[1, 0, 0]] + KET0[1:],
     "config.system.initial_state[0]: must be an [re, im] number pair, got [1, 0, 0]"),
    (LG, "system.initial_state", [[True, 0]] + KET0[1:],
     "config.system.initial_state[0]: must be an [re, im] number pair, got [True, 0]"),
    (LG, "system.initial_state", [(1, 0)] + KET0[1:],
     "config.system.initial_state[0]: must be an [re, im] number pair, got (1, 0)"),
    # pointer
    (LG, "pointer.sigma", 2.0, "config.pointer.sigma: unknown key"),
    (LG, "pointer.width", MISSING, "config.pointer.width: is required"),
    (LG, "pointer.width", "w", "config.pointer.width: must be a number, got 'w'"),
    (LG, "pointer.width", False, "config.pointer.width: must be a number, got False"),
    (LG, "pointer.width", 0, "config.pointer.width: must be positive, got 0"),
    (LG, "pointer.width", -1.5, "config.pointer.width: must be positive, got -1.5"),
    (LG, "pointer.width", 1e-170, "config.pointer.width: must be >= 1e-100, got 1e-170"),
    (LG, "pointer.width", 1e153, "config.pointer.width: must be <= 1e+100, got 1e+153"),
    (LG, "pointer.truncation", "third",
     "config.pointer.truncation: must be one of ['exact'], got 'third'"),
    (LG, "pointer.truncation", None,
     "config.pointer.truncation: must be one of ['exact'], got None"),
    (LG, "pointer.truncation", "perturbative_o2",
     "config.pointer.truncation: must be one of ['exact'], got 'perturbative_o2'"),
    # plan
    (LG, "plan.k", MISSING, "config.plan.k: is required"),
    (LG, "plan.times", MISSING, "config.plan.times: is required"),
    (LG, "plan.k", 3.0, "config.plan.k: must be an integer, got 3.0"),
    (edited(LG, "plan.times", [0.0, 1.0]), "plan.k", 2,
     "config.plan: a plan needs k >= 3 time slices, got 2"),
    (LG, "plan.times", "0 1 2", "config.plan.times: must be a list of numbers, got '0 1 2'"),
    (LG, "plan.times", [0.0, None, 2.0], "config.plan.times[1]: must be a number, got None"),
    (LG, "plan.times", [0.0, 1.0], "config.plan: expected 3 times, got 2"),
    (LG, "plan.times", [0.0, 2.0, 1.0],
     "config.plan: times must be strictly increasing, got (0.0, 2.0, 1.0)"),
    (LG, "plan.times", [0.0, 1.0, 1.0],
     "config.plan: times must be strictly increasing, got (0.0, 1.0, 1.0)"),
    # run
    (LG, "run.n_strong", MISSING, "config.run.n_strong: is required"),
    (LG, "run.n_strong", "many", "config.run.n_strong: must be an integer, got 'many'"),
    (LG, "run.n_weak", 1, "config.run.n_weak: must be >= 2, got 1"),
    # a series holds at most 2^32 chunks of 2^16 events, streams.MAX_EVENTS
    (LG, "run.n_strong", 10**19,
     "config.run.n_strong: must be <= 281474976710656, got 10000000000000000000"),
    (LG, "run.n_weak", 2**48 + 1, "config.run.n_weak: must be <= 281474976710656, got "
     "281474976710657"),
    # budget
    (BUDGET, "budget.ensemble_size", MISSING, "config.budget.ensemble_size: is required"),
    (BUDGET, "budget.k", MISSING, "config.budget.k: is required"),
    (BUDGET, "budget.ensemble_size", 0, "config.budget.ensemble_size: must be >= 1, got 0"),
    (BUDGET, "budget.k", 2, "config.budget.k: must be >= 3, got 2"),
    (BUDGET, "budget.var_a", -1, "config.budget.var_a: must be >= 0, got -1"),
    # verify
    (VERIFY, "verify.widths", 5, "config.verify.widths: must be a list of numbers, got 5"),
    (VERIFY, "verify.widths", [-1], "config.verify.widths[0]: must be positive, got -1"),
    (VERIFY, "verify.widths", [10.0, 1e200],
     "config.verify.widths[1]: must be <= 1e+100, got 1e+200"),
    (VERIFY, "verify.widths", [10.0, 20.0],
     "config.verify.widths: must hold at least three distinct widths, the coefficient fit's "
     "minimum, got [10.0, 20.0]"),
    (VERIFY, "verify.widths", [10.0, 10.0, 10.0, 20.0],
     "config.verify.widths: must hold at least three distinct widths, the coefficient fit's "
     "minimum, got [10.0, 10.0, 10.0, 20.0]"),
    (VERIFY, "verify.widths", [],
     "config.verify.widths: must hold at least three distinct widths, the coefficient fit's "
     "minimum, got []"),
    (VERIFY, "verify.n_samples", 99, "config.verify.n_samples: must be >= 100, got 99"),
    (VERIFY, "verify.n_samples", None, "config.verify.n_samples: must be an integer, got None"),
    (VERIFY, "verify.n_samples", 10**19,
     "config.verify.n_samples: must be <= 281474976710656, got 10000000000000000000"),
    (VERIFY, "verify.n_random", 0, "config.verify.n_random: must be >= 1, got 0"),
    (VERIFY, "verify.corrupt_state", 1, "config.verify.corrupt_state: must be a boolean, got 1"),
    # sweep
    (SWEEP, "sweep.delta_p", 10, "config.sweep.delta_p: must be a list of numbers, got 10"),
    (SWEEP, "sweep.delta_p", [0], "config.sweep.delta_p[0]: must be positive, got 0"),
    (SWEEP, "sweep.delta_p", [10.0, 1e-101],
     "config.sweep.delta_p[1]: must be >= 1e-100, got 1e-101"),
    (SWEEP, "sweep.n", 5, "config.sweep.n: must be a list of integers, got 5"),
    (SWEEP, "sweep.n", None, "config.sweep.n: must be a list of integers, got None"),
    (SWEEP, "sweep.n", [100, 1], "config.sweep.n[1]: must be >= 2, got 1"),
    (SWEEP, "sweep.n", [2.5], "config.sweep.n[0]: must be an integer, got 2.5"),
    (SWEEP, "sweep.n", [1000, 10**19],
     "config.sweep.n[1]: must be <= 281474976710656, got 10000000000000000000"),
    (SWEEP, "sweep.tau", [-0.5], "config.sweep.tau[0]: must be positive, got -0.5"),
    (SWEEP, "sweep.mode", "medium",
     "config.sweep.mode: must be one of ['strong', 'weak'], got 'medium'"),
    (SWEEP, "sweep", {}, "config.sweep: sweep grid is empty: provide at least one of delta_p, n, tau"),
    # output
    (LG, "output", {"dir": "somewhere"}, "config.output.dir: unknown key"),
    (LG, "output", {"format": "xml"},
     "config.output.format: must be one of ['json', 'csv', 'both'], got 'xml'"),
]


# Keys that were removed, each with the one spelling that replaced it:
# "workers" (runs are single-threaded), "tolerances" (the eigen-gap is the
# constant quantum.EIGEN_GAP_TOL), "budget.delta_p" (pointer.width),
# "budget.order_unity_threshold" (the constant
# invasiveness.ORDER_UNITY_THRESHOLD) and "sweep.n_per_point" (a one-value
# n axis). A leftover key is rejected, not ignored.
REMOVED_KEYS = [
    (LG, "workers", 1),
    (LG, "tolerances", {"eigen_gap": 1e-9}),
    (BUDGET, "budget.delta_p", 10.0),
    (BUDGET, "budget.order_unity_threshold", 0.1),
    (SWEEP, "sweep.n_per_point", 10_000),
]


@pytest.mark.parametrize("base, key_path, value", REMOVED_KEYS, ids=[k[1] for k in REMOVED_KEYS])
def test_removed_key_rejected(base, key_path, value):
    with pytest.raises(ValidationError) as exc:
        parse_config(edited(base, key_path, value))
    assert str(exc.value) == f"config.{key_path}: unknown key"


class TestMessages:
    @pytest.mark.parametrize(
        "base, key_path, value, message", MESSAGES, ids=[m[3] for m in MESSAGES]
    )
    def test_single_defect_message(self, base, key_path, value, message):
        with pytest.raises(ValidationError) as exc:
            parse_config(edited(base, key_path, value))
        assert str(exc.value) == message

    def test_bases_are_valid(self):
        for base in (LG, BUDGET, SWEEP, VERIFY):
            parse_config(base)

    def test_top_level_must_be_object(self):
        with pytest.raises(ValidationError) as exc:
            parse_config([])
        assert str(exc.value) == "config: must be an object, got list"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_config(str(path))
        assert str(exc.value) == (
            "config is not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )

    def test_nulls_that_mean_unset(self):
        data = edited(BUDGET, "budget.var_a", None)
        cfg = parse_config(edited(data, "system", SYSTEM))
        assert cfg.budget.var_a is None


class TestUndecodableJson:
    # every ValueError json.load raises is a validation error, not a traceback
    @pytest.mark.parametrize("raw", [
        b'{"scenario": "verify", "seed": ' + b"9" * 5000 + b"}",
        b'{"scenario": "verify\xff"}',
    ], ids=["integer_over_4300_digits", "not_utf8"])
    def test_undecodable_json(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="^config is not valid JSON: "):
            load_config(str(path))


class TestNonFiniteNumbers:
    # json.load turns NaN, Infinity and -Infinity into floats, and keeps an
    # integer literal too large for a float; each kind of number field
    # rejects them with its key path
    @pytest.mark.parametrize("value, text", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, str(10**400)),
    ], ids=["nan", "inf", "-inf", "int_beyond_float"])
    @pytest.mark.parametrize("base, key_path, make, error_path", [
        (LG, "pointer.width", lambda v: v, "config.pointer.width"),
        (BUDGET, "budget.var_a", lambda v: v, "config.budget.var_a"),
        (LG, "plan.times", lambda v: [0.0, v, 2.0], "config.plan.times[1]"),
        (LG, "system.observable", lambda v: SZ[:3] + [[v, 0]], "config.system.observable[3]"),
    ], ids=["number", "optional_number", "list_entry", "matrix_entry"])
    def test_rejected(self, base, key_path, make, error_path, value, text):
        with pytest.raises(ValidationError) as exc:
            parse_config(edited(base, key_path, make(value)))
        assert str(exc.value) == f"{error_path}: must be finite, got {text}"

    def test_json_tokens_rejected(self, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(edited(BUDGET, "budget.var_a", math.nan)), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_config(str(path))
        assert str(exc.value) == "config.budget.var_a: must be finite, got nan"


class TestBudgetRanges:
    def test_ensemble_must_cover_2k_measurements(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(edited(BUDGET, "budget.ensemble_size", 5))
        assert str(exc.value) == "config.budget.ensemble_size: must be >= 2k = 6, got 5"
        assert parse_config(edited(BUDGET, "budget.ensemble_size", 6)).budget.ensemble_size == 6


class TestRoundTrip:
    @pytest.mark.parametrize("path", STOCK_CONFIGS, ids=[p.name for p in STOCK_CONFIGS])
    def test_stock_config_round_trips(self, path):
        cfg = load_config(str(path))
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_lg_config_round_trips(self):
        cfg = parse_config(lg_config())
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_full_config_round_trips(self):
        data = lg_config(
            output={"format": "both"},
            budget={"ensemble_size": 10**6, "k": 4, "var_a": 1.0},
            verify={"widths": [5.0, 50.0, 500.0], "corrupt_state": True},
            sweep={"delta_p": [10, 20], "n": [500]},
        )
        cfg = parse_config(data)
        echo = config_to_dict(cfg)
        assert parse_config(echo) == cfg
        # times survive exactly
        assert echo["plan"]["times"] == [0.0, 1.0, 2.0]

    def test_irrational_times_survive_round_trip(self):
        data = lg_config()
        data["plan"]["times"] = [0.0, math.pi / 3, 2 * math.pi / 3]
        cfg = parse_config(data)
        assert parse_config(config_to_dict(cfg)) == cfg
