import math

import numpy as np
import pytest

from lgsim.config import (
    config_to_dict,
    matrix_to_pairs,
    pairs_to_matrix,
    parse_config,
)
from lgsim.errors import ValidationError

SX = [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]
SZ = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0], [0, 0], [0, 0]]


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

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="pairs"):
            pairs_to_matrix([[1.0, 0.0]], 2)


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

    def test_workers_key_rejected(self):
        # runs are single-threaded; a leftover "workers" key is not ignored
        with pytest.raises(ValidationError, match="^config.workers: unknown key$"):
            parse_config(lg_config(workers=1))

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
        with pytest.raises(ValidationError, match="config.plan.times"):
            parse_config(data)

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="config.seed"):
            parse_config(lg_config(seed=-1))
        with pytest.raises(ValidationError, match="config.seed"):
            parse_config(lg_config(seed=2**64))

    def test_budget_needs_delta_p_or_pointer(self):
        with pytest.raises(ValidationError, match="config.budget.delta_p"):
            parse_config({
                "scenario": "budget",
                "budget": {"ensemble_size": 1000, "k": 3, "var_a": 1.0},
            })

    def test_budget_needs_var_or_system(self):
        with pytest.raises(ValidationError, match="config.budget.var_a"):
            parse_config({
                "scenario": "budget",
                "budget": {"ensemble_size": 1000, "k": 3, "delta_p": 10.0},
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


class TestRoundTrip:
    def test_lg_config_round_trips(self):
        cfg = parse_config(lg_config())
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_full_config_round_trips(self):
        data = lg_config(
            output={"dir": "somewhere", "format": "both"},
            tolerances={"eigen_gap": 1e-8},
            budget={"ensemble_size": 10**6, "k": 4, "delta_p": 10.0, "var_a": 1.0},
            verify={"widths": [5.0, 50.0], "corrupt_state": True},
            sweep={"delta_p": [10, 20], "n_per_point": 500},
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
