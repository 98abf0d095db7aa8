import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgsim import harness
from lgsim.cli import main
from lgsim.measurement import _eigenbasis_map

BUDGET = {
    "scenario": "budget",
    "seed": 1,
    "output": {"format": "both"},
    "pointer": {"width": 10.0},
    "budget": {"ensemble_size": 10**6, "k": 4, "var_a": 1.0},
}

LG_RUN = {
    "scenario": "lg_run",
    "seed": 12,
    "system": {
        "dim": 2,
        "hamiltonian": [[0, 0], [0.5, 0], [0.5, 0], [0, 0]],
        "observable": [[1, 0], [0, 0], [0, 0], [-1, 0]],
        "initial_state": [[1, 0], [0, 0], [0, 0], [0, 0]],
    },
    "pointer": {"width": 10.0},
    "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
    "run": {"n_strong": 5000, "n_weak": 5000},
}

VERIFY_FAST = {
    "scenario": "verify",
    "seed": 3,
    "verify": {"n_samples": 20_000, "n_random": 15},
}

SWEEP_WEAK = {
    "scenario": "sweep",
    "seed": 5,
    "system": LG_RUN["system"],
    "plan": {"k": 3, "times": [0.0, 1.0, 2.0]},
    "sweep": {"delta_p": [10.0], "n": [1000], "mode": "weak"},
}


def with_width(subcommand, width):
    """A fast config of ``subcommand`` with one pointer width set to ``width``,
    and the key path of that width."""
    if subcommand == "verify":
        return (dict(VERIFY_FAST, verify=dict(VERIFY_FAST["verify"], widths=[width, 10.0, 20.0])),
                "config.verify.widths[0]")
    if subcommand == "sweep":
        return (dict(SWEEP_WEAK, sweep=dict(SWEEP_WEAK["sweep"], delta_p=[width])),
                "config.sweep.delta_p[0]")
    base = BUDGET if subcommand == "budget" else LG_RUN
    return dict(base, pointer={"width": width}), "config.pointer.width"


STOCK_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["budget", "--config", write_cfg(tmp_path, BUDGET),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "report.json" in out and "budget_comparison.csv" in out

    def test_validation_error_is_one(self, tmp_path, capsys):
        bad = dict(BUDGET)
        bad["surprise"] = True
        code = main(["budget", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.surprise" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("var_a", float("nan"), "config.budget.var_a: must be finite, got nan"),
        ("ensemble_size", 7, "config.budget.ensemble_size: must be >= 2k = 8, got 7"),
    ], ids=["nan", "ensemble"])
    def test_budget_range_error_is_one(self, tmp_path, capsys, key, value, message):
        bad = dict(BUDGET, budget=dict(BUDGET["budget"], **{key: value}))
        code = main(["budget", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("path, value", [
        ("budget.delta_p", 10.0),
        ("budget.order_unity_threshold", 0.1),
        ("sweep.n_per_point", 10_000),
        ("tolerances", {"eigen_gap": 1e-9}),
        ("output.dir", "x"),
    ], ids=["delta_p", "order_unity_threshold", "n_per_point", "tolerances", "output_dir"])
    def test_removed_key_is_one(self, tmp_path, capsys, path, value):
        # each has one spelling now: pointer.width, the constant 0.1, an n axis,
        # the constant eigen-gap 1e-9 and --out. The sweep section only carries
        # its key
        bad = json.loads(json.dumps(dict(BUDGET, sweep={"delta_p": [10.0]})))
        *section, key = path.split(".")
        (bad[section[0]] if section else bad)[key] = value
        code = main(["budget", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: config.{path}: unknown key\n"

    def test_second_order_truncation_is_one(self, tmp_path, capsys):
        bad = dict(LG_RUN, pointer={"width": 10.0, "truncation": "perturbative_o2"})
        code = main(["lg-run", "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config.pointer.truncation: must be one of ['exact'], "
            "got 'perturbative_o2'\n"
        )

    @pytest.mark.parametrize("key, matrix, message", [
        ("hamiltonian", [[0, 0], [5, 0], [0, 0], [0, 0]],
         "hamiltonian is not Hermitian: max |A - A^dagger| = 5.000e+00 exceeds 1e-10"),
        ("observable", [[1, 0], [1, 0], [0, 0], [-1, 0]],
         "operator is not Hermitian: max |A - A^dagger| = 1.000e+00 exceeds 1e-10"),
        ("initial_state", [[1, 0], [0, 0], [0, 0], [1, 0]], "density matrix trace is 2.0, not 1"),
    ], ids=["hamiltonian", "observable", "initial_state"])
    @pytest.mark.parametrize("subcommand", ["budget", "budget-var-a", "verify", "lg-run", "sweep"])
    def test_invalid_system_names_its_key(self, tmp_path, capsys, subcommand, key, matrix,
                                          message):
        # every scenario builds a configured system, budget also when it has
        # var_a, and refuses a matrix that is no Hamiltonian, observable or
        # state under its config key
        budget = {k: v for k, v in BUDGET["budget"].items() if k != "var_a"}
        base = {"budget": dict(BUDGET, budget=budget), "budget-var-a": BUDGET,
                "verify": VERIFY_FAST, "lg-run": LG_RUN, "sweep": SWEEP_WEAK}[subcommand]
        bad = dict(base, system=dict(LG_RUN["system"], **{key: matrix}))
        code = main([subcommand.removesuffix("-var-a"), "--config", write_cfg(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: config.system.{key}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_scenario_subcommand_mismatch_is_one(self, tmp_path, capsys):
        code = main(["verify", "--config", write_cfg(tmp_path, BUDGET),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "scenario" in capsys.readouterr().err

    def test_qutrit_with_unequal_gaps_verifies(self, tmp_path):
        # A = diag(0.5, 0, -1.5): with three outcomes a second-order weak map
        # is not positive, and verify once rejected such an output as a state
        def diag(*values):
            return [[v if i == j else 0.0, 0.0] for i, v in enumerate(values) for j in range(3)]

        cfg = dict(VERIFY_FAST, system={
            "dim": 3,
            "hamiltonian": diag(1.0, 0.0, -1.0),
            "observable": diag(0.5, 0.0, -1.5),
            "initial_state": diag(0.5, 0.25, 0.25),
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["payload"]["checks"]
        by_name = {c["name"]: c["status"] for c in checks}
        assert set(by_name.values()) == {"pass"}

    def test_unreadable_config_is_io_error(self, tmp_path, capsys):
        code = main(["budget", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_verification_failure_is_two(self, tmp_path, capsys, monkeypatch):
        # a library defect that leaves one channel output with a negative
        # eigenvalue (trace 1, diagonal in A's eigenbasis) is a failed check
        def broken(rho, obs, weights):
            out = _eigenbasis_map(rho, obs, weights)
            out[-1] = np.diag([1.5, -0.5])
            return out
        monkeypatch.setattr(harness, "_eigenbasis_map", broken)
        code = main(["verify", "--config", write_cfg(tmp_path, VERIFY_FAST),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "verification failed: state_positivity\n"

    def test_corrupt_state_on_one_level_system_is_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_FAST, system={
            "dim": 1, "hamiltonian": [[0.5, 0]], "observable": [[1, 0]],
            "initial_state": [[1, 0]],
        })
        cfg["verify"] = dict(cfg["verify"], corrupt_state=True)
        code = main(["verify", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "verification failed: state_positivity\n"

    def test_verification_pass_is_zero(self, tmp_path):
        code = main(["verify", "--config", write_cfg(tmp_path, VERIFY_FAST),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["budget", "--config", write_cfg(tmp_path, BUDGET),
                     "--out", str(blocker)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--seed", "5"], ["--format", "json"]],
                             ids=["workers", "seed", "format"])
    def test_workers_flag_is_rejected(self, tmp_path, capsys, flag):
        # the seed and the format are set in the config file only
        with pytest.raises(SystemExit) as exc:
            main(["lg-run", "--config", write_cfg(tmp_path, LG_RUN), *flag])
        assert exc.value.code == 2  # argparse usage error
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_bad_seed_is_one(self, tmp_path, capsys):
        code = main(["budget", "--config", write_cfg(tmp_path, dict(BUDGET, seed=-4)),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: config.seed: must be >= 0, got -4\n"

    def test_out_dir_defaults_to_lgsim_out(self, tmp_path, monkeypatch):
        # LGSIM_OUT_DIR sets nothing: without --out the report lands in ./lgsim_out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LGSIM_OUT_DIR", str(tmp_path / "from_env"))
        assert main(["budget", "--config", write_cfg(tmp_path, BUDGET)]) == 0
        assert (tmp_path / "lgsim_out" / "report.json").exists()
        assert not (tmp_path / "from_env").exists()

    def test_delta_p_sweep_on_a_mixed_state_is_zero(self, tmp_path, capsys):
        # the stock sweep on I/2: each width's record holds for any state, and
        # no measurement disturbs I/2
        cfg = json.loads((Path(__file__).parent.parent / "configs" / "sweep.json").read_text())
        cfg["system"]["initial_state"] = [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert {r["metric"] for r in payload["rows"]} == {"corr_value", "corr_std_error"}
        assert [r["delta_p"] for r in payload["invasiveness"]] == cfg["sweep"]["delta_p"]
        metrics = ("i1_measured", "i1_predicted", "i2_measured", "i2_predicted")
        assert all(r[m] == 0.0 for r in payload["invasiveness"] for m in metrics)


class TestWidthRange:
    SUBCOMMANDS = ["budget", "lg-run", "sweep", "verify"]

    @pytest.mark.filterwarnings("ignore::lgsim.WeakRegimeWarning")
    @pytest.mark.parametrize("width", [1e-100, 1e100])
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_range_ends_give_finite_reports(self, tmp_path, subcommand, width):
        cfg, _ = with_width(subcommand, width)
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("width", [1e-170, 1e153, 1e200])
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_widths_outside_the_range_are_one(self, tmp_path, capsys, subcommand, width):
        cfg, path = with_width(subcommand, width)
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        bound = ">= 1e-100" if width < 1 else "<= 1e+100"
        assert capsys.readouterr().err == f"error: {path}: must be {bound}, got {width}\n"


class TestObservableScale:
    """A = s sigma_z: the products' squares overflow float64 near s = 1e77, and
    such a run exits 1 with one error line, no numpy warning and no report."""

    @staticmethod
    def scaled(base, scale):
        return dict(base, system=dict(base["system"],
                                      observable=[[scale, 0], [0, 0], [0, 0], [-scale, 0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::lgsim.WeakRegimeWarning")
    @pytest.mark.parametrize("subcommand, scale", [
        ("lg-run", 1e140), ("lg-run", 1e154), ("lg-run", 1e160), ("sweep", 1e140),
    ])
    def test_overflowing_sums_are_one(self, tmp_path, capsys, subcommand, scale):
        # an lg_run names the pair, a sweep the grid point, by its swept axes
        cfg = self.scaled(LG_RUN if subcommand == "lg-run" else SWEEP_WEAK, scale)
        where = "pair (1, 2)" if subcommand == "lg-run" else "sweep point delta_p 10, n 1000"
        out = tmp_path / "out"
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {where}: the correlator's sums overflow float64; the observable's "
            f"largest |eigenvalue| is {scale:g}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::lgsim.WeakRegimeWarning")
    @pytest.mark.parametrize("subcommand, scale, error", [
        # a width-only sweep has no correlator sums; (a_i - a_j)^2 overflows, and
        # inf * 0 makes the predicted purity drop NaN
        ("sweep", 1e160, "sweep.delta_p 10: the predicted purity drop sum_ij (a_i - a_j)^2 "
                         "|P_i rho P_j|^2 / (2 delta_p^2) overflows float64; the observable's "
                         "largest |eigenvalue| is 1e+160"),
        # verify's pointer sampler tolerances at the default n_samples: at 1e75
        # the fourth-moment excess times n overflows, at 1e80 the pointer
        # variance squared, and at 1e99 the pointers reach 50 x the spectral
        # diameter 2e99 as well. Nothing is drawn before the refusal
        *(("verify", scale, f"system.observable: spectral diameter {2 * scale:g} is too large "
           "for verify; its pointer sampler check's tolerances overflow float64 at n_samples "
           "200000") for scale in (1e75, 1e80, 1e99)),
    ], ids=["sweep", "verify-1e75", "verify-1e80", "verify-1e99"])
    def test_pointer_figures_past_float64_are_one(self, tmp_path, capsys, subcommand, scale,
                                                  error):
        base = (dict(SWEEP_WEAK, sweep={"delta_p": [10.0]}) if subcommand == "sweep"
                else dict(VERIFY_FAST, system=LG_RUN["system"],
                          verify=dict(VERIFY_FAST["verify"], n_samples=200_000)))
        out = tmp_path / "out"
        cfg = self.scaled(base, scale)
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::lgsim.WeakRegimeWarning")
    @pytest.mark.parametrize("subcommand, error", [
        ("lg-run", "pair (1, 2): the correlator's sums overflow float64"),
        ("sweep", "sweep.delta_p 10: the predicted purity drop"),
        ("verify", "system.observable: spectral diameter inf is too large for verify"),
    ], ids=["lg-run", "sweep", "verify"])
    def test_spectrum_wider_than_float64_is_one(self, tmp_path, capsys, subcommand, error):
        # the gap 2e308 between the eigenvalues overflows; neither the
        # eigenspace split nor the spectral diameter may warn on it
        base = {"lg-run": LG_RUN, "sweep": SWEEP_WEAK,
                "verify": dict(VERIFY_FAST, system=LG_RUN["system"])}[subcommand]
        out = tmp_path / "out"
        cfg = self.scaled(base, 1e308)
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigenstate_of_a_spectrum_wider_than_float64_budgets_zero(self, tmp_path):
        # |0> of 1e308 sigma_z has variance 0, not 0 * inf = NaN
        budget = {k: v for k, v in BUDGET["budget"].items() if k != "var_a"}
        cfg = dict(self.scaled(dict(BUDGET, system=LG_RUN["system"]), 1e308), budget=budget)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="zero variance"):
            code = main(["budget", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["payload"]
        assert report["input"]["var_a"] == 0.0
        assert report["report"]["strong_subensemble"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::lgsim.WeakRegimeWarning")
    def test_large_but_finite_scale_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.scaled(LG_RUN, 1e75)
        assert main(["lg-run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text


class TestTimeGapOverflow:
    """A time gap past the float64 range makes the propagator's phases
    infinite, and such a run exits 1 with one error line, naming the series
    or the sweep point, and no report."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("subcommand, cfg, where", [
        ("lg-run", dict(LG_RUN, plan={"k": 3, "times": [-1e308, 0.0, 1e308]}), "pair (1, 3)"),
        ("sweep", {**SWEEP_WEAK, "plan": {"k": 3, "times": [1e308, 1.5e308, 1.7e308]},
                   "sweep": {"tau": [1e308], "n": [1000]}}, "sweep point n 1000, tau 1e+308"),
    ], ids=["lg-run", "sweep"])
    def test_overflowing_gap_is_one(self, tmp_path, capsys, subcommand, cfg, where):
        out = tmp_path / "out"
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {where}: exp(-i H t) needs finite phases E t, got t = inf and largest "
            "|E| = 0.5\n")
        assert not out.exists()


class TestRefusalsNameTheirKey:
    """A count past the stream scheme, an ensemble past float64 and a sweep
    point whose times do not increase each exit 1 with one error line that
    names the config key or the sweep point, and no report."""

    STOCK_SWEEP = json.loads((Path(__file__).parent.parent / "configs" / "sweep.json")
                             .read_text())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("subcommand, cfg, error", [
        ("lg-run", dict(LG_RUN, run={"n_strong": 10**19, "n_weak": 5000}),
         "config.run.n_strong: must be <= 281474976710656, got 10000000000000000000"),
        ("sweep", dict(SWEEP_WEAK, sweep=dict(SWEEP_WEAK["sweep"], n=[10**19])),
         "config.sweep.n[0]: must be <= 281474976710656, got 10000000000000000000"),
        ("verify", dict(VERIFY_FAST, verify=dict(VERIFY_FAST["verify"], n_samples=10**19)),
         "config.verify.n_samples: must be <= 281474976710656, got 10000000000000000000"),
        ("budget", dict(BUDGET, budget=dict(BUDGET["budget"], ensemble_size=10**400)),
         "ensemble_size is too large: the error target eps = delta_p / "
         "sqrt(2 ensemble_size / k) is 0.0, not a positive float64"),
        # 1 + 1e-17 rounds to 1
        ("sweep", dict(STOCK_SWEEP, plan={"k": 3, "times": [1.0, 2.0, 3.0]},
                       sweep={"tau": [1e-17], "n": [1000]}),
         "sweep point n 1000, tau 1e-17: need t_second > t_first, got 1.0 >= 1.0"),
    ], ids=["lg-run-count", "sweep-count", "verify-count", "budget-ensemble", "sweep-tiny-tau"])
    def test_one_error_line(self, tmp_path, capsys, subcommand, cfg, error):
        out = tmp_path / "out"
        code = main([subcommand, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


class TestRunSettings:
    # the seed and the format have one spelling, in the config file; the
    # report directory has one, --out
    def test_config_seed_lands_in_report(self, tmp_path):
        out = tmp_path / "out"
        main(["budget", "--config", write_cfg(tmp_path, dict(BUDGET, seed=99)),
              "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99
        assert report["config"]["seed"] == 99

    def test_config_format_json_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = dict(BUDGET, output={"format": "json"})
        code = main(["budget", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert not (out / "budget_comparison.csv").exists()

    def test_out_flag_ignores_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LGSIM_OUT_DIR", str(tmp_path / "from_env"))
        code = main(["budget", "--config", write_cfg(tmp_path, BUDGET),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "from_env").exists()


class TestDeterministicReports:
    def test_single_worker_reruns_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, LG_RUN)
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["lg-run", "--config", cfg_path, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            payloads.append(json.dumps(report["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("path", STOCK_CONFIGS, ids=[p.stem for p in STOCK_CONFIGS])
    def test_stock_config_reruns_identical(self, tmp_path, path):
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([path.stem.replace("_", "-"), "--config", str(path),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert set(report["meta"]["env"]) == {"python", "numpy", "bit_generator"}
            payloads.append(json.dumps(report["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg_path = write_cfg(tmp_path, BUDGET)
        proc = subprocess.run(
            [sys.executable, "-m", "lgsim", "budget", "--config", cfg_path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "report.json" in proc.stdout

    def test_overflowing_budget_is_one_without_traceback(self, tmp_path):
        # Var/eps^2 overflows float64 at the narrowest width the range allows
        bad = dict(BUDGET, pointer={"width": 1e-100}, budget=dict(BUDGET["budget"], var_a=1e300))
        proc = subprocess.run(
            [sys.executable, "-m", "lgsim", "budget", "--config", write_cfg(tmp_path, bad),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: var_a / eps^2 overflows: var_a 1e+300, eps ")
        assert "Traceback" not in proc.stderr

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lgsim", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("budget", "lg-run", "verify", "sweep"):
            assert sub in proc.stdout
