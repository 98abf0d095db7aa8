"""Run configuration: JSON schema, validation, and round-trip serialization.

Configs are strict: unknown keys are rejected and every complaint names
the offending key path. Matrices travel as row-major lists of [re, im]
pairs. A parsed ``RunConfig`` holds only immutable primitives, so two
configs compare equal iff they describe the same run; ``to_dict`` followed
by ``parse_config`` is the identity on resolved configs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .quantum import EIGEN_GAP_TOL

SCHEMA_VERSION = "1"

SCENARIOS = ("budget", "lg_run", "verify", "sweep")
FORMATS = ("json", "csv", "both")
TRUNCATIONS = ("exact", "perturbative_o2")
SWEEP_MODES = ("strong", "weak")

MatrixPairs = tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# matrix <-> pair-list codecs


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pair list of a square complex matrix."""
    a = np.asarray(m, dtype=np.complex128)
    return [[float(x.real), float(x.imag)] for x in a.ravel(order="C")]


def pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    """Rebuild a dim x dim complex matrix from its row-major pair list."""
    flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if flat.size != dim * dim:
        raise ValidationError(
            f"matrix needs {dim * dim} [re, im] pairs for dim {dim}, got {flat.size}"
        )
    return flat.reshape(dim, dim)


# ---------------------------------------------------------------------------
# config sections


@dataclass(frozen=True)
class SystemConfig:
    dim: int
    hamiltonian: MatrixPairs
    observable: MatrixPairs
    initial_state: MatrixPairs


@dataclass(frozen=True)
class PointerConfig:
    width: float
    truncation: str = "exact"


@dataclass(frozen=True)
class PlanConfig:
    k: int
    times: tuple[float, ...]


@dataclass(frozen=True)
class LgRunConfig:
    n_strong: int
    n_weak: int


@dataclass(frozen=True)
class BudgetConfig:
    ensemble_size: int
    k: int
    delta_p: float | None = None
    var_a: float | None = None
    order_unity_threshold: float = 0.1


@dataclass(frozen=True)
class VerifyConfig:
    widths: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)
    n_samples: int = 200_000
    n_random: int = 100
    corrupt_state: bool = False


@dataclass(frozen=True)
class SweepConfig:
    delta_p: tuple[float, ...] = ()
    n: tuple[int, ...] = ()
    tau: tuple[float, ...] = ()
    n_per_point: int = 10_000
    mode: str = "strong"


@dataclass(frozen=True)
class ToleranceConfig:
    eigen_gap: float = EIGEN_GAP_TOL


@dataclass(frozen=True)
class OutputConfig:
    dir: str | None = None
    format: str = "json"


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    seed: int = 0
    output: OutputConfig = OutputConfig()
    system: SystemConfig | None = None
    pointer: PointerConfig | None = None
    plan: PlanConfig | None = None
    run: LgRunConfig | None = None
    budget: BudgetConfig | None = None
    verify: VerifyConfig | None = None
    sweep: SweepConfig | None = None
    tolerances: ToleranceConfig = ToleranceConfig()


# ---------------------------------------------------------------------------
# validation helpers


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _expect_object(value, path: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"must be an object, got {type(value).__name__}")
    unknown = set(value) - allowed
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")
    return value


def _expect_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _expect_number(value, path: str, positive: bool = False, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    v = float(value)
    if positive and not v > 0:
        _fail(path, f"must be positive, got {value}")
    if nonnegative and v < 0:
        _fail(path, f"must be >= 0, got {value}")
    return v


def _expect_choice(value, path: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        _fail(path, f"must be one of {list(choices)}, got {value!r}")
    return value


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"must be a boolean, got {value!r}")
    return value


def _expect_matrix_pairs(value, path: str, dim: int) -> MatrixPairs:
    if not isinstance(value, list) or len(value) != dim * dim:
        _fail(path, f"must be a row-major list of {dim * dim} [re, im] pairs")
    out = []
    for i, entry in enumerate(value):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
        ):
            _fail(f"{path}[{i}]", f"must be an [re, im] number pair, got {entry!r}")
        out.append((float(entry[0]), float(entry[1])))
    return tuple(out)


def _expect_number_list(value, path: str, positive: bool = False) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, f"must be a list of numbers, got {value!r}")
    return tuple(
        _expect_number(v, f"{path}[{i}]", positive=positive) for i, v in enumerate(value)
    )


def _expect_int_list(value, path: str, minimum: int = 1) -> tuple[int, ...]:
    if not isinstance(value, list):
        _fail(path, f"must be a list of integers, got {value!r}")
    return tuple(
        _expect_int(v, f"{path}[{i}]", minimum=minimum) for i, v in enumerate(value)
    )


# ---------------------------------------------------------------------------
# section parsers


def _parse_system(data, path: str) -> SystemConfig:
    obj = _expect_object(data, path, {"dim", "hamiltonian", "observable", "initial_state"})
    for key in ("dim", "hamiltonian", "observable", "initial_state"):
        if key not in obj:
            _fail(f"{path}.{key}", "is required")
    dim = _expect_int(obj["dim"], f"{path}.dim", minimum=1)
    return SystemConfig(
        dim=dim,
        hamiltonian=_expect_matrix_pairs(obj["hamiltonian"], f"{path}.hamiltonian", dim),
        observable=_expect_matrix_pairs(obj["observable"], f"{path}.observable", dim),
        initial_state=_expect_matrix_pairs(obj["initial_state"], f"{path}.initial_state", dim),
    )


def _parse_pointer(data, path: str) -> PointerConfig:
    obj = _expect_object(data, path, {"width", "truncation"})
    if "width" not in obj:
        _fail(f"{path}.width", "is required")
    return PointerConfig(
        width=_expect_number(obj["width"], f"{path}.width", positive=True),
        truncation=_expect_choice(obj.get("truncation", "exact"), f"{path}.truncation", TRUNCATIONS),
    )


def _parse_plan(data, path: str) -> PlanConfig:
    obj = _expect_object(data, path, {"k", "times"})
    for key in ("k", "times"):
        if key not in obj:
            _fail(f"{path}.{key}", "is required")
    k = _expect_int(obj["k"], f"{path}.k", minimum=3)
    times = _expect_number_list(obj["times"], f"{path}.times")
    if len(times) != k:
        _fail(f"{path}.times", f"must have k = {k} entries, got {len(times)}")
    if any(b <= a for a, b in zip(times, times[1:])):
        _fail(f"{path}.times", "must be strictly increasing")
    return PlanConfig(k=k, times=times)


def _parse_run(data, path: str) -> LgRunConfig:
    obj = _expect_object(data, path, {"n_strong", "n_weak"})
    for key in ("n_strong", "n_weak"):
        if key not in obj:
            _fail(f"{path}.{key}", "is required")
    return LgRunConfig(
        n_strong=_expect_int(obj["n_strong"], f"{path}.n_strong", minimum=2),
        n_weak=_expect_int(obj["n_weak"], f"{path}.n_weak", minimum=2),
    )


def _parse_budget(data, path: str) -> BudgetConfig:
    obj = _expect_object(
        data, path, {"ensemble_size", "k", "delta_p", "var_a", "order_unity_threshold"}
    )
    for key in ("ensemble_size", "k"):
        if key not in obj:
            _fail(f"{path}.{key}", "is required")
    delta_p = obj.get("delta_p")
    var_a = obj.get("var_a")
    return BudgetConfig(
        ensemble_size=_expect_int(obj["ensemble_size"], f"{path}.ensemble_size", minimum=1),
        k=_expect_int(obj["k"], f"{path}.k", minimum=3),
        delta_p=None if delta_p is None else _expect_number(delta_p, f"{path}.delta_p", positive=True),
        var_a=None if var_a is None else _expect_number(var_a, f"{path}.var_a", nonnegative=True),
        order_unity_threshold=_expect_number(
            obj.get("order_unity_threshold", 0.1), f"{path}.order_unity_threshold", positive=True
        ),
    )


def _parse_verify(data, path: str) -> VerifyConfig:
    obj = _expect_object(data, path, {"widths", "n_samples", "n_random", "corrupt_state"})
    defaults = VerifyConfig()
    return VerifyConfig(
        widths=(
            _expect_number_list(obj["widths"], f"{path}.widths", positive=True)
            if "widths" in obj
            else defaults.widths
        ),
        n_samples=_expect_int(obj.get("n_samples", defaults.n_samples), f"{path}.n_samples", minimum=100),
        n_random=_expect_int(obj.get("n_random", defaults.n_random), f"{path}.n_random", minimum=1),
        corrupt_state=_expect_bool(obj.get("corrupt_state", False), f"{path}.corrupt_state"),
    )


def _parse_sweep(data, path: str) -> SweepConfig:
    obj = _expect_object(data, path, {"delta_p", "n", "tau", "n_per_point", "mode"})
    cfg = SweepConfig(
        delta_p=_expect_number_list(obj.get("delta_p", []), f"{path}.delta_p", positive=True),
        n=_expect_int_list(obj.get("n", []), f"{path}.n", minimum=2),
        tau=_expect_number_list(obj.get("tau", []), f"{path}.tau", positive=True),
        n_per_point=_expect_int(obj.get("n_per_point", 10_000), f"{path}.n_per_point", minimum=2),
        mode=_expect_choice(obj.get("mode", "strong"), f"{path}.mode", SWEEP_MODES),
    )
    if not (cfg.delta_p or cfg.n or cfg.tau):
        _fail(path, "sweep grid is empty: provide at least one of delta_p, n, tau")
    return cfg


def _parse_tolerances(data, path: str) -> ToleranceConfig:
    obj = _expect_object(data, path, {"eigen_gap"})
    return ToleranceConfig(
        eigen_gap=_expect_number(
            obj.get("eigen_gap", EIGEN_GAP_TOL), f"{path}.eigen_gap", positive=True
        )
    )


def _parse_output(data, path: str) -> OutputConfig:
    obj = _expect_object(data, path, {"dir", "format"})
    d = obj.get("dir")
    if d is not None and not isinstance(d, str):
        _fail(f"{path}.dir", f"must be a string or null, got {d!r}")
    return OutputConfig(
        dir=d,
        format=_expect_choice(obj.get("format", "json"), f"{path}.format", FORMATS),
    )


_SECTION_PARSERS = {
    "system": _parse_system,
    "pointer": _parse_pointer,
    "plan": _parse_plan,
    "run": _parse_run,
    "budget": _parse_budget,
    "verify": _parse_verify,
    "sweep": _parse_sweep,
}

_REQUIRED_SECTIONS = {
    "budget": ("budget",),
    "lg_run": ("system", "pointer", "plan", "run"),
    "verify": (),
    "sweep": ("system", "sweep"),
}


def parse_config(data: dict) -> RunConfig:
    """Validate a config dict against the schema; reject unknown keys."""
    top_keys = {"scenario", "seed", "output", "tolerances", *_SECTION_PARSERS}
    obj = _expect_object(data, "config", top_keys)
    if "scenario" not in obj:
        _fail("config.scenario", "is required")
    scenario = _expect_choice(obj["scenario"], "config.scenario", SCENARIOS)

    seed = _expect_int(obj.get("seed", 0), "config.seed", minimum=0)
    if seed > 2**64 - 1:
        _fail("config.seed", "must fit in 64 unsigned bits")

    sections = {
        name: parser(obj[name], f"config.{name}") if name in obj else None
        for name, parser in _SECTION_PARSERS.items()
    }
    for name in _REQUIRED_SECTIONS[scenario]:
        if sections[name] is None:
            _fail(f"config.{name}", f"is required for scenario '{scenario}'")
    if scenario == "sweep":
        sw: SweepConfig = sections["sweep"]
        if (sw.n or sw.tau) and sections["plan"] is None:
            _fail("config.plan", "is required when sweeping n or tau")
        if sw.mode == "weak" and sections["pointer"] is None and not sw.delta_p:
            _fail("config.pointer", "is required for weak-mode sweeps without a delta_p axis")
    if scenario == "budget":
        b: BudgetConfig = sections["budget"]
        if b.delta_p is None and sections["pointer"] is None:
            _fail("config.budget.delta_p", "is required (or provide a pointer section)")
        if b.var_a is None and sections["system"] is None:
            _fail("config.budget.var_a", "is required (or provide a system section)")

    return RunConfig(
        scenario=scenario,
        seed=seed,
        output=_parse_output(obj.get("output", {}), "config.output"),
        tolerances=_parse_tolerances(obj.get("tolerances", {}), "config.tolerances"),
        **sections,
    )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved-config echo; feeding it back to parse_config reproduces cfg."""
    out: dict = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "output": {"dir": cfg.output.dir, "format": cfg.output.format},
        "tolerances": {"eigen_gap": cfg.tolerances.eigen_gap},
    }
    for name in _SECTION_PARSERS:
        section = getattr(cfg, name)
        if section is None:
            continue
        d = asdict(section)
        for key, val in d.items():
            if isinstance(val, tuple):
                d[key] = [list(v) if isinstance(v, tuple) else v for v in val]
        out[name] = d
    return out
