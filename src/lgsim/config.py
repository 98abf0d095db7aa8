"""Run configuration: JSON schema, validation, and round-trip serialization.

Configs are strict: unknown keys are rejected and every complaint names
the offending key path. Matrices travel as row-major lists of [re, im]
pairs. A parsed ``RunConfig`` holds only immutable primitives, so two
configs compare equal iff they describe the same run; ``config_to_dict``
followed by ``parse_config`` is the identity on resolved configs.

The section dataclasses below are the schema. Each field's type, default
and range live on the field and nowhere else: a field without a default
is required, ``X | None`` accepts ``null`` (a section may be left out but
not given as ``null``), and ``field(metadata=...)`` holds the range checks
``min``, ``max``, ``positive`` and ``choices`` (applied to each entry of a
list field). Every number must be finite. ``_parse_section`` walks these
fields and checks a matrix's length against its section's ``dim``. A
section class may check its own fields together in ``__post_init__``: the
``plan`` section is ``protocol.SeriesPlan`` itself, whose k and times rules
are reported under ``config.plan``. The rules that tie sections together
are plain code in ``parse_config``.
"""

from __future__ import annotations

import functools
import json
import math
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ValidationError
from .measurement import MODE_STRONG, MODE_WEAK, WIDTH_RANGE
from .protocol import SeriesPlan
from .streams import MAX_SEED

SCHEMA_VERSION = "2"

_REQUIRED_SECTIONS = {
    "budget": ("budget", "pointer"),
    "lg_run": ("system", "pointer", "plan", "run"),
    "verify": (),
    "sweep": ("system", "sweep"),
}
SCENARIOS = tuple(_REQUIRED_SECTIONS)
FORMATS = ("json", "csv", "both")
SWEEP_MODES = (MODE_STRONG, MODE_WEAK)

MatrixPairs = tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# pair-list codec


def pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    """Rebuild a dim x dim complex matrix from its row-major list of dim^2
    pairs, a length ``parse_config`` has checked."""
    return np.array(pairs, np.float64).view(np.complex128).reshape(dim, dim)


# ---------------------------------------------------------------------------
# config sections


def _field(default=MISSING, **checks):
    """A schema field: its default (none means required) and its range checks."""
    return field(default=default, metadata=checks)


# the range checks of every pointer width, PointerModel's rules with the key path
_WIDTH = {"positive": True, "min": WIDTH_RANGE[0], "max": WIDTH_RANGE[1]}


@dataclass(frozen=True)
class SystemConfig:
    dim: int = _field(min=1)
    hamiltonian: MatrixPairs
    observable: MatrixPairs
    initial_state: MatrixPairs


@dataclass(frozen=True)
class PointerConfig:
    width: float = _field(**_WIDTH)
    # runs always use the exact weak channel; the key stays accepted, with
    # that one value, because existing configs set it
    truncation: str = _field("exact", choices=("exact",))


@dataclass(frozen=True)
class LgRunConfig:
    n_strong: int = _field(min=2)
    n_weak: int = _field(min=2)


@dataclass(frozen=True)
class BudgetConfig:
    ensemble_size: int = _field(min=1)
    k: int = _field(min=3)
    var_a: float | None = _field(None, min=0)


@dataclass(frozen=True)
class VerifyConfig:
    widths: tuple[float, ...] = _field((10.0, 20.0, 40.0, 80.0), **_WIDTH)
    n_samples: int = _field(200_000, min=100)
    n_random: int = _field(100, min=1)
    corrupt_state: bool = False


@dataclass(frozen=True)
class SweepConfig:
    delta_p: tuple[float, ...] = _field((), **_WIDTH)
    n: tuple[int, ...] = _field((), min=2)
    tau: tuple[float, ...] = _field((), positive=True)
    mode: str = _field(MODE_STRONG, choices=SWEEP_MODES)


@dataclass(frozen=True)
class OutputConfig:
    format: str = _field("json", choices=FORMATS)


@dataclass(frozen=True)
class RunConfig:
    scenario: str = _field(choices=SCENARIOS)
    seed: int = _field(0, min=0)
    output: OutputConfig = OutputConfig()
    system: SystemConfig | None = None
    pointer: PointerConfig | None = None
    plan: SeriesPlan | None = None
    run: LgRunConfig | None = None
    budget: BudgetConfig | None = None
    verify: VerifyConfig | None = None
    sweep: SweepConfig | None = None


# ---------------------------------------------------------------------------
# the schema walker


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


@functools.cache
def _schema(cls) -> tuple[tuple, ...]:
    """(name, resolved type, default, checks) of each field, resolved once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default, f.metadata) for f in fields(cls))


def _parse_section(cls, value, path: str):
    schema = _schema(cls)
    if not isinstance(value, dict):
        _fail(path, f"must be an object, got {type(value).__name__}")
    unknown = set(value) - {name for name, *_ in schema}
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")
    parsed = {}
    for name, hint, default, checks in schema:
        key = f"{path}.{name}"
        if name not in value:
            if default is MISSING:
                _fail(key, "is required")
        elif hint == MatrixPairs:
            parsed[name] = _matrix_pairs(value[name], key, parsed["dim"])
        else:
            parsed[name] = _parse_value(value[name], key, hint, checks)
    try:
        return cls(**parsed)
    except ValidationError as exc:  # the section's own rules, from __post_init__
        _fail(path, str(exc))


def _parse_value(value, path: str, hint, checks):
    if get_origin(hint) is types.UnionType:
        (hint,) = (t for t in get_args(hint) if t is not type(None))
        if value is None and not is_dataclass(hint):
            return None
    if is_dataclass(hint):
        return _parse_section(hint, value, path)
    if "choices" in checks:
        if value not in checks["choices"]:
            _fail(path, f"must be one of {list(checks['choices'])}, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            _fail(path, f"must be a boolean, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        (item, _) = get_args(hint)
        if not isinstance(value, list):
            kind = "integers" if item is int else "numbers"
            _fail(path, f"must be a list of {kind}, got {value!r}")
        return tuple(_parse_value(v, f"{path}[{i}]", item, checks) for i, v in enumerate(value))
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"must be an integer, got {value!r}")
        return _in_range(value, path, checks)
    return float(_in_range(_number(value, path), path, checks))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, path: str):
    if not _is_number(value):
        _fail(path, f"must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _fail(path, f"must be finite, got {value}")
    return value


def _in_range(value, path: str, checks):
    if checks.get("positive") and not value > 0:
        _fail(path, f"must be positive, got {value}")
    if "min" in checks and value < checks["min"]:
        _fail(path, f"must be >= {checks['min']}, got {value}")
    if "max" in checks and value > checks["max"]:
        _fail(path, f"must be <= {checks['max']}, got {value}")
    return value


def _matrix_pairs(value, path: str, dim: int) -> MatrixPairs:
    if not isinstance(value, list) or len(value) != dim * dim:
        _fail(path, f"must be a row-major list of {dim * dim} [re, im] pairs")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_number, entry)):
            _fail(f"{path}[{i}]", f"must be an [re, im] number pair, got {entry!r}")
        out.append(tuple(float(_number(x, f"{path}[{i}]")) for x in entry))
    return tuple(out)


# ---------------------------------------------------------------------------
# cross-field rules


def parse_config(data: dict) -> RunConfig:
    """Validate a config dict against the schema; reject unknown keys."""
    cfg = _parse_section(RunConfig, data, "config")
    if cfg.seed > MAX_SEED:
        _fail("config.seed", "must fit in 64 unsigned bits")
    if cfg.sweep is not None and not (cfg.sweep.delta_p or cfg.sweep.n or cfg.sweep.tau):
        _fail("config.sweep", "sweep grid is empty: provide at least one of delta_p, n, tau")
    if cfg.verify is not None and len(set(cfg.verify.widths)) < 3:
        _fail("config.verify.widths", "must hold at least three distinct widths, the "
              f"coefficient fit's minimum, got {list(cfg.verify.widths)}")
    b = cfg.budget
    if b is not None and b.ensemble_size < 2 * b.k:
        _fail("config.budget.ensemble_size", f"must be >= 2k = {2 * b.k}, got {b.ensemble_size}")

    scenario = cfg.scenario
    for name in _REQUIRED_SECTIONS[scenario]:
        if getattr(cfg, name) is None:
            _fail(f"config.{name}", f"is required for scenario '{scenario}'")
    if scenario == "sweep":
        sw = cfg.sweep
        if (sw.n or sw.tau) and cfg.plan is None:
            _fail("config.plan", "is required when sweeping n or tau")
        if sw.mode == MODE_WEAK and cfg.pointer is None and not sw.delta_p:
            _fail("config.pointer", "is required for weak-mode sweeps without a delta_p axis")
    if scenario == "budget" and b.var_a is None and cfg.system is None:
        _fail("config.budget.var_a", "is required (or provide a system section)")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, an integer of over 4300 digits
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved-config echo; feeding it back to parse_config reproduces cfg."""
    echo = asdict(cfg, dict_factory=lambda items: {k: _lists(v) for k, v in items})
    return {name: section for name, section in echo.items() if section is not None}
