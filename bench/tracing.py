"""Spans around the calls between lgsim's modules, installed from outside.

``Tracer.install`` replaces every lgsim function that one lgsim module
imported from another with a wrapper, in the namespace of the module that
calls it (``lgsim.harness.run_series``, ``lgsim.protocol.evolve``, ...), so
calls inside a module stay unwrapped and each span marks a layer boundary.
A few methods are wrapped on their class. ``restore`` puts every original
back. The program's code is not edited.

A span is ``[run_id, span_id, parent_id, name, start, end, attrs]`` and is
kept in memory; ``name`` is ``<layer>.<function>``, the layer being the
module that defines the function. Spans assume one thread, which holds
because no workload sets ``workers``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = (
    "cli", "config", "harness", "protocol", "streams",
    "quantum", "measurement", "invasiveness", "budget",
)

# (module, class, method, span name): construction-time validation and the
# two halves of the series kernel, which no module boundary separates
METHODS = (
    ("lgsim.quantum", "DensityMatrix", "__post_init__", "quantum.DensityMatrix.validate"),
    ("lgsim.protocol", "_SeriesKernel", "__init__", "protocol.kernel_setup"),
    ("lgsim.protocol", "_SeriesKernel", "run_chunk", "protocol.run_chunk"),
)

# span name -> what the span records from the call's bound arguments
ATTRS = {
    "protocol.run_chunk": lambda a: [a["self"].first_mode, a["m"]],
    "measurement.sample_strong_readings": lambda a: a["n"],
    "measurement.sample_weak_readings": lambda a: a["n"],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name in ATTRS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None if sig is None else ATTRS[name](sig.bind(*args, **kwargs).arguments)
            span = [tracer.run_id, len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    name, time.perf_counter(), 0.0, attrs]
            tracer.spans.append(span)
            tracer._stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        modules = [f"lgsim.{layer}" for layer in LAYERS]
        for mod_name in modules:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ in modules
                    and value.__module__ != mod_name
                ):
                    layer = value.__module__.rsplit(".", 1)[-1]
                    self._patch(mod, attr, f"{layer}.{value.__name__}")
        for mod_name, cls, method, name in METHODS:
            self._patch(getattr(importlib.import_module(mod_name), cls), method, name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def root(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a new run whose root span is ``name``."""
        self.run_id += 1
        return self._wrap(name, fn)(*args)

    def run_spans(self, run_id: int) -> list[list]:
        return [s for s in self.spans if s[0] == run_id]

    def write(self, path: str) -> None:
        """Every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _pctl(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one run, from its spans."""
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[2] in by_id:
            child_time[s[2]] += s[5] - s[4]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = defaultdict(list)
    events = {"strong": 0, "weak": 0}
    sample_s = {"strong": 0.0, "weak": 0.0}
    draws = 0
    for run_id, sid, parent, name, start, end, attrs in spans:
        dur = end - start
        own = dur - child_time[sid]
        calls[name] += 1
        total[name] += dur
        durations[name].append(dur)
        self_by_name[name] += own
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        if name == "protocol.run_chunk":
            mode, m = attrs
            events[mode] += m
            sample_s[mode] += dur
        elif name.startswith("measurement.sample_") and name.endswith("_readings"):
            draws += attrs

    def group(prefix: str, names: tuple[str, ...]) -> dict[str, float]:
        return {
            f"{prefix}.calls": sum(calls[n] for n in names),
            f"{prefix}.s": sum(total[n] for n in names),
        }

    est = durations["protocol.estimate_correlator"]
    out: dict[str, float] = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    out.update({
        "cli.main.s": total["cli.main"],
        "config.load_config.s": total["config.load_config"],
        "harness.execute.s": total["harness.execute"],
        "harness.execute.self_s": self_by_name["harness.execute"],
        "harness.write_report.s": total["harness.write_report"],
        "protocol.run_series.s": total["protocol.run_series"],
        "protocol.sample.s": total["protocol.run_chunk"],
        "protocol.estimate_correlator.calls": calls["protocol.estimate_correlator"],
        "protocol.estimate_correlator.s": total["protocol.estimate_correlator"],
        "protocol.estimate_correlator.p50_ms": 1e3 * _pctl(est, 50),
        "protocol.estimate_correlator.p90_ms": 1e3 * _pctl(est, 90),
        "measurement.sample_readings.draws": draws,
        "measurement.sample_readings.s": total["measurement.sample_strong_readings"]
        + total["measurement.sample_weak_readings"],
    })
    for mode in ("strong", "weak"):
        out[f"protocol.events.{mode}"] = events[mode]
        out[f"protocol.events_per_s.{mode}"] = (
            events[mode] / sample_s[mode] if sample_s[mode] else 0.0
        )
    for name in (
        "protocol.kernel_setup", "quantum.propagator", "quantum.evolve",
        "quantum.born_weights", "quantum.spectral_decompose",
        "quantum.DensityMatrix.validate", "streams.substream",
        "measurement.strong_channel", "measurement.weak_channel_exact",
    ):
        out.update(group(name, (name,)))
    out.update(group("invasiveness.measure", ("invasiveness.measure_invasiveness",)))
    out.update(group("invasiveness.predicted",
                     ("invasiveness.predicted_strong", "invasiveness.predicted_weak")))
    out.update(group("budget", tuple(n for n in calls if n.startswith("budget."))))
    return out
