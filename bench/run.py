"""lgsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Runs from the root of a source checkout and imports lgsim from ``src/``.
The seed generates the workload's run config (workloads.py). Each run of it
is one call of the public CLI entry ``lgsim.cli.main`` in this process, one
at a time (closed loop), after one warm-up run, until S seconds are spent.
Every run's report is checked against exact correlators (oracle.py), and
its payload must be byte-identical to the first run's.

Every timing is scaled to a nominal host speed (hostspeed.py): a fixed
calibration loop runs before and after each timed measurement, and the
measured seconds are multiplied by NOMINAL_S over the loop's mean time
around it. On a shared host, where the same run can take 1.5x longer for
tens of seconds, this keeps the figures of one commit steady; the unscaled
seconds are kept in the details line.

With ``--trace 0`` the result carries the end-to-end metrics:

    wall_s        median seconds of one run, config load to report written
    events_per_s  Monte Carlo events of one run divided by wall_s
    setup_s       median over fresh interpreters, started at even intervals
                  between the timed runs, of the seconds taken by
                  ``import lgsim.cli`` plus loading the workload config
    peak_rss_mb   peak RSS of a child process that runs the workload once

With ``--trace 1`` untraced and traced runs alternate, and the result
carries the per-layer metrics (tracing.py) as medians over the traced runs,
with the tracing overhead and the Philox ceiling beside them.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
an operation is one scenario run, and it fails on an exception, a nonzero
exit code, a wrong report or a payload that differs between runs. The line
before it holds the details: environment, sample counts, payload hash and
every failure. ``--smoke`` runs every workload in both modes at tiny sizes
and checks that every metric named in BENCHMARK.json is present and finite.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import hostspeed
import oracle
import tracing
from workloads import WORKLOADS, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
SETUP_PROBES = 7
CEILING_CHUNKS = 16
CEILING_REPEATS = 5
WARNING_CLASSES = ("UserWarning", "WeakRegimeWarning", "PerturbationAccuracyWarning")


def import_lgsim():
    """Import lgsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "lgsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no lgsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lgsim

    if Path(lgsim.__file__).resolve().parent != SRC / "lgsim":
        raise SystemExit(f"error: imported lgsim from {lgsim.__file__}, not {SRC}")
    return lgsim


# ---------------------------------------------------------------------------
# environment


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# one workload


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ranked = sorted(values)
    i = len(ranked) - 11
    if i < 0:
        return None
    return {"percentile": round(100.0 * (i + 1) / len(ranked), 1), "value": ranked[i]}


def weak_flops_per_event(n: int) -> int:
    """Computed, not measured: arithmetic of one weak event in the kernel as written.

    6 n^3 for the G-table contraction (a real-by-complex product and a complex
    add count 2 flops each) and 10 n for the pointer-amplitude table, its
    normalisation, the cumulative sum and the inverse-CDF draw.
    """
    return 6 * n**3 + 10 * n


class Bench:
    def __init__(self, name: str, seed: int, smoke: bool, tag: str):
        import lgsim.cli
        import lgsim.harness

        self.cli = lgsim.cli
        self.payload_json = lgsim.harness.payload_json
        self.workload = make_workload(name, seed, smoke)
        self.seed = seed
        self.dir = WORK / f"{name}-{seed}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.workload.config), encoding="utf-8")
        self.attempted = 0
        self.failures: list[dict] = []
        self.payload_sha: str | None = None

    def check(self, label: str, exit_code: int | None, out: Path, problems: list[str]) -> None:
        """Count one operation and record what is wrong with its output."""
        self.attempted += 1
        report_path = out / "report.json"
        report = None
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
        if exit_code is not None:
            problems = problems + oracle.check_run(self.workload.config, exit_code, report)
        if report is not None:
            sha = hashlib.sha256(self.payload_json(report).encode()).hexdigest()
            if self.payload_sha is None:
                self.payload_sha = sha
            elif sha != self.payload_sha:
                problems.append(f"payload sha256 {sha} differs from the first run's")
        if problems:
            self.failures.append({"op": label, "problems": problems[:5]})

    def run_once(self, label: str, tracer: tracing.Tracer | None = None) -> tuple[float, list]:
        """One scenario run through cli.main; returns (seconds, warnings caught)."""
        (self.out / "report.json").unlink(missing_ok=True)
        argv = [self.workload.subcommand, "--config", str(self.config), "--out", str(self.out)]
        problems: list[str] = []
        exit_code = None
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    exit_code = self.cli.main(argv)
                else:
                    exit_code = tracer.root("cli.main", self.cli.main, argv)
            except Exception as exc:  # a crashing run is a failed operation, not a crash here
                traceback.print_exc()
                problems.append(f"exception: {exc!r}")
            elapsed = time.perf_counter() - t0
        self.check(label, exit_code, self.out, problems)
        return elapsed, caught

    def _probe(self, *args: str) -> str:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), args[0], str(SRC), str(self.config), *args[1:]],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"probe {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout.strip().splitlines()[-1]

    def setup_probe(self) -> float:
        """Seconds of import + config load in a fresh interpreter."""
        return float(self._probe("setup"))

    def peak_rss_mb(self) -> float:
        out = self.dir / "out_rss"
        problems: list[str] = []
        exit_code = None
        try:
            child = json.loads(self._probe("rss", self.workload.subcommand, str(out)))
            exit_code, kb = child["rc"], child["peak_rss_kb"]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"child run: {exc}")
            kb = 0  # nothing measured; the failed operation marks the result incorrect
        self.check("rss_child", exit_code, out, problems)
        return kb / 1024.0

    def philox_ceiling(self) -> float:
        """Events/s of the draws one weak event makes, from fresh chunk substreams."""
        from lgsim.streams import DEFAULT_CHUNK_SIZE, substream

        m = DEFAULT_CHUNK_SIZE
        rates = []
        for _ in range(CEILING_REPEATS):
            t0 = time.perf_counter()
            for c in range(CEILING_CHUNKS):
                rng = substream(self.seed, 0, c)
                rng.uniform(size=m)
                rng.standard_normal(m)
                rng.uniform(size=m)
            rates.append(CEILING_CHUNKS * m / (time.perf_counter() - t0))
        return _median(rates)

    def n_outcomes(self) -> int:
        system = self.workload.config.get("system")
        return oracle.System(system).a.size if system else 2  # verify's default qubit

    def report_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())


class HostClock:
    """Scales measured seconds to the calibration loop's nominal host speed.

    The loop runs before the first measurement and after every one; a
    measurement's factor is NOMINAL_S over the mean of the two loop times
    around it, so a host-wide slowdown during it cancels.
    """

    def __init__(self):
        hostspeed.sample()  # first call pays one-off numpy set-up
        self.samples = [hostspeed.sample()]

    def time(self, fn) -> tuple[object, float]:
        """Run ``fn``; return its result and the factor for times taken inside it."""
        before = self.samples[-1]
        result = fn()
        self.samples.append(hostspeed.sample())
        return result, hostspeed.NOMINAL_S / (0.5 * (before + self.samples[-1]))

    def speed(self) -> float:
        """Host speed over the run, 1.0 being nominal."""
        return hostspeed.NOMINAL_S / _median(self.samples)


_TIME_SUFFIXES = (".s", "self_s", "_ms")


def _scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Times multiplied by the host factor, event rates divided by it."""
    out = {}
    for key, value in metrics.items():
        if key.endswith(_TIME_SUFFIXES):
            value *= factor
        elif "events_per_s" in key:
            value /= factor
        out[key] = value
    return out


def _until(deadline: float, count: int, minimum: int) -> bool:
    return count < minimum or time.perf_counter() < deadline


def measure_end_to_end(b: Bench, seconds: float, smoke: bool) -> tuple[dict, dict]:
    clock = HostClock()
    rss = b.peak_rss_mb()
    clock.time(lambda: b.run_once("warmup"))
    probes = 1 if smoke else SETUP_PROBES
    minimum = 1 if smoke else MIN_SAMPLES
    raw: list[float] = []
    walls: list[float] = []
    setup_raw: list[float] = []
    setups: list[float] = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        # set-up probes are spread evenly over the run, like the timed runs, so
        # that one slow stretch of the host cannot hold all of them
        if len(setups) < probes and now >= len(setups) * seconds / probes:
            probe_s, factor = clock.time(b.setup_probe)
            setup_raw.append(probe_s)
            setups.append(probe_s * factor)
        elif now < seconds or len(walls) < minimum:
            (elapsed, _), factor = clock.time(lambda: b.run_once(f"run{len(walls)}"))
            raw.append(elapsed)
            walls.append(elapsed * factor)
        else:
            break
    wall = _median(walls)
    metrics = {
        "wall_s": wall,
        "events_per_s": b.workload.events / wall,
        "setup_s": _median(setups),
        "peak_rss_mb": rss,
    }
    detail = {
        "wall_s": {"median": wall, "samples": len(walls), "tail": _tail(walls)},
        "wall_s_raw": {"median": _median(raw), "tail": _tail(raw)},
        "setup_s_raw": _median(setup_raw),
        "host_speed": clock.speed(),
    }
    return metrics, detail


def measure_per_layer(b: Bench, seconds: float, smoke: bool) -> tuple[dict, dict]:
    clock = HostClock()
    clock.time(lambda: b.run_once("warmup"))
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_run: list[dict] = []
    deadline = time.perf_counter() + seconds
    while _until(deadline, len(traced), 1 if smoke else MIN_SAMPLES):
        (elapsed, _), factor = clock.time(lambda: b.run_once(f"plain{len(plain)}"))
        plain.append(elapsed * factor)
        tracer.install()
        try:
            (elapsed, caught), factor = clock.time(
                lambda: b.run_once(f"traced{len(traced)}", tracer)
            )
        finally:
            tracer.restore()
        traced.append(elapsed * factor)
        spans = tracer.run_spans(tracer.run_id)
        m = _scaled(tracing.run_metrics(spans), factor)
        names = [w.category.__name__ for w in caught]
        for cls in WARNING_CLASSES:
            m[f"warnings.{cls}"] = names.count(cls)
        m["warnings.other"] = sum(n not in WARNING_CLASSES for n in names)
        m["trace.spans"] = len(spans)
        per_run.append(m)

    metrics = {key: _median([m[key] for m in per_run]) for key in per_run[0]}
    ceiling, factor = clock.time(b.philox_ceiling)
    ceiling /= factor
    metrics.update({
        "harness.report_bytes": b.report_bytes(),
        "protocol.weak.flops_per_event": weak_flops_per_event(b.n_outcomes()),
        "streams.philox_ceiling_events_per_s": ceiling,
        "protocol.weak.ceiling_frac": metrics["protocol.events_per_s.weak"] / ceiling,
        "trace.overhead_frac": _median(traced) / _median(plain) - 1.0,
    })
    spans_file = b.dir / "spans.jsonl.gz"
    tracer.write(str(spans_file))
    detail = {
        "wall_s_untraced": {"median": _median(plain), "samples": len(plain)},
        "wall_s_traced": {"median": _median(traced), "samples": len(traced)},
        "host_speed": clock.speed(),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, detail


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Benchmark one workload; returns (result, detail)."""
    env = environment()
    b = Bench(name, seed, smoke, f"{'smoke-' if smoke else ''}t{int(trace)}")
    measure = measure_per_layer if trace else measure_end_to_end
    values, detail = measure(b, seconds, smoke)
    env["loadavg_end"] = _loadavg()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(b.failures)
    result = {
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail.update({
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "events_per_run": b.workload.events,
        "fail_frac": failed / b.attempted,
        "payload_sha256": b.payload_sha,
        "failures": b.failures,
        "all_metrics": values,
    })
    return result, detail


def smoke() -> int:
    """Every workload, both modes, tiny sizes: every declared metric present and finite."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = run(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            print(json.dumps(result))
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {detail['failures']}")
            for metric, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{name} trace={int(trace)}: {metric} = {v['value']!r}")
    print(json.dumps({"smoke": True, "ok": not problems, "problems": problems}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must lie in [0, 2**63)")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    import_lgsim()
    if args.smoke:
        return smoke()
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
