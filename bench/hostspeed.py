"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same code can run 1.5x slower for tens of seconds at a
time. The benchmark times this loop right before every timed run and
reports run times scaled to the loop's nominal duration, so a slowdown that
stretches both cancels. The loop is the benchmark's own code, so a change to
lgsim cannot change it. It mixes what the workloads do: interpreted Python,
many small numpy calls and large vectorised array passes.
"""

from __future__ import annotations

import time

import numpy as np

# seconds the loop takes on a quiet 2-core x86-64 box (Python 3.11, numpy 2.4)
NOMINAL_S = 0.05

_EIGENVALUES = np.array([1.5, 0.5, -0.5, -1.5])


def _loop() -> float:
    acc = 0.0
    # interpreted Python
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * 3
    acc += sum(table.values())
    # small numpy calls
    rng = np.random.Generator(np.random.Philox(20240817))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (g + g.conj().T)
    for _ in range(400):
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(-0.1j * evals)) @ evecs.conj().T
        h = 0.5 * (u @ h @ u.conj().T + (u @ h @ u.conj().T).conj().T)
        acc += float(evals[0])
    # large vectorised passes
    x = rng.standard_normal(1 << 16)
    for _ in range(6):
        phi = np.exp(-((x[:, None] - _EIGENVALUES) ** 2) / 8.0)
        acc += float(np.cumsum(phi, axis=1)[:, -1].sum())
    return acc


def sample() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
