"""Host reference probe: a fixed unit of work that never changes.

The sandbox this benchmark runs on flips between speed modes tens of percent
apart every few seconds, so a raw wall time says as much about the moment it
was taken as about the code.  Every timed op is therefore bracketed by this
probe, and its cost is reported as ``op_wall / mean(probe before, probe
after)`` — a dimensionless number in "reference units" that cancels the host's
current speed.  ``host.ref_ms_*`` is reported beside it so the ratio converts
back to seconds.

The probe mixes the kinds of work the program does — BLAS (``matmul``),
cache-resident element-wise, selection (``argpartition``), a reduction,
pure-Python bytecode, and one pass over arrays too large for the cache.  The
mix is deliberate: between the host's slow and fast modes compute-bound work
(matmul, bytecode) changes by 30-40 % and memory-bound streaming by 8-12 %,
while the five workloads' ops change by 21-27 %.  A compute-only probe
therefore over-corrects (measured: normalised cost 11 % apart between the
modes); this mix changes by ~23.5 %, the middle of the workloads' range, which
leaves under 3 %.  It imports nothing from ``repro``: an optimisation PR cannot
make the yardstick faster.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250928)
_A = _RNG.standard_normal((192, 192))
_B = _RNG.standard_normal((192, 192))
_MM_OUT = np.empty((192, 192))
_V = _RNG.standard_normal(100_000)
_W = _RNG.standard_normal(100_000)
_V_OUT = np.empty(100_000)
_BIG = _RNG.standard_normal(2_000_000)
_BIG_OUT = np.empty(2_000_000)

NUMPY_ROUNDS = 7
PYTHON_ITERATIONS = 20_000

#: What :func:`probe` reads on this sandbox at its usual speed.  Only used to
#: express a host-normalised duration in seconds again (``setup_s``).
NOMINAL_S = 0.008


def work() -> float:
    """Run the fixed unit of work once; the return value only defeats elision."""
    sink = 0.0
    for _ in range(NUMPY_ROUNDS):
        np.matmul(_A, _B, out=_MM_OUT)
        np.multiply(_V, _W, out=_V_OUT)
        sink += float(np.argpartition(_V_OUT, 1000)[0])
        sink += float(_V_OUT.sum())
    np.multiply(_BIG, _BIG, out=_BIG_OUT)
    acc = 0
    for i in range(PYTHON_ITERATIONS):
        acc = (acc + i * i) & 0xFFFF
    return sink + acc


def probe() -> float:
    """Seconds the fixed unit of work takes right now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
