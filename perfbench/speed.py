"""Machine-speed probe.

On a shared host the speed of the same code drifts by tens of percent over
minutes, far more than a regression bound can tolerate. The probe is a fixed
kernel, independent of nvlab, with the kinds of work nvlab does: Philox state
round trips with small draws, bulk normal draws with block sums and running
sums, a loop of small-array ufuncs, and plain interpreter work. Timed between
repetitions in the same process, its median tracks the host's current speed;
run.py scales measured times by ``REFERENCE_S / median(probe times)`` to
reference-speed seconds and keeps the raw times in its detail line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time on the reference machine (2-core Xeon VM, numpy 2.4, unloaded);
# a constant, so that scaled times compare across runs and commits
REFERENCE_S = 0.025

_BITGEN = np.random.Philox(key=(2016, 5268))
_GEN = np.random.Generator(_BITGEN)
_SMALL = np.empty((4, 2))
_BULK = np.empty((256_000, 2))
_X0 = np.random.Generator(np.random.Philox(key=(1, 1))).standard_normal((1000, 2))


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(400):
        state = _BITGEN.state
        state["buffer_pos"] = 4
        _BITGEN.state = state
        _GEN.standard_normal((4, 2), out=_SMALL)
    _GEN.standard_normal(out=_BULK)
    _BULK.reshape(-1, 64, 2).sum(axis=1)
    np.cumsum(_BULK, axis=0)
    x = _X0
    for _ in range(600):
        x = np.where(x > 0, x * 1.0000001, np.exp(x * 1e-9) * x) + 0.0
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor taking times measured alongside ``samples`` to reference-speed seconds."""
    return REFERENCE_S / statistics.median(samples)
