"""Set-up time of nvlab in a fresh interpreter.

Set-up is importing ``nvlab`` and ``nvlab.cli``, building the catalog and
making one tiny warm-up study call. Run as a script, this prints the seconds
it took and the median of speed probes timed right after it in the same
process (see speed.py); ``run.py`` runs it several times.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP = ["convergence", "--problem", "heisenberg", "--nladder", "2,4,8"]
WARMUP += ["--paths", "100", "--refine", "2", "--threads", "1"]

SPEED_PROBES = 3


def setup() -> float:
    """Import and warm up nvlab from ``SRC``; returns the seconds taken."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nvlab
    import nvlab.cli

    if Path(nvlab.__file__).resolve().parent != (SRC / "nvlab").resolve():
        raise ImportError(f"nvlab was imported from {nvlab.__file__}, not from {SRC}")
    nvlab.catalog()
    with contextlib.redirect_stdout(io.StringIO()):
        code = nvlab.cli.main(WARMUP)
    if code != 0:
        raise RuntimeError(f"warm-up call exited with code {code}")
    return time.perf_counter() - start


def probe_speed() -> float:
    """Median of SPEED_PROBES speed probes (imported here: it imports numpy)."""
    import speed

    return statistics.median(speed.probe() for _ in range(SPEED_PROBES))


if __name__ == "__main__":
    seconds = setup()
    print(json.dumps([seconds, probe_speed()]))
