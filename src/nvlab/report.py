"""Deterministic CSV/JSON emission with embedded run metadata.

CSV files start with a '# key = value' metadata block followed by the body;
bodies are byte-identical for identical (config, seed) regardless of thread
count. JSON mirrors carry the same rows plus a metadata object. Floats are
written with shortest round-trip repr so files are stable.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash
from .paths import BIT_GENERATOR

LOCK_NAME = "config.lock.json"


class OutputRefusedError(OSError):
    """Output directory already holds results for this command under another config."""


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@lru_cache(maxsize=1)
def git_describe() -> str:
    """Revision of the checkout holding this package, whatever the working directory.

    It is "unknown" unless this file is tracked in the repository git finds
    from the package directory: git walks up to any enclosing repository, and
    an untracked copy of the package inside one is not that repository's code.
    """
    here = Path(__file__).resolve()

    def git(*args):
        return subprocess.run(["git", *args], cwd=here.parent, capture_output=True, timeout=10)

    try:
        if git("ls-files", "--error-unmatch", here.name).returncode == 0:
            res = git("describe", "--always", "--dirty")
            if res.returncode == 0:
                return res.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_metadata(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "seed": cfg.seed,
        "paths": cfg.paths_per_level if cfg.command == "mlmc" else cfg.paths,
        "config_hash": config_hash(cfg),
        "git": git_describe(),
        "numpy": np.__version__,
        "rng": BIT_GENERATOR,
        "config": dataclasses.asdict(cfg),
    }


def check_output_dir(out: str, cfg: RunConfig) -> dict:
    """The lock's entries in ``out`` (empty if none), read only; refuse an ``out``
    that is not a directory, and a rerun with a different config unless forced.

    The lock maps command name -> config hash, so different commands can share
    a directory while mismatched reruns of the same command are caught.
    """
    if Path(out).exists() and not Path(out).is_dir():
        raise NotADirectoryError(f"{out}: exists and is not a directory")
    lock = Path(out) / LOCK_NAME
    recorded = json.loads(lock.read_text()) if lock.exists() else {}
    old, new = recorded.get(cfg.command), config_hash(cfg)
    if old is not None and old != new and not cfg.force:
        raise OutputRefusedError(
            f"{out}: existing {cfg.command!r} results were produced with config "
            f"{old}, current config is {new}; rerun with --force to overwrite"
        )
    return recorded


def guard_output_dir(out: str, cfg: RunConfig) -> Path:
    """Create the output dir and record this run in its lock, after
    :func:`check_output_dir` has passed."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    recorded = check_output_dir(out, cfg)
    recorded[cfg.command] = config_hash(cfg)
    (path / LOCK_NAME).write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n")
    return path


def write_csv(path: Path, columns: list[str], rows: list[list], metadata: dict) -> None:
    lines = [f"# {key} = {fmt(val)}" for key, val in metadata.items() if key != "config"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def csv_body(path: Path) -> str:
    """The CSV body with the metadata block stripped (used by determinism checks)."""
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))
