"""Run configuration: defaults, key=value config files, and config hashing.

Precedence: built-in defaults < config file < command-line flags. The fully
resolved configuration is echoed into every output file together with its
hash, so artifacts are self-describing and mismatched reruns are detectable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


@dataclass
class RunConfig:
    command: str = ""
    problem: str = "heisenberg"
    scheme: str = "nv"
    seed: int = 42
    threads: int = 0  # 0 = auto
    out: str | None = None
    format: str = "both"  # csv | json | both
    force: bool = False
    paths: int = 10000
    n_ladder: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)
    p: int = 1
    refine: int = 64
    N: int = 256
    nfine: int = 4096
    j: int = 2
    m: int = 1
    t: float = 1.0
    substeps: int = 64
    payoff: str = "coord2"
    levels: int = 6
    paths_per_level: int = 10000
    n0: int = 1

    def resolved(self) -> dict:
        out = dataclasses.asdict(self)
        out["n_ladder"] = list(self.n_ladder)
        return out


# config-file key (and command-line flag dest) -> attribute: every field but
# the command and the flag-only --force; the step ladder is spelled nladder
FILE_KEYS = {
    "nladder" if f.name == "n_ladder" else f.name: f.name
    for f in dataclasses.fields(RunConfig)
    if f.name not in ("command", "force")
}


class ConfigFileError(ValueError):
    pass


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key=value file; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in FILE_KEYS:
                raise ConfigFileError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def parse_ladder(text: str) -> tuple[int, ...]:
    try:
        ladder = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigFileError(f"bad step ladder {text!r}") from exc
    if not ladder or any(n < 1 for n in ladder):
        raise ConfigFileError(f"bad step ladder {text!r}")
    return ladder


def apply_file_values(cfg: RunConfig, values: dict[str, str]) -> None:
    for key, text in values.items():
        attr = FILE_KEYS[key]
        current = getattr(cfg, attr)
        if attr == "n_ladder":
            setattr(cfg, attr, parse_ladder(text))
        elif isinstance(current, int):
            setattr(cfg, attr, int(text))
        elif isinstance(current, float):
            setattr(cfg, attr, float(text))
        else:
            setattr(cfg, attr, text)


# execution knobs that cannot change results (outputs are byte-identical for
# any thread count) and therefore do not participate in the config identity
_NON_SEMANTIC = ("threads", "out", "force")


def config_hash(cfg: RunConfig) -> str:
    resolved = {k: v for k, v in cfg.resolved().items() if k not in _NON_SEMANTIC}
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
