"""Engine configuration from defaults, a key=value file, and environment.

Precedence, lowest to highest: built-in defaults, config file entries,
VERITAS_* environment variables, explicit overrides.  Source reliability
scores use dotted keys in the file (``reliability.alice=0.8``).
"""

from __future__ import annotations

import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping


class ThetaRangeWarning(UserWarning):
    """The assertion gate was configured below its recommended band."""


@dataclass
class EngineConfig:
    theta: float = 0.95
    tau_risk: float = 0.5
    decay: float = 0.98
    delta: float = 0.1
    theta_meta: float = 0.6
    fixed_clock: bool = False
    ledger_path: str = "veritas.vlog"
    nodes_path: str = ""
    domain_path: str = ""
    goal: str = ""
    reliability: dict[str, float] = field(default_factory=dict)

    def resolved_nodes_path(self) -> str:
        if self.nodes_path:
            return self.nodes_path
        stem = self.ledger_path
        if stem.endswith(".vlog"):
            stem = stem[: -len(".vlog")]
        return stem + ".nodes"

    def validate(self) -> None:
        if not 0.5 <= self.theta < 1.0:
            raise ValueError(f"theta must be in [0.5, 1), got {self.theta}")
        if self.theta < 0.95:
            warnings.warn(
                f"theta={self.theta} sits below the recommended [0.95, 1) band",
                ThetaRangeWarning,
            )
        for name in ("tau_risk", "decay", "delta", "theta_meta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for source, score in self.reliability.items():
            if not 0.0 <= score <= 1.0:
                raise ValueError(
                    f"reliability.{source} must be in [0, 1], got {score}"
                )


# Each key set by its own name, and the type of its default value.
# reliability, whose default is a factory, is set by dotted keys instead.
KEY_TYPES = {
    f.name: type(f.default) for f in fields(EngineConfig) if f.default is not MISSING
}

ENV_PREFIX = "VERITAS_"


def _coerce(key: str, raw: str):
    kind = KEY_TYPES[key]
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    if kind is str:
        return raw.strip()
    return coerce_number(key, raw)


def coerce_number(key: str, raw: str) -> float:
    """raw as a float; a ValueError that names key when it is not one."""
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} expects a number, got {raw.strip()!r}") from None


def load_config(
    path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    **overrides,
) -> EngineConfig:
    config = EngineConfig()
    if path is not None:
        _apply_file(config, Path(path))
    if env is not None:
        _apply_env(config, env)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in {f.name for f in fields(EngineConfig)}:
            raise ValueError(f"unknown config key: {key}")
        setattr(config, key, value)
    config.validate()
    return config


def _apply_file(config: EngineConfig, path: Path) -> None:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key.startswith("reliability."):
            source = key[len("reliability."):]
            config.reliability[source] = coerce_number(key, raw)
        elif key in KEY_TYPES:
            setattr(config, key, _coerce(key, raw))
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")


def _apply_env(config: EngineConfig, env: Mapping[str, str]) -> None:
    reliability_prefix = ENV_PREFIX + "RELIABILITY_"
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        if name.startswith(reliability_prefix):
            source = name[len(reliability_prefix):].lower()
            key = f"reliability.{source}"
            config.reliability[source] = coerce_number(key, raw)
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key in KEY_TYPES:
            setattr(config, key, _coerce(key, raw))
