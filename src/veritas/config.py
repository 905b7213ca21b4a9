"""Engine configuration from defaults, a key=value file, and environment.

Precedence, lowest to highest: built-in defaults, config file entries,
VERITAS_* environment variables, explicit overrides, each set through
assign.  Reliability scores use dotted keys (``reliability.alice=0.8``).
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
_RELIABILITY_ENV = ENV_PREFIX + "RELIABILITY_"


def assign(config: EngineConfig, key: str, raw: str) -> bool:
    """Set key from its text, as every source does; False, setting
    nothing, when no key has that name.  A reliability key must name
    its source."""
    if key.startswith("reliability.") and key != "reliability.":
        config.reliability[key[len("reliability."):]] = _coerce(float, key, raw)
    elif key in KEY_TYPES:
        setattr(config, key, _coerce(KEY_TYPES[key], key, raw))
    else:
        return False
    return True


def _coerce(kind: type, key: str, raw: str):
    """raw as a value of kind; a ValueError that names key when it is not one."""
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    if kind is str:
        return raw.strip()
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} expects a number, got {raw.strip()!r}") from None


def load_config(**overrides) -> EngineConfig:
    """The defaults with the given fields set (None keeps one), validated."""
    config = EngineConfig()
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in {f.name for f in fields(EngineConfig)}:
            raise ValueError(f"unknown config key: {key}")
        setattr(config, key, value)
    config.validate()
    return config


def apply_file(config: EngineConfig, path: Path) -> None:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not assign(config, key, raw):
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")


def apply_env(config: EngineConfig, env: Mapping[str, str]) -> None:
    """Assign what the VERITAS_ names in env set; no other value is read.

    VERITAS_RELIABILITY_<SOURCE> sets reliability.<source> and
    VERITAS_<KEY> a field, both lowercased; other VERITAS_ names are
    ignored.
    """
    for name in env:
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if name.startswith(_RELIABILITY_ENV):
            assign(config, "reliability." + key[len("reliability_"):], env[name])
        elif key in KEY_TYPES:
            assign(config, key, env[name])
