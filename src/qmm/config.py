"""Run configuration: fixed seeds and sample counts for reproducible output.

Plain key=value config files; environment variables with the QMM_ prefix
override file values, command-line flags override both.  Unknown keys,
malformed lines and out-of-range values raise ValueError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .counting import DEFAULT_STATE_CAP

ENV_PREFIX = "QMM_"
OUTPUT_FORMATS = ("text", "json", "csv")
#: the integer fields and the least value each may take
_MINIMUM = {"seed": 0, "mc_samples": 1, "state_cap": 1}


@dataclass(frozen=True)
class RunConfig:
    """Every field is range-checked here, whichever source set it."""

    seed: int = 42
    mc_samples: int = 100_000
    output_format: str = "text"  # one of OUTPUT_FORMATS
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        for key, low in _MINIMUM.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {', '.join(OUTPUT_FORMATS)}, "
                             f"got {self.output_format!r}")

    def override(self, **kwargs) -> "RunConfig":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean)


def _coerce(key: str, value: str):
    if key not in RunConfig.__dataclass_fields__:
        raise ValueError(f"unknown config key {key!r}")
    if key not in _MINIMUM:
        return value
    try:
        return int(value)  # exact at any size
    except ValueError:
        pass
    try:
        number = float(value)  # so 1e5 reads as 100000; a fraction is an error
        if number.is_integer():
            return int(number)
    except ValueError:
        pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def load_config(path: str | None = None, environ=None) -> RunConfig:
    """Config file (key=value lines, # comments), then QMM_* env overrides."""
    values: dict = {}
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, _, raw = line.partition("=")
                key = key.strip()
                values[key] = _coerce(key, raw.strip())
    env = os.environ if environ is None else environ
    for key in RunConfig.__dataclass_fields__:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _coerce(key, raw)
    return RunConfig(**values)
