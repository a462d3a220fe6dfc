"""Runtime limits.

The ring cap can be overridden by an environment variable or (for the
CLI) a JSON config file; other variables and keys are ignored, and a value
that is not a non-negative integer is a ValueError naming its variable or
key.  The default is generous: no ring in the shipped catalogs has more
than a few hundred elements.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "ZDCODES_"

#: which variables the CLI documents in --help
ENV_VARS = {
    "ZDCODES_RING_CAP": "maximum ring order accepted by constructors (default 4096)",
}


def _cap(raw, source: str) -> int:
    """A cap value as an int; anything but a non-negative integer (or its
    decimal text) is a ValueError that names `source`."""
    value = None
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        try:
            value = int(raw)
        except ValueError:
            pass
    if value is None or value < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return value


@dataclass(frozen=True)
class Settings:
    ring_cap: int = 4096

    def merged_with_env(self) -> "Settings":
        out = self
        for f in fields(self):
            var = ENV_PREFIX + f.name.upper()
            raw = os.environ.get(var)
            if raw is not None:
                out = replace(out, **{f.name: _cap(raw, var)})
        return out

    def merged_with_file(self, path: str) -> "Settings":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        out = self
        for f in fields(self):
            if f.name in data:
                value = _cap(data[f.name], f"config file {path}: key {f.name!r}")
                out = replace(out, **{f.name: value})
        return out


_override: Settings | None = None


def set_override(settings: Settings | None) -> None:
    """Install process-local settings; None clears.  The CLI installs the
    defaults merged with its --config file and the environment, once per
    call."""
    global _override
    _override = settings


def current() -> Settings:
    """Active settings: the process-local override when one is installed,
    otherwise defaults with environment overrides applied at call time."""
    if _override is not None:
        return _override
    return Settings().merged_with_env()
