"""Runtime limits.

Every cap can be overridden by an environment variable or (for the CLI) a
JSON config file; other variables and keys are ignored.  Defaults are
generous: no ring in the shipped catalogs has more than a few hundred
elements.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

ENV_PREFIX = "ZDCODES_"

#: which variables the CLI documents in --help
ENV_VARS = {
    "ZDCODES_RING_CAP": "maximum ring order accepted by constructors (default 4096)",
    "ZDCODES_TABLE_CACHE_CAP": "largest ring order whose op tables are cached (default 256)",
    "ZDCODES_SOLVER_BOUND": "vertex count above which the exact search warns (default 64)",
    "ZDCODES_ENUM_BOUND": "vertex limit for full code enumeration (default 24)",
}


@dataclass(frozen=True)
class Settings:
    ring_cap: int = 4096
    table_cache_cap: int = 256
    solver_bound: int = 64
    enum_bound: int = 24

    def merged_with_env(self) -> "Settings":
        out = self
        for field, key in (
            ("ring_cap", "RING_CAP"),
            ("table_cache_cap", "TABLE_CACHE_CAP"),
            ("solver_bound", "SOLVER_BOUND"),
            ("enum_bound", "ENUM_BOUND"),
        ):
            raw = os.environ.get(ENV_PREFIX + key)
            if raw is not None:
                out = replace(out, **{field: int(raw)})
        return out

    def merged_with_file(self, path: str) -> "Settings":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        out = self
        for field in ("ring_cap", "table_cache_cap", "solver_bound", "enum_bound"):
            if field in data:
                out = replace(out, **{field: int(data[field])})
        return out


_override: Settings | None = None


def set_override(settings: Settings | None) -> None:
    """Install process-local settings (the CLI's --config); None clears."""
    global _override
    _override = settings


def current() -> Settings:
    """Active settings: the process-local override when one is installed,
    otherwise defaults with environment overrides applied at call time."""
    if _override is not None:
        return _override
    return Settings().merged_with_env()
