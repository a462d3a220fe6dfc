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

DEFAULT_RING_CAP = 4096

#: which variables the CLI documents in --help
ENV_VARS = {
    "ZDCODES_RING_CAP": f"maximum ring order accepted by constructors (default {DEFAULT_RING_CAP})",
}


def decimal(text: str) -> int | None:
    """The int written by `text` in ASCII decimal digits alone (no sign,
    space, underscore or other digits), else None."""
    return int(text) if text.isascii() and text.isdecimal() else None


def _cap(raw, source: str) -> int:
    """A cap value as an int; anything but a non-negative integer (or its
    `decimal` text) is a ValueError that names `source`."""
    value = None
    if isinstance(raw, str):
        value = decimal(raw)
    elif isinstance(raw, int) and not isinstance(raw, bool):
        value = raw
    if value is None or value < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return value


def read(path: str | None = None) -> int:
    """The ring cap: the default, overridden by the `ring_cap` key of the
    JSON config file at `path`, overridden by ZDCODES_RING_CAP."""
    cap = DEFAULT_RING_CAP
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # malformed or nested too deeply
                raise ValueError(f"config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        if "ring_cap" in data:
            cap = _cap(data["ring_cap"], f"config file {path}: key 'ring_cap'")
    raw = os.environ.get("ZDCODES_RING_CAP")
    return cap if raw is None else _cap(raw, "ZDCODES_RING_CAP")


_override: int | None = None


def set_override(cap: int | None) -> None:
    """Install a process-local ring cap; None clears.  The CLI installs
    `read(--config)` once per call."""
    global _override
    _override = cap


def current() -> int:
    """The active ring cap: the process-local override when one is
    installed, otherwise `read()` at call time."""
    return read() if _override is None else _override
