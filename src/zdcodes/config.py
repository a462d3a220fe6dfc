"""Runtime limits.

The ring cap can be overridden by an environment variable; other variables
are ignored, and a value that is not a non-negative integer is a
ValueError naming the variable.  The default is generous: no ring in the
shipped catalogs has more than a few hundred elements.
"""

from __future__ import annotations

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


def current() -> int:
    """The active ring cap: ZDCODES_RING_CAP, read at call time, else the
    default.  A value that is not `decimal` text is a ValueError."""
    raw = os.environ.get("ZDCODES_RING_CAP")
    if raw is None:
        return DEFAULT_RING_CAP
    value = decimal(raw)
    if value is None:
        raise ValueError(f"ZDCODES_RING_CAP must be a non-negative integer, got {raw!r}")
    return value
