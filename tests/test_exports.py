"""Byte-stable exports of product-ring graphs and decisions.

The files under data/exports/ hold the `zdg-export --format dot`,
`zdg-export --format json` and `tpc-decide --json` outputs recorded before
product rings were computed from their factors and vertex labels became
lazy; every later output must match them byte for byte.
"""

from pathlib import Path

import pytest

from zdcodes.cli import main

EXPORTS = Path(__file__).parent / "data" / "exports"

RINGS = {
    "Z2 x Z8": "z2_x_z8",
    "Z3[x]/(x^2) x Z5": "z3x-x2_x_z5",
    "@Z2XY-RAD2 x F4": "z2xy-rad2_x_f4",
    "Z8 x F9 x Z7": "z8_x_f9_x_z7",
}

COMMANDS = {
    "dot": ("zdg-export", "--format", "dot"),
    "json": ("zdg-export", "--format", "json"),
    "decide.json": ("tpc-decide", "--json"),
}


@pytest.mark.parametrize("suffix", sorted(COMMANDS))
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_export_is_byte_identical(capsys, ring, suffix):
    command, *options = COMMANDS[suffix]
    assert main([command, ring, *options]) == 0
    expected = (EXPORTS / f"{RINGS[ring]}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
