import json
import random
import re
import string

import pytest

from zdcodes import ringexpr
from zdcodes.ringexpr import (
    GFExpr,
    ParseError,
    ProductExpr,
    QuotientExpr,
    ResolveError,
    TableRefExpr,
    ZnExpr,
    parse_ring,
    render,
    resolve,
    ring_from_text,
)


def test_parse_examples():
    assert parse_ring("Z2 x Z8") == ProductExpr((ZnExpr(2), ZnExpr(8)))
    assert parse_ring("Z3[x]/(x^2)") == QuotientExpr(3, (0, 0, 1))
    assert parse_ring("Z4") == ZnExpr(4)
    assert parse_ring("F4") == GFExpr(2, 2)
    assert parse_ring("GF(9)") == GFExpr(3, 2)
    assert parse_ring("@Z4X-X2") == TableRefExpr("Z4X-X2", False)
    assert parse_ring("table:some/file.json") == TableRefExpr("some/file.json", True)


def test_product_separators_and_flattening():
    for text in ("Z2 x Z3 x Z5", "Z2×Z3×Z5", "Z2 * Z3 * Z5", "Z2xZ3xZ5"):
        node = parse_ring(text)
        assert isinstance(node, ProductExpr)
        assert node.children == (ZnExpr(2), ZnExpr(3), ZnExpr(5))


def test_poly_forms():
    assert parse_ring("Z4[x]/(x^2+2x)") == QuotientExpr(4, (0, 2, 1))
    assert parse_ring("Z4[x]/(x^2 + 2*x)") == QuotientExpr(4, (0, 2, 1))
    assert parse_ring("Z8[x]/(x^3+x+7)") == QuotientExpr(8, (7, 1, 0, 1))
    assert parse_ring("Z2[ x ] / ( x^2 + x + 1 )") == QuotientExpr(2, (1, 1, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="prime power"):
        parse_ring("F6")
    with pytest.raises(ParseError, match="known names"):
        parse_ring("@nope")
    with pytest.raises(ParseError, match="position"):
        parse_ring("Zx")
    with pytest.raises(ParseError):
        parse_ring("Z4 x")
    with pytest.raises(ParseError):
        parse_ring("Z4 Z5")
    with pytest.raises(ParseError):
        parse_ring("")


def test_resolve_examples():
    assert ring_from_text("Z12").order == 12
    assert ring_from_text("@Z8X-2X-X2p4").order == 16
    assert ring_from_text("Z4 x Z2 x Z2").order == 16
    assert ring_from_text("F4").is_field
    assert ring_from_text("GF(2)").name == "Z2"


def test_resolve_error_carries_span():
    expr = parse_ring("Z2 x Z9999")
    with pytest.raises(ResolveError, match="span"):
        resolve(expr, source="Z2 x Z9999")


def test_resolve_table_path(tmp_path):
    from zdcodes import tables

    spec = tables.load_catalog_spec("Z4X-X2")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(spec.to_obj()))
    ring = ring_from_text(f"table:{path}")
    assert ring.order == 16


def _random_expr(rng: random.Random, depth: int):
    kinds = ["zn", "gf", "quotient", "table"]
    if depth > 0:
        kinds += ["product"] * 2
    kind = rng.choice(kinds)
    if kind == "zn":
        return ZnExpr(rng.randint(2, 512))
    if kind == "gf":
        p = rng.choice([2, 3, 5, 7, 11])
        k = rng.randint(1, 3)
        return GFExpr(p, k)
    if kind == "quotient":
        m = rng.randint(2, 9)
        d = rng.randint(1, 3)
        coeffs = tuple(rng.randrange(m) for _ in range(d)) + (1,)
        return QuotientExpr(m, coeffs)
    if kind == "table":
        from zdcodes import tables

        return TableRefExpr(rng.choice(list(tables.catalog_names())), False)
    children = tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 4)))
    flat = []
    for c in children:  # canonical trees are flat, like the parser's output
        if isinstance(c, ProductExpr):
            flat.extend(c.children)
        else:
            flat.append(c)
    return ProductExpr(tuple(flat))


def test_render_parse_round_trip_fuzz():
    rng = random.Random(20250808)
    for _ in range(1000):
        expr = _random_expr(rng, 2)
        text = render(expr)
        again = parse_ring(text)
        assert again == expr, text


def test_parse_is_total_on_garbage():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + " []/()^+*x×@:-_"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse_ring(text)
        except ParseError:
            pass  # structured failure is the only acceptable failure


def test_render_canonical_forms():
    assert render(parse_ring("z2 X4?"[:2])) == "Z2"
    assert render(GFExpr(2, 2)) == "F4"
    assert render(QuotientExpr(3, (0, 0, 1))) == "Z3[x]/(x^2)"
    assert render(ProductExpr((ZnExpr(2), GFExpr(3, 1)))) == "Z2 x F3"


@pytest.mark.parametrize(
    "text,order",
    [("F1000000000000000000000000000057", "1000000000000000000000000000057"),
     ("GF(1000000000000000000000000000057)", "1000000000000000000000000000057"),
     ("Z2[x]/(x^100000000)", "2^100000000"),
     ("Z65[x]/(x^2)", "65^2"),
     ("F8192", "8192")],
)
def test_parse_refuses_rings_above_the_cap(text, order):
    # refused before factoring q or building a coefficient per exponent
    with pytest.raises(ParseError, match=re.escape(f"ring order {order} exceeds the cap 4096")):
        parse_ring(text)


def test_parse_keeps_rings_at_the_cap(monkeypatch):
    assert parse_ring("F4096") == GFExpr(2, 12)
    assert parse_ring("Z64[x]/(x^2)") == QuotientExpr(64, (0, 0, 1))
    assert parse_ring("Z2[x]/(x^12+x+1)") == QuotientExpr(2, (1, 1) + (0,) * 10 + (1,))
    assert parse_ring("Z2[x]/(0x^100000000+x)") == QuotientExpr(2, (0, 1))
    for text in ("F4096", "Z64[x]/(x^2)", "Z2[x]/(x^12+x+1)"):
        assert render(parse_ring(text)) == text
    monkeypatch.setenv("ZDCODES_RING_CAP", "8")
    assert parse_ring("F8") == GFExpr(2, 3)
    with pytest.raises(ParseError, match="cap 8"):
        parse_ring("F9")
    with pytest.raises(ParseError, match="cap 8"):
        parse_ring("Z3[x]/(x^2)")
