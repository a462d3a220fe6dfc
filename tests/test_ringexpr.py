import json
import random
import re
import string

import pytest

from zdcodes import tables
from zdcodes.ringexpr import ParseError, ResolveError, ring_from_text
from zdcodes.rings import RingError, make_gf, make_product, make_quotient, make_zn


def built(text: str) -> tuple[str, int]:
    ring = ring_from_text(text)
    return ring.name, ring.order


def test_parse_examples():
    assert built("Z2 x Z8") == ("Z2 x Z8", 16)
    assert built("Z3[x]/(x^2)") == ("Z3[x]/(x^2)", 9)
    assert built("Z4") == ("Z4", 4)
    assert built("z2") == ("Z2", 2)
    assert built("F4") == ("GF(2^2)", 4)
    assert built("GF(9)") == ("GF(3^2)", 9)
    assert built("@Z4X-X2") == ("Z4[X]/(X^2)", 16)


def test_product_separators_and_flattening():
    for text in ("Z2 x Z3 x Z5", "Z2×Z3×Z5", "Z2 * Z3 * Z5", "Z2xZ3xZ5"):
        ring = ring_from_text(text)
        assert [f.name for f in ring.factors] == ["Z2", "Z3", "Z5"]
        assert (ring.name, ring.order) == ("Z2 x Z3 x Z5", 30)


def test_poly_forms():
    assert built("Z4[x]/(x^2+2x)") == ("Z4[x]/(x^2+2x)", 16)
    assert built("Z4[x]/(x^2 + 2*x)") == ("Z4[x]/(x^2+2x)", 16)
    assert built("Z8[x]/(x^3+x+7)") == ("Z8[x]/(x^3+x+7)", 512)
    assert built("Z2[ x ] / ( x^2 + x + 1 )") == ("Z2[x]/(x^2+x+1)", 4)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="prime power"):
        ring_from_text("F6")
    with pytest.raises(ParseError, match="known names"):
        ring_from_text("@nope")
    with pytest.raises(ParseError, match="position"):
        ring_from_text("Zx")
    with pytest.raises(ParseError):
        ring_from_text("Z4 x")
    with pytest.raises(ParseError):
        ring_from_text("Z4 Z5")
    with pytest.raises(ParseError):
        ring_from_text("")
    # the whole text is parsed before any ring is built
    with pytest.raises(ParseError, match="position 8"):
        ring_from_text("Z9999 x @nope")


def test_resolve_examples():
    assert ring_from_text("Z12").order == 12
    assert ring_from_text("@Z8X-2X-X2p4").order == 16
    assert ring_from_text("Z4 x Z2 x Z2").order == 16
    assert ring_from_text("F4").is_field
    assert ring_from_text("GF(2)").name == "Z2"


def test_resolve_error_carries_span():
    with pytest.raises(ResolveError, match=re.escape("(expression span 5..10: 'Z9999')")) as exc:
        ring_from_text("Z2 x Z9999")
    assert exc.value.span == (5, 10)
    with pytest.raises(ResolveError, match=re.escape("span 0..10: 'Z64 x Z128')")):
        ring_from_text("Z64 x Z128")  # the product is over the cap, not a factor


def test_resolve_table_path(tmp_path):
    spec = tables.load_catalog_spec("Z4X-X2")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(spec.to_obj()))
    ring = ring_from_text(f"table:{path}")
    assert ring.order == 16


def _random_atom(rng: random.Random):
    """(text, constructor call) for one atom, in a random spelling."""
    kind = rng.choice(["zn", "gf", "quotient", "table"])
    if kind == "zn":
        n = rng.randint(0, 40)
        return f"{rng.choice('Zz')}{n}", lambda: make_zn(n)
    if kind == "gf":
        p, k = rng.choice([2, 3, 5, 7, 11]), rng.randint(1, 3)
        head = rng.choice(["F{}", "f{}", "GF({})", "gf( {} )"])
        return head.format(p**k), lambda: make_gf(p, k)
    if kind == "quotient":
        m = rng.randint(2, 9)
        acc: dict[int, int] = {}
        terms = []
        for _ in range(rng.randint(1, 4)):
            e, c = rng.randint(0, 3), rng.choice([1, 1, rng.randint(0, m + 1)])
            acc[e] = acc.get(e, 0) + c
            if e == 0:
                terms.append(str(c))
            else:
                coeff = "" if c == 1 and rng.random() < 0.5 else f"{c}" + rng.choice(["", "*", " * "])
                terms.append(coeff + ("x" if e == 1 and rng.random() < 0.5 else f"x^{e}"))
        top = max((e for e, c in acc.items() if c), default=0)
        coeffs = tuple(acc.get(e, 0) for e in range(top + 1))
        poly = rng.choice(["+", " + "]).join(terms)
        return f"Z{m}[x]/({poly})", lambda: make_quotient(m, coeffs)
    name = rng.choice(tables.catalog_names())
    return f"@{name.lower() if rng.random() < 0.3 else name}", lambda: tables.catalog_ring(name)


def _direct(calls):
    """The constructor calls' ring, or the message of their first error."""
    try:
        rings = [make() for make in calls]
        return rings[0] if len(rings) == 1 else make_product(rings)
    except (RingError, ValueError) as exc:
        return str(exc)


def test_text_matches_constructor_calls_fuzz():
    rng = random.Random(20250808)
    outcomes = set()
    for _ in range(400):
        atoms = [_random_atom(rng) for _ in range(rng.choice([1, 1, 2, 3, 4]))]
        text = atoms[0][0]
        for a, _ in atoms[1:]:
            text += rng.choice([" x ", " × ", " * ", "×", "*"]) + a
        expected = _direct([make for _, make in atoms])
        if isinstance(expected, str):
            with pytest.raises(ResolveError) as exc:
                ring_from_text(text)
            assert str(exc.value).startswith(expected + " (expression span"), text
            outcomes.add("error")
        else:
            assert built(text) == (expected.name, expected.order), text
            outcomes.add("ring")
    assert outcomes == {"ring", "error"}


def test_parse_is_total_on_garbage():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + " []/()^+*x×@:-_"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            ring_from_text(text)
        except (ParseError, ResolveError):
            pass  # structured failure is the only acceptable failure


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
        ring_from_text(text)


def test_parse_keeps_rings_at_the_cap(monkeypatch):
    assert built("F4096") == ("GF(2^12)", 4096)
    assert built("Z64[x]/(x^2)") == ("Z64[x]/(x^2)", 4096)
    assert built("Z2[x]/(x^12+x+1)") == ("Z2[x]/(x^12+x+1)", 4096)
    assert built("Z2[x]/(0x^100000000+x)") == ("Z2[x]/(x)", 2)
    monkeypatch.setenv("ZDCODES_RING_CAP", "8")
    assert built("F8") == ("GF(2^3)", 8)
    with pytest.raises(ParseError, match="cap 8"):
        ring_from_text("F9")
    with pytest.raises(ParseError, match="cap 8"):
        ring_from_text("Z3[x]/(x^2)")
