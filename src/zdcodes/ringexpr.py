"""Ring-expression parser: text to construction plan to ring.

Grammar (whitespace insignificant, products associate left and keep the
flat factor list in order):

    Expr := Atom (("x" | "×" | "*") Atom)*
    Atom := "Z" int
          | "F" int                     -- prime power, normalised to GF
          | "GF(" int ")"
          | "Z" int "[x]/(" poly ")"
          | "@" name                    -- packaged catalog fixture
          | "table:" path               -- table-ring spec file
    poly := term ("+" term)*
    term := int | int "*"? "x" ("^" int)? | "x" ("^" int)?

"F4" is a field and becomes GF(2,2); "Z4" never is - the two families are
kept apart.  Catalog names are matched case-insensitively against the slugs
in `tables.CATALOG_FILES`.  A field or quotient atom above the ring cap is
a ParseError, raised before factoring q or storing a coefficient per power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import config, tables
from .rings import (
    FiniteRing,
    RingError,
    factorize,
    make_gf,
    make_product,
    make_quotient,
    make_zn,
    poly_name,
)

Span = tuple[int, int]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos} in {text!r})")


class ResolveError(ValueError):
    def __init__(self, message: str, span: Span, text: str | None = None):
        self.span = span
        self.text = text
        where = f" (expression span {span[0]}..{span[1]}" + (
            f": {text[span[0]:span[1]]!r})" if text else ")"
        )
        super().__init__(message + where)


@dataclass(frozen=True)
class ZnExpr:
    n: int
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class GFExpr:
    p: int
    k: int
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class QuotientExpr:
    m: int
    coeffs: tuple[int, ...]  # constant term first, leading coefficient last
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class TableRefExpr:
    ref: str
    is_path: bool
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ProductExpr:
    children: tuple
    span: Span = field(compare=False, default=(0, 0))

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("a product node needs at least two children")


RingExpr = ZnExpr | GFExpr | QuotientExpr | TableRefExpr | ProductExpr

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, message: str):
        raise ParseError(message, self.i, self.text)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, literal: str):
        if not self.text.startswith(literal, self.i):
            self.error(f"expected {literal!r}")
        self.i += len(literal)

    def integer(self) -> int:
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            self.error("expected an integer")
        return int(self.text[start : self.i])

    def expr(self):
        atoms = [self.atom()]
        while True:
            self.skip_ws()
            c = self.peek()
            if c in ("x", "×", "*"):
                self.i += 1
                atoms.append(self.atom())
            else:
                break
        if len(atoms) == 1:
            return atoms[0]
        return ProductExpr(tuple(atoms), (atoms[0].span[0], atoms[-1].span[1]))

    def atom(self):
        self.skip_ws()
        start = self.i
        c = self.peek()
        if c in ("Z", "z"):
            self.i += 1
            n = self.integer()
            save = self.i
            self.skip_ws()
            if self.peek() == "[":
                coeffs = self.quotient_tail(n, start)
                return QuotientExpr(n, coeffs, (start, self.i))
            self.i = save
            return ZnExpr(n, (start, self.i))
        if c in ("F", "f"):
            self.i += 1
            q = self.integer()
            return GFExpr(*self.prime_power(q, start), span=(start, self.i))
        if self.text[self.i : self.i + 2].upper() == "GF":
            self.i += 2
            self.skip_ws()
            self.take("(")
            self.skip_ws()
            q = self.integer()
            self.skip_ws()
            self.take(")")
            return GFExpr(*self.prime_power(q, start), span=(start, self.i))
        if c == "@":
            self.i += 1
            name = self.name_run()
            try:
                tables._slug_lookup(name)
            except tables.TableRingError as exc:
                raise ParseError(str(exc), start, self.text) from None
            return TableRefExpr(name, False, (start, self.i))
        if self.text.startswith("table:", self.i):
            self.i += len("table:")
            path = self.path_run()
            return TableRefExpr(path, True, (start, self.i))
        self.error("expected a ring atom (Zn, Fq, GF(q), Zn[x]/(f), @name or table:path)")

    def prime_power(self, q: int, start: int) -> tuple[int, int]:
        cap = config.current().ring_cap
        if q > cap:  # refused before the trial division, which grows with q
            raise ParseError(f"ring order {q} exceeds the cap {cap}", start, self.text)
        fac = factorize(q)
        if q < 2 or len(fac) != 1:
            raise ParseError(f"{q} is not a prime power, so it names no field", start, self.text)
        return fac[0]

    def name_run(self) -> str:
        start = self.i
        while self.i < len(self.text) and self.text[self.i] in _NAME_CHARS:
            self.i += 1
        if self.i == start:
            self.error("expected a catalog name after '@'")
        return self.text[start : self.i]

    def path_run(self) -> str:
        start = self.i
        while self.i < len(self.text) and not self.text[self.i].isspace():
            self.i += 1
        if self.i == start:
            self.error("expected a file path after 'table:'")
        return self.text[start : self.i]

    def quotient_tail(self, m: int, start: int) -> tuple[int, ...]:
        self.take("[")
        self.skip_ws()
        if self.peek() in ("x", "X"):
            self.i += 1
        else:
            self.error("expected the indeterminate 'x'")
        self.skip_ws()
        self.take("]")
        self.skip_ws()
        self.take("/")
        self.skip_ws()
        self.take("(")
        coeffs = self.poly(m, start)
        self.skip_ws()
        self.take(")")
        return coeffs

    def poly(self, m: int, start: int) -> tuple[int, ...]:
        """Coefficients of the polynomial, constant term first, up to the
        highest nonzero one; Z_m[x]/(f) has m^deg(f) elements, so a degree
        past the cap is refused before the tuple is built."""
        acc: dict[int, int] = {}
        while True:
            e, c = self.term()
            acc[e] = acc.get(e, 0) + c
            self.skip_ws()
            if self.peek() == "+":
                self.i += 1
            else:
                break
        top = max((e for e, c in acc.items() if c), default=0)
        if m < 2:
            raise ParseError("coefficient modulus must be at least 2", start, self.text)
        cap = config.current().ring_cap
        if top > cap.bit_length() or m**top > cap:
            raise ParseError(f"ring order {m}^{top} exceeds the cap {cap}", start, self.text)
        return tuple(acc.get(e, 0) for e in range(top + 1))

    def term(self) -> tuple[int, int]:
        self.skip_ws()
        c = self.peek()
        if c.isdigit():
            coeff = self.integer()
            save = self.i
            self.skip_ws()
            if self.peek() == "*":
                self.i += 1
                self.skip_ws()
            if self.peek() in ("x", "X"):
                self.i += 1
                return self.exponent(), coeff
            self.i = save
            return 0, coeff
        if c in ("x", "X"):
            self.i += 1
            return self.exponent(), 1
        self.error("expected a polynomial term")

    def exponent(self) -> int:
        save = self.i
        self.skip_ws()
        if self.peek() == "^":
            self.i += 1
            self.skip_ws()
            return self.integer()
        self.i = save
        return 1


def parse_ring(text: str):
    p = _Parser(text)
    node = p.expr()
    p.skip_ws()
    if p.i != len(text):
        p.error("unexpected trailing input")
    return node


def render(expr) -> str:
    """Canonical text for an expression; reparsing yields an equal tree."""
    if isinstance(expr, ZnExpr):
        return f"Z{expr.n}"
    if isinstance(expr, GFExpr):
        return f"F{expr.p ** expr.k}"
    if isinstance(expr, QuotientExpr):
        return f"Z{expr.m}[x]/({poly_name(expr.coeffs)})"
    if isinstance(expr, TableRefExpr):
        return ("table:" if expr.is_path else "@") + expr.ref
    if isinstance(expr, ProductExpr):
        return " x ".join(render(c) for c in expr.children)
    raise TypeError(f"not a ring expression: {expr!r}")


def resolve(expr, source: str | None = None) -> FiniteRing:
    try:
        if isinstance(expr, ZnExpr):
            return make_zn(expr.n)
        if isinstance(expr, GFExpr):
            return make_gf(expr.p, expr.k)
        if isinstance(expr, QuotientExpr):
            return make_quotient(expr.m, expr.coeffs)
        if isinstance(expr, TableRefExpr):
            if expr.is_path:
                return tables.make_table_ring(tables.load_spec_file(expr.ref))
            return tables.catalog_ring(expr.ref)
        if isinstance(expr, ProductExpr):
            return make_product([resolve(c, source) for c in expr.children])
    except ResolveError:
        raise
    except (RingError, OSError, ValueError) as exc:
        raise ResolveError(str(exc), expr.span, source) from exc
    raise TypeError(f"not a ring expression: {expr!r}")


def ring_from_text(text: str) -> FiniteRing:
    return resolve(parse_ring(text), source=text)
