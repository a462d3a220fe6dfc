"""Ring-expression parser: text to ring.

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

The whole text is parsed before any ring is built, so a syntax error wins
over a ring error in an earlier atom.  Each atom parses to the constructor
call that builds it, (span, constructor, args); a constructor's failure is
a ResolveError naming the atom's span.  "F4" is a field and becomes
GF(2,2); "Z4" never is - the two families are kept apart.  Catalog names
are matched case-insensitively against the slugs in `tables.CATALOG_FILES`.
A field or quotient atom above the ring cap is a ParseError, raised before
factoring q or storing a coefficient per power.
"""

from __future__ import annotations

from . import config, tables
from .rings import FiniteRing, RingError, factorize, make_gf, make_product, make_quotient, make_zn

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

    def expr(self) -> list:
        atoms = [self.atom()]
        while True:
            self.skip_ws()
            if self.peek() in ("x", "×", "*"):
                self.i += 1
                atoms.append(self.atom())
            else:
                return atoms

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
                return (start, self.i), make_quotient, (n, coeffs)
            self.i = save
            return (start, self.i), make_zn, (n,)
        if c in ("F", "f"):
            self.i += 1
            q = self.integer()
            return (start, self.i), make_gf, self.prime_power(q, start)
        if self.text[self.i : self.i + 2].upper() == "GF":
            self.i += 2
            self.skip_ws()
            self.take("(")
            self.skip_ws()
            q = self.integer()
            self.skip_ws()
            self.take(")")
            return (start, self.i), make_gf, self.prime_power(q, start)
        if c == "@":
            self.i += 1
            name = self.name_run()
            try:
                tables._slug_lookup(name)
            except tables.TableRingError as exc:
                raise ParseError(str(exc), start, self.text) from None
            return (start, self.i), tables.catalog_ring, (name,)
        if self.text.startswith("table:", self.i):
            self.i += len("table:")
            path = self.path_run()
            return (start, self.i), _table_file_ring, (path,)
        self.error("expected a ring atom (Zn, Fq, GF(q), Zn[x]/(f), @name or table:path)")

    def prime_power(self, q: int, start: int) -> tuple[int, int]:
        cap = config.current()
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
        cap = config.current()
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


def _table_file_ring(path: str) -> FiniteRing:
    return tables.make_table_ring(tables.load_spec_file(path))


def ring_from_text(text: str) -> FiniteRing:
    p = _Parser(text)
    atoms = p.expr()
    p.skip_ws()
    if p.i != len(text):
        p.error("unexpected trailing input")
    rings = [_build(text, span, make, args) for span, make, args in atoms]
    if len(rings) == 1:
        return rings[0]
    return _build(text, (atoms[0][0][0], atoms[-1][0][1]), make_product, (rings,))


def _build(text: str, span: Span, make, args) -> FiniteRing:
    try:
        return make(*args)
    except (RingError, OSError, ValueError) as exc:
        raise ResolveError(str(exc), span, text) from exc
