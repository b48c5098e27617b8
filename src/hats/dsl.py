"""Composition expression language.

Grammar (whitespace-insensitive):

    expr  := "clique" "[" nat {"," nat} "]"
           | "k5minus" | "game26666" | "trefoil" | "planar14"
           | "windmill" "(" nat "," nat ")"
           | "product" "(" expr "@" name "," expr "@" name ")"
           | "cone" "(" expr ";" petal {"," petal} ")"
           | "lower" "(" expr ";" name "=" nat {"," name "=" nat} ")"
    petal := expr "@" name "/" name

A name is a bare identifier or a double-quoted string; quoting is needed
for composed vertex names, which contain slashes ("L/v1").  Clique
vertices are auto-named v0..v(n-1); the almost-complete brick uses the
names A2, A3, A14, B14, C14.  Parse errors carry line and column;
constructor contract violations are reported with the source span of the
offending sub-expression.  An expression may sit inside at most
MAX_NESTING others; deeper input is a ParseError at the offending head.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from . import constructors
from .core import ContractError, HatsError, StructureError


class ParseError(HatsError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ElaborationError(HatsError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Span:
    line: int
    col: int


@dataclass(frozen=True)
class CliqueLit:
    hatnesses: tuple[int, ...]
    span: Span = field(default=Span(0, 0), compare=False)


@dataclass(frozen=True)
class NamedGame:
    name: str  # k5minus | game26666 | trefoil | planar14
    span: Span = field(default=Span(0, 0), compare=False)


@dataclass(frozen=True)
class WindmillLit:
    k: int
    n: int
    span: Span = field(default=Span(0, 0), compare=False)


@dataclass(frozen=True)
class ProductExpr:
    left: "Expr"
    left_vertex: str
    right: "Expr"
    right_vertex: str
    span: Span = field(default=Span(0, 0), compare=False)


@dataclass(frozen=True)
class ConeExpr:
    base: "Expr"
    petals: tuple[tuple["Expr", str, str], ...]
    span: Span = field(default=Span(0, 0), compare=False)


@dataclass(frozen=True)
class LowerExpr:
    inner: "Expr"
    overrides: tuple[tuple[str, int], ...]
    span: Span = field(default=Span(0, 0), compare=False)


Expr = Union[CliqueLit, NamedGame, WindmillLit, ProductExpr, ConeExpr, LowerExpr]

NAMED = ("k5minus", "game26666", "trefoil", "planar14")

# Most expressions one expression may sit inside.  The parser and the
# elaborator recurse once per level, so this keeps both far from the
# interpreter's recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # NAT, NAME, QUOTED, or the punct itself
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<nat>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<quoted>"[^"\n]*")
      | (?P<punct>[][(),;@/=])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nat":
            tokens.append(Token("NAT", value, line, col))
        elif kind == "name":
            tokens.append(Token("NAME", value, line, col))
        elif kind == "quoted":
            tokens.append(Token("QUOTED", value[1:-1], line, col))
        elif kind == "punct":
            tokens.append(Token(value, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError(f"unexpected end of input, expected {expected}",
                             last.line, last.col + len(last.value))
        raise ParseError(f"expected {expected}, found {tok.value!r}", tok.line, tok.col)

    def _take(self, kind: str, expected: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            self._fail(expected or kind)
        self.pos += 1
        return tok

    def _nat(self) -> int:
        return int(self._take("NAT", "a number").value)

    def _name(self) -> str:
        tok = self._peek()
        if tok is None or tok.kind not in ("NAME", "QUOTED"):
            self._fail("a vertex name")
        self.pos += 1
        return tok.value

    def expr(self, depth: int = 0) -> Expr:
        """The expression at the cursor, inside ``depth`` others."""
        tok = self._peek()
        if tok is None or tok.kind != "NAME":
            self._fail("an expression (clique, k5minus, windmill, game26666, "
                       "trefoil, planar14, product, cone, lower)")
        span = Span(tok.line, tok.col)
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             span.line, span.col)
        head = tok.value
        self.pos += 1
        if head == "clique":
            self._take("[", "'['")
            if self._peek() is not None and self._peek().kind == "]":
                self._fail("a hatness value (clique lists cannot be empty)")
            hats = [self._nat()]
            while self._peek() is not None and self._peek().kind == ",":
                self.pos += 1
                hats.append(self._nat())
            self._take("]", "']'")
            return CliqueLit(tuple(hats), span)
        if head in NAMED:
            return NamedGame(head, span)
        if head == "windmill":
            self._take("(", "'('")
            k = self._nat()
            self._take(",", "','")
            n = self._nat()
            self._take(")", "')'")
            return WindmillLit(k, n, span)
        if head == "product":
            self._take("(", "'('")
            left = self.expr(depth + 1)
            self._take("@", "'@'")
            lv = self._name()
            self._take(",", "','")
            right = self.expr(depth + 1)
            self._take("@", "'@'")
            rv = self._name()
            self._take(")", "')'")
            return ProductExpr(left, lv, right, rv, span)
        if head == "cone":
            self._take("(", "'('")
            base = self.expr(depth + 1)
            self._take(";", "';'")
            petals = [self._petal(depth + 1)]
            while self._peek() is not None and self._peek().kind == ",":
                self.pos += 1
                petals.append(self._petal(depth + 1))
            self._take(")", "')'")
            return ConeExpr(base, tuple(petals), span)
        if head == "lower":
            self._take("(", "'('")
            inner = self.expr(depth + 1)
            self._take(";", "';'")
            overrides = [self._override()]
            while self._peek() is not None and self._peek().kind == ",":
                self.pos += 1
                overrides.append(self._override())
            self._take(")", "')'")
            return LowerExpr(inner, tuple(overrides), span)
        raise ParseError(f"unknown expression head {head!r}", span.line, span.col)

    def _petal(self, depth: int) -> tuple[Expr, str, str]:
        e = self.expr(depth)
        self._take("@", "'@'")
        o = self._name()
        self._take("/", "'/'")
        a = self._name()
        return (e, o, a)

    def _override(self) -> tuple[str, int]:
        name = self._name()
        self._take("=", "'='")
        return (name, self._nat())


def parse(text: str) -> Expr:
    parser = _Parser(tokenize(text))
    result = parser.expr()
    tok = parser._peek()
    if tok is not None:
        raise ParseError(f"trailing input starting at {tok.value!r}", tok.line, tok.col)
    return result


# ---------------------------------------------------------------------------
# Canonical printer (round-trips through parse)


def _quote(name: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return f'"{name}"'


def format_expr(expr: Expr) -> str:
    if isinstance(expr, CliqueLit):
        return "clique[" + ", ".join(str(a) for a in expr.hatnesses) + "]"
    if isinstance(expr, NamedGame):
        return expr.name
    if isinstance(expr, WindmillLit):
        return f"windmill({expr.k}, {expr.n})"
    if isinstance(expr, ProductExpr):
        return (f"product({format_expr(expr.left)}@{_quote(expr.left_vertex)}, "
                f"{format_expr(expr.right)}@{_quote(expr.right_vertex)})")
    if isinstance(expr, ConeExpr):
        petals = ", ".join(
            f"{format_expr(e)}@{_quote(o)}/{_quote(a)}" for e, o, a in expr.petals
        )
        return f"cone({format_expr(expr.base)}; {petals})"
    if isinstance(expr, LowerExpr):
        overrides = ", ".join(f"{_quote(n)}={v}" for n, v in expr.overrides)
        return f"lower({format_expr(expr.inner)}; {overrides})"
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Elaboration


def elaborate(expr: Expr) -> constructors.ComposedGame:
    """Build the composed game an expression denotes.

    Deterministic: the same expression always yields byte-identical
    serialized games.  Contract violations raised by the constructors are
    rethrown with the source span of the sub-expression that caused them.
    """
    try:
        if isinstance(expr, CliqueLit):
            return constructors.clique_game(expr.hatnesses)
        if isinstance(expr, NamedGame):
            builder = {
                "k5minus": constructors.k5minus,
                "game26666": constructors.game_26666,
                "trefoil": constructors.trefoil,
                "planar14": constructors.planar14,
            }[expr.name]
            return builder()
        if isinstance(expr, WindmillLit):
            return constructors.windmill(expr.k, expr.n)
        if isinstance(expr, ProductExpr):
            left = elaborate(expr.left)
            right = elaborate(expr.right)
            return constructors.product(left, right, expr.left_vertex, expr.right_vertex)
        if isinstance(expr, ConeExpr):
            base = elaborate(expr.base)
            petals = [
                constructors.PetalSpec(elaborate(e), o, a) for e, o, a in expr.petals
            ]
            return constructors.cone(base, petals)
        if isinstance(expr, LowerExpr):
            inner = elaborate(expr.inner)
            return constructors.lower_to(inner, dict(expr.overrides))
    except ElaborationError:
        raise
    except (ContractError, StructureError) as exc:
        raise ElaborationError(str(exc), expr.span.line, expr.span.col) from exc
    raise TypeError(f"not an expression: {expr!r}")
