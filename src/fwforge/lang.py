"""Expression mini-language: parser to BracketExpr, canonical formatter.

Grammar (ASCII):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := RATIONAL | 'm^' INT | 'beta' | 'E' | 'O'
            | 'comm(' expr ',' expr ')' | 'acomm(' expr ',' expr ')'
            | 'pow(' expr ',' NAT ')' | 'epsfun(' NAME ')' | '(' expr ')'

As a superset, a term that starts with a RATIONAL may continue by plain
juxtaposition ("1/16 m^-3 beta O E O"), which is how the canonical
serializer writes terms; '*' is never required there.  Juxtaposition is
not available elsewhere, so "comm(O E)" is a missing-comma error rather
than a product.

Brackets ('(', comm, acomm, pow) nest at most MAX_NESTING levels deep;
deeper input is a syntax error, which also bounds the recursion of every
function that walks the parsed tree.
"""

from __future__ import annotations

import re
from fractions import Fraction

from fwforge.ncalg import (
    Acomm,
    AbstractExpr,
    BetaF,
    BracketExpr,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
)


class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the character position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[()+\-*,^])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"beta", "E", "O", "comm", "acomm", "pow", "epsfun", "m"}

MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_symbol(self, symbol: str, what: str) -> None:
        kind, value, offset = self.peek()
        if kind == "symbol" and value == symbol:
            self.advance()
            return
        raise ExprSyntaxError(f"expected '{symbol}' ({what})", offset)

    def at_symbol(self, *symbols: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "symbol" and value in symbols

    def enter(self, offset: int) -> None:
        """Open one bracket level at `offset`; the caller closes it with
        self.depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING} levels", offset)

    # -- grammar -------------------------------------------------------

    def parse(self) -> BracketExpr:
        node = self.parse_expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", offset)
        return node

    def parse_expr(self) -> BracketExpr:
        children = []
        negate = False
        if self.at_symbol("+", "-"):
            negate = self.advance()[1] == "-"
        children.append(self._signed(self.parse_term(), negate))
        while self.at_symbol("+", "-"):
            negate = self.advance()[1] == "-"
            children.append(self._signed(self.parse_term(), negate))
        if len(children) == 1:
            return children[0]
        return Sum(tuple(children))

    @staticmethod
    def _signed(node: BracketExpr, negate: bool) -> BracketExpr:
        return Prod((Rat(Fraction(-1)), node)) if negate else node

    def parse_term(self) -> BracketExpr:
        first_kind = self.peek()[0]
        factors = [self.parse_factor()]
        # Canonical terms are coefficient-led and space-separated; only
        # they may continue without '*'.  Everything else needs '*'.
        juxtaposable = first_kind == "number"
        while True:
            if self.at_symbol("*"):
                self.advance()
                factors.append(self.parse_factor())
            elif juxtaposable and self.peek()[0] in ("number", "name"):
                factors.append(self.parse_factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def parse_factor(self) -> BracketExpr:
        kind, value, offset = self.peek()
        if kind == "number":
            try:
                number = Fraction(value)
            except ZeroDivisionError:
                raise ExprSyntaxError("zero denominator", offset) from None
            self.advance()
            return Rat(number)
        if kind == "symbol" and value == "(":
            self.enter(offset)
            self.advance()
            node = self.parse_expr()
            self.expect_symbol(")", "closing parenthesis")
            self.depth -= 1
            return node
        if kind == "name":
            return self.parse_named()
        raise ExprSyntaxError(f"expected a factor, found {value!r}", offset)

    def parse_named(self) -> BracketExpr:
        kind, value, offset = self.advance()
        if value not in _KEYWORDS:
            raise ExprSyntaxError(f"unknown symbol {value!r}", offset)
        if value == "beta":
            return BetaF()
        if value in ("E", "O"):
            return Gen(value)
        if value == "m":
            self.expect_symbol("^", "power of m")
            return MPow(self.parse_int())
        if value in ("comm", "acomm"):
            self.enter(offset)
            self.expect_symbol("(", f"arguments of {value}")
            left = self.parse_expr()
            self.expect_symbol(",", "comma between arguments")
            right = self.parse_expr()
            self.expect_symbol(")", f"closing {value}")
            self.depth -= 1
            return Comm(left, right) if value == "comm" else Acomm(left, right)
        if value == "pow":
            self.enter(offset)
            self.expect_symbol("(", "arguments of pow")
            base = self.parse_expr()
            self.expect_symbol(",", "comma between arguments")
            exponent = self.parse_nat()
            self.expect_symbol(")", "closing pow")
            self.depth -= 1
            return PowN(base, exponent)
        # epsfun
        self.expect_symbol("(", "arguments of epsfun")
        kind, name, name_offset = self.peek()
        if kind != "name":
            raise ExprSyntaxError("expected an epsilon-function name", name_offset)
        from fwforge.fseries import REGISTRY

        if name not in REGISTRY:
            raise ExprSyntaxError(f"unknown symbol {name!r}", name_offset)
        self.advance()
        self.expect_symbol(")", "closing epsfun")
        return EpsFun(name)

    def parse_int(self) -> int:
        sign = 1
        if self.at_symbol("-"):
            self.advance()
            sign = -1
        kind, value, offset = self.peek()
        if kind != "number" or "/" in value:
            raise ExprSyntaxError("expected an integer", offset)
        self.advance()
        return sign * int(value)

    def parse_nat(self) -> int:
        kind, value, offset = self.peek()
        if kind != "number" or "/" in value:
            raise ExprSyntaxError("expected a non-negative integer", offset)
        self.advance()
        return int(value)


def parse_expr(text: str) -> BracketExpr:
    """Parse mini-language text into a structured expression tree."""
    return _Parser(text).parse()


def format_term(beta_exp: int, word: str, m_exp: int, coeff: Fraction) -> str:
    """Unsigned canonical body "<coeff> m^<k> [beta] <letters>"."""
    pieces = [str(abs(coeff))]
    if m_exp:
        pieces.append(f"m^{m_exp}")
    if beta_exp:
        pieces.append("beta")
    pieces.extend(word)
    return " ".join(pieces)


def term_strings(expr: AbstractExpr) -> list[str]:
    """Signed canonical term bodies of `expr`, in AbstractExpr order."""
    return [
        ("-" if coeff < 0 else "") + format_term(beta_exp, word, m_exp, coeff)
        for (beta_exp, word, m_exp), coeff in expr.terms()
    ]


def format_expr(expr: AbstractExpr) -> str:
    """Canonical serialization; parse(format(x)) expands back to x.

    Terms appear in AbstractExpr order, joined by " + " / " - "; the
    coefficient magnitude is always printed, sign lives in the joiner
    (or a leading '-').
    """
    terms = expr.terms()
    if not terms:
        return "0"
    out = []
    for position, ((beta_exp, word, m_exp), coeff) in enumerate(terms):
        body = format_term(beta_exp, word, m_exp, coeff)
        if position == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)
