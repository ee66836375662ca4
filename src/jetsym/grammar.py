"""The shared expression grammar: tokenizer, parser, and printer.

Every module exchanges expressions in this one concrete syntax::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' exponent)?
    exponent := ['-'] integer | '(' ['-'] integer '/' integer ')'
    atom   := number | ident | jet | call | '(' expr ')'
    jet    := ident '_{' ident (',' ident)* '}'
    call   := ident '(' expr (',' expr)* ')'

Jet subscripts are independent-variable names, order-insensitive:
``u_{x1,x1,x2}`` is d^3 u / dx1^2 dx2.  Calls cover the kernels
exp/log/sin/cos/sinh/cosh, registered unknown functions such as
``a(x1,x2)``, and two reserved heads: ``D(a(x1,x2),x1,...)`` for formal
derivatives of unknown functions and ``Int(f,x1)`` for formal
antiderivatives (these make every normalized expression printable and
re-parseable; the bare grammar above has no derivative syntax).

The printer emits this same grammar with a deterministic term order, so
``parse(print(e))`` reproduces ``e`` for every normalized expression.
"""

from __future__ import annotations

from typing import NamedTuple

import sympy as sp
from sympy.core.function import AppliedUndef

from .errors import DivisionByZero, ExprSyntaxError, UnknownSymbol
from .multiindex import MultiIndex
from .workspace import SymbolKind

KERNELS = {
    "exp": sp.exp,
    "log": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
}
KERNEL_CLASSES = (sp.exp, sp.log, sp.sin, sp.cos, sp.sinh, sp.cosh)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum()
                             or (text[j] == "_" and text[j + 1:j + 2] != "{")):
                j += 1
            out.append(Token("IDENT", text[i:j], i))
            i = j
            continue
        if c == "_" and text[i + 1:i + 2] == "{":
            out.append(Token("JETOPEN", "_{", i))
            i += 2
            continue
        if c in "+-*/^(),}":
            out.append(Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(Token("EOF", "", n))
    return out


class _Parser:
    def __init__(self, text, ws):
        self.tokens = tokenize(text)
        self.ws = ws
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return self.advance()

    def run(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self):
        terms = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        terms.append(sign * self.term())
        while self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
            terms.append(sign * self.term())
        return sp.Add(*terms)

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "/":
                if rhs == 0:
                    raise DivisionByZero(f"literal division by zero at offset {op.pos}")
                e = e * sp.Pow(rhs, -1)
            else:
                e = e * rhs
        return e

    def factor(self):
        e = self.atom()
        if self.peek().kind == "^":
            self.advance()
            e = sp.Pow(e, self.exponent())
        return e

    def exponent(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            num = self._signed_integer()
            self.expect("/")
            den = int(self.expect("NUMBER").text)
            if den == 0:
                raise DivisionByZero(f"zero denominator in exponent at offset {tok.pos}")
            self.expect(")")
            return sp.Rational(num, den)
        return sp.Integer(self._signed_integer())

    def _signed_integer(self):
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("NUMBER")
        return sign * int(tok.text)

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return sp.Integer(int(tok.text))
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "JETOPEN":
                return self.jet(tok)
            if self.peek().kind == "(":
                return self.call(tok)
            try:
                return self.ws.resolve(tok.text)
            except UnknownSymbol:
                raise UnknownSymbol(tok.text, tok.pos) from None
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def jet(self, base):
        ws = self.ws
        info = ws._names.get(base.text)
        if info is None or info[0] is not SymbolKind.DEPENDENT:
            raise ExprSyntaxError(
                f"jet base {base.text!r} is not a dependent variable", base.pos)
        alpha = info[1]
        self.expect("JETOPEN")
        slots = [self._subscript()]
        while self.peek().kind == ",":
            self.advance()
            slots.append(self._subscript())
        self.expect("}")
        K = MultiIndex.from_slots(ws.p, slots)
        return ws.jet(alpha, K)

    def _subscript(self):
        tok = self.expect("IDENT")
        info = self.ws._names.get(tok.text)
        if info is None:
            raise UnknownSymbol(tok.text, tok.pos)
        if info[0] is not SymbolKind.INDEPENDENT:
            raise ExprSyntaxError(
                f"jet subscript {tok.text!r} is not an independent variable", tok.pos)
        return info[1]

    def call(self, head):
        self.expect("(")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        name = head.text
        if name in KERNELS:
            if len(args) != 1:
                raise ExprSyntaxError(f"kernel {name} takes one argument", head.pos)
            return KERNELS[name](args[0])
        if name == "D":
            return self._formal_derivative(head, args)
        if name == "Int":
            return self._formal_integral(head, args)
        if name in self.ws.functions:
            template = self.ws.functions[name]
            if tuple(args) != template.args:
                want = ",".join(str(a) for a in template.args)
                raise ExprSyntaxError(
                    f"unknown function {name} must be applied as {name}({want})",
                    head.pos)
            return template
        raise UnknownSymbol(name, head.pos)

    def _formal_derivative(self, head, args):
        if len(args) < 2:
            raise ExprSyntaxError("D(f(...), var, ...) needs a target and variables",
                                  head.pos)
        target = args[0]
        if not isinstance(target, (AppliedUndef, sp.Derivative)):
            raise ExprSyntaxError(
                "D applies to unknown-function calls only", head.pos)
        for v in args[1:]:
            if self.ws.kind(v) is not SymbolKind.INDEPENDENT:
                raise ExprSyntaxError(
                    f"derivative variable {v} is not independent", head.pos)
        return sp.Derivative(target, *args[1:]).canonical

    def _formal_integral(self, head, args):
        if len(args) < 2:
            raise ExprSyntaxError("Int(f, var, ...) needs an integrand and variables",
                                  head.pos)
        for v in args[1:]:
            if self.ws.kind(v) is not SymbolKind.INDEPENDENT:
                raise ExprSyntaxError(
                    f"integration variable {v} is not independent", head.pos)
        return sp.Integral(args[0], *args[1:])


def parse(text, ws):
    """Parse expression text against a workspace, normalized."""
    from .algebra import normalize
    return normalize(_Parser(text, ws).run())


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def _wrap(text, level, need):
    return f"({text})" if level < need else text


def _print(e, need):
    text, level = _render(e)
    return _wrap(text, level, need)


def _render(e):
    if e is sp.S.Exp1:
        return "exp(1)", _ATOM
    if e.is_Integer:
        if e < 0:
            return str(e), _ADD
        return str(e), _ATOM
    if e.is_Rational:
        return f"{e.p}/{e.q}", _ADD if e.p < 0 else _MUL
    if e.is_Symbol:
        return e.name, _ATOM
    if isinstance(e, sp.exp):
        return f"exp({_print(e.args[0], _ADD)})", _ATOM
    if isinstance(e, KERNEL_CLASSES):
        return f"{type(e).__name__}({_print(e.args[0], _ADD)})", _ATOM
    if isinstance(e, AppliedUndef):
        args = ",".join(_print(a, _ADD) for a in e.args)
        return f"{type(e).__name__}({args})", _ATOM
    if isinstance(e, sp.Derivative):
        e = e.canonical
        parts = [_print(e.expr, _ADD)]
        for v, k in e.variable_count:
            parts.extend([_print(v, _ADD)] * int(k))
        return f"D({','.join(parts)})", _ATOM
    if isinstance(e, sp.Integral):
        parts = [_print(e.function, _ADD)]
        for limit in e.limits:
            parts.append(_print(limit[0], _ADD))
        return f"Int({','.join(parts)})", _ATOM
    if e.is_Add:
        terms = e.as_ordered_terms()
        out = _print(terms[0], _ADD)
        for t in terms[1:]:
            if t.could_extract_minus_sign():
                out += f" - {_print(-t, _MUL)}"
            else:
                out += f" + {_print(t, _MUL)}"
        return out, _ADD
    if e.is_Mul:
        return _render_mul(e)
    if e.is_Pow:
        return _render_pow(e)
    if isinstance(e, sp.Function):
        # best effort for nodes outside the grammar (e.g. from integration)
        args = ",".join(_print(a, _ADD) for a in e.args)
        return f"{type(e).__name__}({args})", _ATOM
    raise ValueError(f"cannot print expression node {sp.srepr(e)}")


def _render_mul(e):
    coeff, _ = e.as_coeff_Mul()
    if coeff.is_Rational and coeff < 0:
        inner, _ = _render(-e)
        return f"-{inner}", _ADD
    num, den = [], []
    for f in e.as_ordered_factors():
        if f.is_Rational and not f.is_Integer:
            if f.p != 1:
                num.append(sp.Integer(f.p))
            den.append(sp.Integer(f.q))
        elif f.is_Pow and f.exp.is_Rational and f.exp < 0 and not isinstance(f, sp.exp) \
                and f.base is not sp.S.Exp1:
            den.append(sp.Pow(f.base, -f.exp))
        else:
            num.append(f)
    if not num:
        num_text = "1"
    else:
        num_text = "*".join(_print(f, _POW) for f in num)
    if not den:
        return num_text, _MUL
    if len(den) == 1:
        return f"{num_text}/{_print(den[0], _POW)}", _MUL
    den_text = "*".join(_print(f, _POW) for f in den)
    return f"{num_text}/({den_text})", _MUL


def _render_pow(e):
    base, ex = e.base, e.exp
    if base is sp.S.Exp1:
        return f"exp({_print(ex, _ADD)})", _ATOM
    if ex.is_Integer:
        if ex < 0:
            inner = _print(base if ex == -1 else sp.Pow(base, -ex), _POW)
            return f"1/{inner}", _MUL
        return f"{_print(base, _ATOM)}^{int(ex)}", _POW
    if ex.is_Rational:
        if ex < 0:
            return f"1/{_print(sp.Pow(base, -ex), _POW)}", _MUL
        return f"{_print(base, _ATOM)}^({ex.p}/{ex.q})", _POW
    raise ValueError(f"cannot print symbolic exponent in {e}")


def print_expr(e):
    """Render an expression in the shared grammar, deterministically ordered."""
    e = sp.sympify(e)
    text, _ = _render(e)
    return text
