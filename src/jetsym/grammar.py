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

``parse`` walks the text once into an unevaluated tree (no ``flatten`` or
``eval``), reads it (``algebra._read``, which reads every finite tree) and
puts the value in normal form once.  A call's arguments are normalized, a
kernel call is an unevaluated node that ``algebra._normal_kernel`` builds
once, on the argument it keeps, and the call is read where it is built,
so that a non-finite one raises there; a divisor whose normal form is 0
raises, 2^(1/2)*3^(1/2) - 6^(1/2) too.

The printer emits this same grammar, a sum's terms in the order of sympy's
``as_ordered_terms`` (``ordered_terms``), so ``parse(print(e))`` reproduces
``e`` for every normalized expression.  ``print_value`` prints a value
{monomial: c} as ``print_expr`` prints its normal form, with no tree built.
"""

from __future__ import annotations

from typing import NamedTuple

import sympy as sp
from sympy.core.exprtools import decompose_power
from sympy.core.function import AppliedUndef
from sympy.core.sorting import default_sort_key

from . import algebra
from .algebra import KERNEL_CLASSES
from .errors import DivisionByZero, ExprSyntaxError, UnknownSymbol
from .multiindex import MultiIndex
from .workspace import SymbolKind

KERNELS = {k.__name__: k for k in KERNEL_CLASSES}


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
        negative = self.peek().kind == "-"
        if self.peek().kind in ("+", "-"):
            self.advance()
        terms = [self.term(negative)]
        while self.peek().kind in ("+", "-"):
            terms.append(self.term(self.advance().kind == "-"))
        return terms[0] if len(terms) == 1 else sp.Add._from_args(terms, True)

    def term(self, negative):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "/":
                num = algebra._read(rhs)[0]     # 0 as it stands, or once sympy builds it
                if not any(num.values()) or any(map(algebra._evaluates, num)) and (
                        algebra.normalize(rhs) == 0):
                    raise DivisionByZero(f"literal division by zero at offset {op.pos}")
                rhs = sp.Pow(rhs, -1, evaluate=False)
            e = sp.Mul._from_args((e, rhs), True)
        return sp.Mul._from_args((sp.S.NegativeOne, e), True) if negative else e

    def factor(self):
        e = self.atom()
        if self.peek().kind == "^":
            self.advance()
            e = sp.Pow(e, self.exponent(), evaluate=False)
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
        sign = -1 if self.peek().kind == "-" else 1
        if sign < 0:
            self.advance()
        return sign * int(self.expect("NUMBER").text)

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
                node = self.call(tok)
                algebra._read(node)     # a kernel not finite at its argument, log(0), raises here
                return node
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
        args = [algebra.normalize(self.expr())]
        while self.peek().kind == ",":
            self.advance()
            args.append(algebra.normalize(self.expr()))
        self.expect(")")
        name = head.text
        if name in KERNELS:
            if len(args) != 1:
                raise ExprSyntaxError(f"kernel {name} takes one argument", head.pos)
            return _kernel_call(KERNELS[name], args[0])
        if name in ("D", "Int"):
            return self._formal(head, args)
        if name in self.ws.functions:
            template = self.ws.functions[name]
            if tuple(args) != template.args:
                want = ",".join(str(a) for a in template.args)
                raise ExprSyntaxError(
                    f"unknown function {name} must be applied as {name}({want})",
                    head.pos)
            return template
        raise UnknownSymbol(name, head.pos)

    def _formal(self, head, args):
        """D(f, x, ...), f an unknown-function call or a D of one, as its
        canonical Derivative; Int(f, x, ...) as a formal antiderivative."""
        if len(args) < 2:
            raise ExprSyntaxError(f"{head.text}(f, var, ...) needs a target and variables",
                                  head.pos)
        if head.text == "D" and not isinstance(args[0], (AppliedUndef, sp.Derivative)):
            raise ExprSyntaxError("D applies to unknown-function calls only", head.pos)
        for v in args[1:]:
            if self.ws.kind(v) is not SymbolKind.INDEPENDENT:
                raise ExprSyntaxError(f"{head.text} variable {v} is not independent", head.pos)
        if head.text == "D":
            return sp.Derivative(args[0], *args[1:]).canonical
        return sp.Integral(args[0], *args[1:])


@algebra._memo
def _kernel_call(cls, a):
    """cls(a) as ``algebra._normal_kernel`` builds it from the parser's
    unevaluated node, memoized here, since no ``_read`` memo sees that node."""
    return algebra._normal_kernel(cls(a, evaluate=False), True)[0]


def parse(text, ws):
    """Parse expression text against a workspace, normalized: the text's
    unevaluated tree is read (``algebra._read``) and its value put in
    normal form once."""
    return algebra._normal_form(None, algebra._read(_Parser(text, ws).run()))


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


@algebra._memo
def _sort_key(e):
    """``default_sort_key(e)``, as ``Expr.sort_key`` computes it, but with the
    terms of each sum in e ordered by ``ordered_terms``."""
    if not isinstance(e, sp.Expr) or e.is_Atom:
        return default_sort_key(e)
    coeff, expr = e.as_coeff_Mul()
    exp = sp.S.One
    if expr.is_Pow:
        expr, exp = expr.as_base_exp()
        if expr is sp.S.Exp1:
            expr, exp = sp.Function("exp")(exp), sp.S.One
    if expr.is_Atom:
        args = (expr.sort_key(),) if expr.is_Dummy else (str(expr),)
    else:
        args = tuple(map(_sort_key, ordered_terms(expr) if expr.is_Add else
                         sorted(expr.args, key=_sort_key) if expr.is_Mul else expr.args))
    return expr.class_key(), (len(args), args), _sort_key(exp), coeff


@algebra._memo
def _factor(f):
    """(value, None, 0) of a number factor of a term, (1, base, exponent) of
    any other, as ``Expr.as_terms`` reads them."""
    if f.is_number:
        try:
            return complex(f), None, 0
        except (TypeError, ValueError):
            pass
    return 1, *decompose_power(f)


@algebra._memo
def ordered_terms(e):
    """``e.as_ordered_terms()``, as a tuple, for commutative e: sympy's key,
    with each factor of a term valued (``complex`` of a number, which runs
    ``evalf``) or split (``decompose_power``) once, and each base's
    ``_sort_key`` computed once."""
    terms = sp.Add.make_args(e)
    if len(terms) == 2:             # sympy's special case: c - k*x, c, k > 0, stays as it is
        c, t = sorted(terms, key=lambda t: not isinstance(t, (sp.Number, sp.NumberSymbol)))
        if isinstance(c, (sp.Number, sp.NumberSymbol)) and c.is_positive and t.is_Mul \
                and t.as_coeff_Mul()[0].is_negative and not t.as_coeff_Mul()[1].is_Mul:
            return c, t
    data = []
    for t in terms:
        value, powers = 1, {}
        for v, base, k in map(_factor, sp.Mul.make_args(t)):
            if base is None:
                value *= v
            else:
                powers[base] = k
        data.append((t, value, powers))
    gens = sorted({g for *_, powers in data for g in powers}, key=_sort_key)
    return tuple(t for t, *_ in sorted(data, key=lambda d: (
        tuple(-d[2].get(g, 0) for g in gens), ((bool(d[1].imag), d[1].imag), d[1].real))))


@algebra._memo
def _monomial(m):
    """(True for a negative exponent, key, numerator texts, denominator
    texts) of a monomial {atom: k}: the key holds (0, ``_sort_key`` of the
    base, -exponent) of each factor of its tree as ``_factor`` splits it,
    sorted, then (1,).  None for a number or an opaque atom."""
    if not all(isinstance(g, algebra._READ_ATOMS) and not g.is_number for g, _ in m):
        return None
    factors = [algebra._power_tree(g, k) for g, k in m]
    key = sorted((0, _sort_key(base), -e) for _, base, e in map(_factor, factors))
    return any(k < 0 for _, k in m), (*key, (1,)), *_split(sorted(factors, key=_sort_key))


def value_terms(value):
    """The terms (monomial, c) of a value {monomial: c}, c in QQ and not 0,
    in the order of ``ordered_terms`` on its normal form, sympy's c - k*x
    included: on positive exponents the ``_monomial`` keys order terms as
    sympy's key, where no number decides.  None for a value printed from
    its tree: one with a number or an opaque atom (a sum atom), or a sum
    with a negative exponent, whose normal form is N*S/S."""
    info = {m: _monomial(m) for m in value}
    if None in info.values() or len(value) > 1 and any(i[0] for i in info.values()):
        return None
    terms = sorted(value.items(), key=lambda t: info[t[0]][1])
    if len(terms) == 2 and not terms[1][0] and terms[1][1] > 0 > terms[0][1] and (
            len(terms[0][0]) == 1):
        terms.reverse()
    return terms


def _print(e, need):
    text, level = _render(e)
    return f"({text})" if level < need else text


def _render(e):
    if e is sp.S.Exp1:
        return "exp(1)", _ATOM
    if e.is_Integer:
        return str(e), _ADD if e < 0 else _ATOM
    if e.is_Rational:
        return f"{e.p}/{e.q}", _ADD if e.p < 0 else _MUL
    if e.is_Symbol:
        return e.name, _ATOM
    if isinstance(e, sp.Function):
        # kernels, unknown functions, and a best effort for other function
        # nodes (e.g. from integration)
        args = ",".join(_print(a, _ADD) for a in e.args)
        return f"{type(e).__name__}({args})", _ATOM
    if isinstance(e, sp.Derivative):
        e = e.canonical
        return f"D({','.join(_print(a, _ADD) for a in (e.expr, *e.variables))})", _ATOM
    if isinstance(e, sp.Integral):
        return f"Int({','.join(_print(a, _ADD) for a in (e.function, *e.variables))})", _ATOM
    if e.is_Add:
        first, *rest = ordered_terms(e)
        return _print(first, _ADD) + "".join(
            f" - {_print(-t, _MUL)}" if t.could_extract_minus_sign() else f" + {_print(t, _MUL)}"
            for t in rest), _ADD
    if e.is_Mul or e.is_Pow and e.exp.is_Rational and e.exp < 0 and e.base is not sp.S.Exp1:
        return _render_mul(e)
    if e.is_Pow:
        return _render_pow(e)
    raise ValueError(f"cannot print expression node {sp.srepr(e)}")


def _render_mul(e):
    """A product, or a negative power as 1 over its inverse."""
    coeff, _ = e.as_coeff_Mul()
    if coeff.is_Rational and coeff < 0:
        inner, _ = _render(-e)
        return f"-{inner}", _ADD
    return _quotient(*_split(sorted(sp.Mul.make_args(e), key=_sort_key))), _MUL


def _split(factors):
    """The numerator and the denominator texts of a product's factors: p and
    q of a Rational p/q, and the inverse of a negative power."""
    num, den = [], []
    for f in factors:
        if f.is_Rational and not f.is_Integer:
            num += [str(f.p)] * (f.p != 1)
            den.append(str(f.q))
        elif f.is_Pow and f.exp.is_Rational and f.exp < 0 and f.base is not sp.S.Exp1:
            den.append(_print(sp.Pow(f.base, -f.exp), _POW))
        else:
            num.append(_print(f, _POW))
    return num, den


def _quotient(num, den):
    """The text num/den of factor texts, den in parentheses for two or more."""
    text, under = "*".join(num) or "1", "*".join(den)
    return f"{text}/({under})" if len(den) > 1 else f"{text}/{under}" if den else text


def _render_pow(e):
    base, ex = e.base, e.exp
    if base is sp.S.Exp1:
        return f"exp({_print(ex, _ADD)})", _ATOM
    if ex.is_Integer:
        return f"{_print(base, _ATOM)}^{int(ex)}", _POW
    if ex.is_Rational:
        return f"{_print(base, _ATOM)}^({ex.p}/{ex.q})", _POW
    raise ValueError(f"cannot print symbolic exponent in {e}")


def print_expr(e):
    """Render an expression in the shared grammar, a sum's terms in the order
    of ``ordered_terms``."""
    return _render(sp.sympify(e))[0]


def print_value(value):
    """``print_expr`` of the normal form of a value {monomial: c}, rendered
    from ``value_terms`` and ``_monomial`` texts where they order it."""
    if (terms := value_terms(value)) is None:
        return print_expr(algebra.normal_forms([value])[0])
    out = []
    for m, c in terms:
        (*_, num, den), r = _monomial(m), abs(c)
        text = _quotient([str(r.numerator)] * (r.numerator != 1) + num,
                         [str(r.denominator)] * (r.denominator != 1) + den)
        out.append(("-" if c < 0 else "") + text if not out else
                   (" - " if c < 0 else " + ") + text)
    return "".join(out)
