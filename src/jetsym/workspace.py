"""Workspace: the symbol chart a computation lives on.

A workspace owns the p independent and q dependent coordinate symbols, the
jet symbols u^a_K they induce (created lazily, interned per (a, K)), plus
registered constant parameters and opaque unknown functions of the
independent variables.  Every expression an operation touches must only
reference symbols registered here.
"""

from __future__ import annotations

import re
from enum import Enum

import sympy as sp

from .errors import HardJetLimitExceeded, JetOrderExceeded, UnknownSymbol
from .multiindex import MultiIndex

#: Identifiers reserved by the expression grammar.
RESERVED_NAMES = frozenset({"exp", "log", "sin", "cos", "sinh", "cosh", "D", "Int"})

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

#: Default RNG seed for probabilistic checks.  The mnemonic seed "JETSYM" is
#: not a valid hex literal, so the bytes of the string are used instead.
DEFAULT_SEED = int.from_bytes(b"JETSYM", "big")


class SymbolKind(Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    JET = "jet"
    PARAMETER = "parameter"


def _check_ident(name):
    if not _IDENT_RE.match(name):
        raise ValueError(f"invalid identifier {name!r}")
    if name in RESERVED_NAMES:
        raise ValueError(f"{name!r} is reserved by the expression grammar")


class Workspace:
    def __init__(self, independent, dependent, order_cap=2, hard_cap=8):
        if not independent or not dependent:
            raise ValueError("need at least one independent and one dependent variable")
        if order_cap < 1:
            raise ValueError("jet order cap must be >= 1")
        self.order_cap = int(order_cap)
        self.hard_cap = max(int(hard_cap), self.order_cap)
        self._names = {}
        self.independent = tuple(self._new_symbol(n, SymbolKind.INDEPENDENT, i)
                                 for i, n in enumerate(independent))
        self.dependent = tuple(self._new_symbol(n, SymbolKind.DEPENDENT, a)
                               for a, n in enumerate(dependent))
        self.parameters = {}
        self.functions = {}
        self._jets = {}
        for a in range(self.q):
            self._jets[(a, MultiIndex.zero(self.p).counts)] = self.dependent[a]

    @property
    def p(self):
        return len(self.independent)

    @property
    def q(self):
        return len(self.dependent)

    def _new_symbol(self, name, kind, index):
        _check_ident(name)
        if name in self._names:
            raise ValueError(f"name {name!r} already registered")
        sym = sp.Symbol(name, real=True)
        self._names[name] = (kind, index)
        return sym

    # -- registration -------------------------------------------------

    def add_parameter(self, name):
        sym = self._new_symbol(name, SymbolKind.PARAMETER, len(self.parameters))
        self.parameters[name] = sym
        return sym

    def add_function(self, name, args=None):
        """Register an opaque unknown function of the independent variables.

        Returns the applied template expression, e.g. ``a(x1, x2)``.
        """
        _check_ident(name)
        if name in self._names or name in self.functions:
            raise ValueError(f"name {name!r} already registered")
        if args is None:
            args = self.independent
        else:
            args = tuple(self.resolve(a) if isinstance(a, str) else a for a in args)
            for a in args:
                if a not in self.independent:
                    raise ValueError(f"unknown-function argument {a} is not independent")
        applied = sp.Function(name, real=True)(*args)
        self.functions[name] = applied
        return applied

    # -- jets ----------------------------------------------------------

    def jet(self, alpha, K, auto_raise=False):
        """The jet symbol u^alpha_K; |K| = 0 gives the dependent symbol itself.

        The order cap limits the jets a caller names, as the parser does: past
        it JetOrderExceeded is raised, even for a jet that already exists.
        Engine operations pass ``auto_raise=True`` for the jets they create;
        the cap stays as it is.  Past the hard cap HardJetLimitExceeded is
        raised, whoever asks.
        """
        if not isinstance(K, MultiIndex):
            K = MultiIndex(tuple(K))
        if K.p != self.p:
            raise ValueError(f"multi-index {K.counts} has wrong length for p={self.p}")
        if not auto_raise and K.order > self.order_cap:
            raise JetOrderExceeded(f"jet order {K.order} exceeds cap {self.order_cap}")
        key = (alpha, K.counts)
        if key in self._jets:
            return self._jets[key]
        if K.order > self.hard_cap:
            raise HardJetLimitExceeded(
                f"jet order {K.order} exceeds the hard limit {self.hard_cap}")
        base = self.dependent[alpha].name
        subs = ",".join(self.independent[i].name for i in K.slots())
        sym = sp.Symbol(f"{base}_{{{subs}}}", real=True)
        self._names[sym.name] = (SymbolKind.JET, (alpha, K))
        self._jets[key] = sym
        return sym

    def jet_info(self, sym):
        """(alpha, K) for a jet or dependent symbol, else None."""
        entry = self._names.get(getattr(sym, "name", None))
        if entry is None:
            return None
        kind, index = entry
        if kind is SymbolKind.JET:
            return index
        if kind is SymbolKind.DEPENDENT:
            return (index, MultiIndex.zero(self.p))
        return None

    def kind(self, sym):
        entry = self._names.get(getattr(sym, "name", None))
        return entry[0] if entry else None

    def slot(self, sym):
        """0-based slot of an independent symbol."""
        entry = self._names.get(getattr(sym, "name", None))
        if entry is None or entry[0] is not SymbolKind.INDEPENDENT:
            raise ValueError(f"{sym} is not an independent variable")
        return entry[1]

    def resolve(self, name):
        entry = self._names.get(name)
        if entry is None:
            if name in self.functions:
                raise UnknownSymbol(f"{name} is a function; call it with arguments")
            raise UnknownSymbol(name)
        kind, index = entry
        if kind is SymbolKind.INDEPENDENT:
            return self.independent[index]
        if kind is SymbolKind.DEPENDENT:
            return self.dependent[index]
        if kind is SymbolKind.PARAMETER:
            return self.parameters[name]
        return self._jets[(index[0], index[1].counts)]

    # -- expression introspection ---------------------------------------

    def jet_atoms(self, expr):
        """[(symbol, alpha, K)] for every jet symbol of order >= 1 in expr."""
        out = []
        for s in expr.free_symbols:
            info = self.jet_info(s)
            if info is not None and info[1].order >= 1:
                out.append((s, info[0], info[1]))
        return out

    def dependent_atoms(self, expr):
        """[(symbol, alpha, K)] for jet AND dependent symbols in expr."""
        out = []
        for s in expr.free_symbols:
            info = self.jet_info(s)
            if info is not None:
                out.append((s, info[0], info[1]))
        return out

    def max_jet_order(self, expr):
        orders = [K.order for _, _, K in self.dependent_atoms(expr)]
        return max(orders, default=0) if orders else 0

    def parse(self, text):
        from .grammar import parse
        return parse(text, self)

    def __repr__(self):
        xs = ",".join(s.name for s in self.independent)
        us = ",".join(s.name for s in self.dependent)
        return f"Workspace([{xs}];[{us}]; n<={self.order_cap})"
