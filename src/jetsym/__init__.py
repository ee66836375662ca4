"""jetsym: jet-bundle calculus and Clairin conditional symmetries of PDEs."""

from .algebra import (TriBool, ZeroResult, ZeroVerdict, diff, is_zero,
                      normalize, proportional, substitute, zero_verdict)
from .grammar import parse, print_expr
from .multiindex import MultiIndex
from .workspace import DEFAULT_SEED, SymbolKind, Workspace

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "MultiIndex",
    "SymbolKind",
    "TriBool",
    "Workspace",
    "ZeroResult",
    "ZeroVerdict",
    "diff",
    "is_zero",
    "normalize",
    "parse",
    "print_expr",
    "proportional",
    "substitute",
    "zero_verdict",
]
