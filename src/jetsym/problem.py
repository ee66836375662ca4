"""Problem files: a line-oriented sectioned format for batch runs.

Sections hold ``key = value`` lines (``:`` also separates); ``#`` starts a
comment; expression values may be double-quoted.  Example::

    [variables]
    independent = x1 x2
    dependent = u

    [parameters]
    names = lam c0 c1 c2 c3

    [functions]
    decl = h(t) H(x1,x2)

    [options]
    order = 2

    [pde]
    wave = "u_{x1,x2} - (c3*u^3 + c2*u^2 + c1*u + c0)"

    [fields]
    Z1 = "1" | "0" ; "u^2"          # xi components, then ';', then phi

    [fields:alt]                     # named alternative field group
    Y1 = "1" | "0" ; "u^2"

    [ansatz]
    family = polynomial
    degree = 2
    rhs = "..." | "..."              # optional explicit right-hand sides

    [candidates]
    kink = "-1/(x1 + x2 + lam)"      # per-dependent values split by '|'
    only = "..." @ pde               # check against pde / dc / both

    [instance]
    c3 = "2"                         # bindings of parameters and functions

Vector-field coefficient lists use ``|`` between entries and ``;`` between
the xi and phi blocks because ``,`` already occurs inside jets and calls.

Other sections, and keys the fixed-key sections (all but ``[pde]``,
``[fields]``, ``[candidates]`` and ``[instance]``) do not document, are refused.

``load_problem`` binds ``[instance]`` once: ``problem.bound`` is the problem
with the bindings applied to its ``[pde]`` system, ``[fields]`` groups and
candidates (the problem itself without bindings), each built at its line.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .algebra import substitute
from .condsym import PdeSystem
from .errors import JetsymError, PreconditionFailed, SchemaError
from .families import AnsatzFamily
from .geometry import VectorFieldFamily
from .jets import NormalFormSystem, VectorField
from .workspace import Workspace


@dataclass
class AnsatzSpec:
    family: AnsatzFamily
    explicit_rhs: dict = None    # (dependent a, slot j) -> Expr, or None


@dataclass
class Candidate:
    name: str
    exprs: dict                  # dependent symbol -> Expr
    target: str = "both"         # pde | dc | both


@dataclass
class ProblemFile:
    path: str
    ws: Workspace
    pde: PdeSystem               # None without [pde] equations
    field_groups: dict           # group name -> VectorFieldFamily
    ansatz: AnsatzSpec = None
    candidates: list = field(default_factory=list)
    instance: dict = field(default_factory=dict)   # parameter or function -> Expr
    bound: ProblemFile = field(default=None, repr=False, compare=False)

    def fields(self, group="default"):
        """The field group named by ``--fields``."""
        if group not in self.field_groups:
            raise PreconditionFailed("--fields", f"no field group named {group!r}; the file "
                                     f"has {', '.join(self.field_groups) or 'none'}")
        return self.field_groups[group]


# the keys each section takes; None: every key names an entry
_KEYS = {"variables": ("independent", "dependent"), "parameters": ("names",),
         "functions": ("decl",), "options": ("order",), "ansatz": None,
         "pde": None, "fields": None, "candidates": None, "instance": None}


def _strip_quotes(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1].strip()
    return text


def _split_sections(path, text):
    """{section name: [(line, key, value)]} and {section name: header line}."""
    sections, headers = {}, {}
    current = keys = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise SchemaError(path, lineno, f"malformed section header {name!r}")
            name = name[1:-1].strip()
            kind = "fields" if name.startswith("fields:") else name
            if kind not in _KEYS:
                raise SchemaError(path, lineno, f"unknown section [{name}]")
            if name in sections:
                raise SchemaError(path, lineno, f"duplicate section [{name}]")
            current = sections[name] = []
            keys = _KEYS[kind]
            headers[name] = lineno
            continue
        if current is None:
            raise SchemaError(path, lineno, "content before the first section")
        for sep in ("=", ":"):
            if sep in line:
                key, value = line.split(sep, 1)
                key = key.strip()
                if keys is not None and key not in keys:
                    raise SchemaError(path, lineno, f"unknown key {key!r} in [{name}]")
                current.append((lineno, key, value.strip()))
                break
        else:
            raise SchemaError(path, lineno, f"expected 'key = value', got {line!r}")
    return sections, headers


def _int_value(path, lineno, name, text, least):
    """The integer that ``text`` spells, when it is at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise SchemaError(path, lineno, f"{name} must be an integer >= {least}, got {text!r}")
    return value


@contextmanager
def _line(path, lineno):
    """Build the objects of one line: a ValueError or engine error from
    their validation is a SchemaError at that line."""
    try:
        yield
    except SchemaError:
        raise
    except (ValueError, JetsymError) as err:
        raise SchemaError(path, lineno, str(err)) from None


def _parse_expr(ws, path, lineno, text):
    try:
        return ws.parse(_strip_quotes(text))
    except JetsymError as err:
        raise SchemaError(path, lineno, f"bad expression {text!r}: {err}") from None


def _parse_field(ws, path, lineno, value):
    """The xi entries, then the phi entries, of a vector-field line."""
    blocks = value.split(";")
    if len(blocks) != 2:
        raise SchemaError(path, lineno,
                          "vector field needs 'xi1 | ... ; phi1 | ...'")
    xi = [_parse_expr(ws, path, lineno, t) for t in blocks[0].split("|")]
    phi = [_parse_expr(ws, path, lineno, t) for t in blocks[1].split("|")]
    if len(xi) != ws.p or len(phi) != ws.q:
        raise SchemaError(path, lineno,
                          f"field needs {ws.p} xi and {ws.q} phi entries")
    return xi + phi


def _get_single(path, sections, headers, name, key, default=None):
    for lineno, k, v in sections[name]:
        if k == key:
            return lineno, v
    if default is not None:
        return 0, default
    raise SchemaError(path, headers[name], f"missing key {key!r}")


def load_problem(path, order=None):
    """Parse a problem file into a workspace plus typed sections; its
    ``bound`` carries the ``[instance]`` bindings (see the module docstring).

    ``order`` overrides the file's jet-order option (it must be fixed before
    any expression is parsed).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SchemaError(path, 0, f"cannot read problem file: {err}") from None
    sections, headers = _split_sections(path, text)

    if "variables" not in sections:
        raise SchemaError(path, 0, "missing [variables] section")
    _, indep = _get_single(path, sections, headers, "variables", "independent")
    _, dep = _get_single(path, sections, headers, "variables", "dependent")

    order_line, order_text = 0, "2"
    for lineno, _, value in sections.get("options", []):
        order_line, order_text = lineno, _strip_quotes(value)
    if order is not None:
        order_line, order_text = 0, str(order)
    n = _int_value(path, order_line, "jet order", order_text, 1)

    with _line(path, 0):
        ws = Workspace(indep.split(), dep.split(), order_cap=n,
                       hard_cap=max(8, n + 2))

    for lineno, _, value in sections.get("parameters", []):
        with _line(path, lineno):
            for name in value.split():
                ws.add_parameter(name)

    for lineno, _, value in sections.get("functions", []):
        for decl in value.split():
            if "(" not in decl or not decl.endswith(")"):
                raise SchemaError(path, lineno, f"bad function declaration {decl!r}")
            name, args = decl[:-1].split("(", 1)
            with _line(path, lineno):
                ws.add_function(name.strip(),
                                [a.strip() for a in args.split(",") if a.strip()])

    instance, bindings = {}, []
    for lineno, key, value in sections.get("instance", []):
        symbol = ws.parameters.get(key, ws.functions.get(key))
        if symbol is None:
            raise SchemaError(path, lineno,
                              f"instance binding {key!r} is not a parameter "
                              "or unknown function")
        val = _parse_expr(ws, path, lineno, value)
        if ws.max_jet_order(val) >= 1:
            raise SchemaError(path, lineno, f"instance binding {key} contains jet symbols")
        instance[symbol] = val
        bindings.append((lineno, key, val))
    # the bindings are simultaneous, so no value may mention a bound name
    for lineno, key, val in bindings:
        if val.has(*instance):
            raise SchemaError(path, lineno, f"instance binding {key} mentions a bound name")

    def build(lineno, make, exprs):
        """The line's object as written and with the [instance] bindings
        applied: one object when no binding applies."""
        with _line(path, lineno):
            obj = make(exprs)
            if not any(e.has(*instance) for e in exprs):
                return obj, obj
            return obj, make([substitute(e, instance) for e in exprs])

    pdes = [build(lineno, lambda es, key=key: PdeSystem(ws, ((key, es[0]),)),
                  [_parse_expr(ws, path, lineno, value)])
            for lineno, key, value in sections.get("pde", [])]

    field_groups = {}
    for sec_name, rows in sections.items():
        if sec_name == "fields":
            group = "default"
        elif sec_name.startswith("fields:"):
            group = sec_name.split(":", 1)[1].strip()
        else:
            continue
        if not rows:
            raise SchemaError(path, headers[sec_name], f"empty field group [{sec_name}]")
        field_groups[group] = [
            build(lineno, lambda es: VectorField(ws, tuple(es[:ws.p]), tuple(es[ws.p:])),
                  _parse_field(ws, path, lineno, value))
            for lineno, _, value in rows]

    ansatz = None
    if "ansatz" in sections:
        sec = sections["ansatz"]
        kind_line, kind = _get_single(path, sections, headers, "ansatz", "family")
        bound_key = {"polynomial": "degree", "exponential": "kmax",
                     "trigonometric": "nmax", "hyperbolic": "kmax"}.get(kind)
        if bound_key is None:
            raise SchemaError(path, kind_line, f"unknown ansatz family {kind!r}")
        for lineno, key, _ in sec:
            if key not in ("family", bound_key, "rhs"):
                raise SchemaError(path, lineno,
                                  f"unknown key {key!r} in [ansatz] of family {kind}")
        bound_line, bound = _get_single(path, sections, headers, "ansatz", bound_key,
                                        default="1")
        bound = _int_value(path, bound_line, bound_key, bound, 0)
        with _line(path, kind_line):
            family = AnsatzFamily(kind, bound)
            family.keys(len(ws.dependent))
        explicit = None
        for lineno, key, value in sec:
            if key == "rhs":
                parts = [_parse_expr(ws, path, lineno, t) for t in value.split("|")]
                if len(parts) != ws.p * ws.q:
                    raise SchemaError(
                        path, lineno,
                        f"explicit ansatz rhs needs {ws.p * ws.q} entries "
                        "(slot-major over dependents)")
                with _line(path, lineno):
                    explicit = NormalFormSystem(
                        ws, {(a, j): parts[j * ws.q + a]
                             for j in range(ws.p) for a in range(ws.q)}).rhs
        ansatz = AnsatzSpec(family, explicit)

    candidates = []
    for lineno, key, value in sections.get("candidates", []):
        target = "both"
        if "@" in value:
            value, target = value.rsplit("@", 1)
            target = target.strip()
            if target not in ("pde", "dc", "both"):
                raise SchemaError(path, lineno, f"unknown candidate target {target!r}")
        parts = [_parse_expr(ws, path, lineno, t) for t in value.split("|")]
        if len(parts) != ws.q:
            raise SchemaError(path, lineno,
                              f"candidate needs {ws.q} expressions")
        if any(ws.max_jet_order(e) >= 1 for e in parts):
            raise SchemaError(path, lineno, f"candidate {key} contains jet symbols")
        candidates.append(build(
            lineno, lambda es, key=key, target=target:
            Candidate(key, dict(zip(ws.dependent, es)), target), parts))

    def side(k):
        """The sections as written (k = 0) or bound (k = 1)."""
        deltas = sum((pair[k].deltas for pair in pdes), ())
        return {"pde": PdeSystem(ws, deltas) if deltas else None,
                "field_groups": {group: VectorFieldFamily(ws, tuple(pair[k] for pair in rows))
                                 for group, rows in field_groups.items()},
                "candidates": [pair[k] for pair in candidates]}

    problem = ProblemFile(path=path, ws=ws, ansatz=ansatz, instance=instance, **side(0))
    problem.bound = replace(problem, **side(1)) if instance else problem
    problem.bound.bound = problem.bound
    return problem
