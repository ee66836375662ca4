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
    c3 = "2"                         # bindings applied by verify-*/solve runs

Vector-field coefficient lists use ``|`` between entries and ``;`` between
the xi and phi blocks because ``,`` already occurs inside jets and calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .algebra import substitute
from .condsym import PdeSystem
from .errors import JetsymError, SchemaError
from .families import AnsatzFamily
from .geometry import VectorFieldFamily
from .jets import NormalFormSystem, VectorField
from .workspace import Workspace


@dataclass
class AnsatzSpec:
    family: AnsatzFamily
    explicit_rhs: list = None    # per-slot expression lists, or None


@dataclass
class Candidate:
    name: str
    exprs: dict                  # dependent symbol -> Expr
    target: str = "both"         # pde | dc | both


@dataclass
class ProblemFile:
    path: str
    ws: Workspace
    pdes: list                   # (name, Expr)
    field_groups: dict           # group name -> VectorFieldFamily
    ansatz: AnsatzSpec = None
    candidates: list = field(default_factory=list)
    instance: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def fields(self, group="default"):
        if group not in self.field_groups:
            raise SchemaError(self.path, 0, f"no field group named {group!r}")
        return self.field_groups[group]


def _strip_quotes(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1].strip()
    return text


def _split_sections(path, text):
    """{section name: [(line, key, value)]} and {section name: header line}."""
    sections, headers = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise SchemaError(path, lineno, f"malformed section header {name!r}")
            name = name[1:-1].strip()
            if name in sections:
                raise SchemaError(path, lineno, f"duplicate section [{name}]")
            current = sections[name] = []
            headers[name] = lineno
            continue
        if current is None:
            raise SchemaError(path, lineno, "content before the first section")
        for sep in ("=", ":"):
            if sep in line:
                key, value = line.split(sep, 1)
                current.append((lineno, key.strip(), value.strip()))
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
    blocks = value.split(";")
    if len(blocks) != 2:
        raise SchemaError(path, lineno,
                          "vector field needs 'xi1 | ... ; phi1 | ...'")
    xi = [_parse_expr(ws, path, lineno, t) for t in blocks[0].split("|")]
    phi = [_parse_expr(ws, path, lineno, t) for t in blocks[1].split("|")]
    if len(xi) != ws.p or len(phi) != ws.q:
        raise SchemaError(path, lineno,
                          f"field needs {ws.p} xi and {ws.q} phi entries")
    with _line(path, lineno):
        return VectorField(ws, tuple(xi), tuple(phi))


def _get_single(path, sections, headers, name, key, default=None):
    for lineno, k, v in sections[name]:
        if k == key:
            return lineno, v
    if default is not None:
        return 0, default
    raise SchemaError(path, headers[name], f"missing key {key!r}")


def load_problem(path, order=None):
    """Parse a problem file into a workspace plus typed sections.

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

    options = {}
    order_line, order_text = 0, "2"
    for lineno, key, value in sections.get("options", []):
        options[key] = _strip_quotes(value)
        if key == "order":
            order_line, order_text = lineno, options[key]
    if order is not None:
        order_line, order_text = 0, str(order)
    n = _int_value(path, order_line, "jet order", order_text, 1)

    with _line(path, 0):
        ws = Workspace(indep.split(), dep.split(), order_cap=n,
                       hard_cap=max(8, n + 2))

    for lineno, key, value in sections.get("parameters", []):
        if key != "names":
            raise SchemaError(path, lineno, "parameters section uses 'names = ...'")
        with _line(path, lineno):
            for name in value.split():
                ws.add_parameter(name)

    for lineno, key, value in sections.get("functions", []):
        if key != "decl":
            raise SchemaError(path, lineno, "functions section uses 'decl = ...'")
        for decl in value.split():
            if "(" not in decl or not decl.endswith(")"):
                raise SchemaError(path, lineno, f"bad function declaration {decl!r}")
            name, args = decl[:-1].split("(", 1)
            with _line(path, lineno):
                ws.add_function(name.strip(),
                                [a.strip() for a in args.split(",") if a.strip()])

    pdes, pde_lines = [], []
    for lineno, key, value in sections.get("pde", []):
        pdes.append((key, _parse_expr(ws, path, lineno, value)))
        pde_lines.append(lineno)

    field_groups = {}
    for sec_name, rows in sections.items():
        if sec_name == "fields":
            group = "default"
        elif sec_name.startswith("fields:"):
            group = sec_name.split(":", 1)[1].strip()
        else:
            continue
        members = [_parse_field(ws, path, lineno, value) for lineno, _, value in rows]
        if not members:
            raise SchemaError(path, headers[sec_name], f"empty field group [{sec_name}]")
        field_groups[group] = VectorFieldFamily(ws, tuple(members))

    ansatz = None
    if "ansatz" in sections:
        sec = sections["ansatz"]
        kind_line, kind = _get_single(path, sections, headers, "ansatz", "family")
        bound_key = {"polynomial": "degree", "exponential": "kmax",
                     "trigonometric": "nmax", "hyperbolic": "kmax"}.get(kind)
        if bound_key is None:
            raise SchemaError(path, kind_line, f"unknown ansatz family {kind!r}")
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
                    NormalFormSystem(ws, {(a, j): parts[j * ws.q + a]
                                          for j in range(ws.p) for a in range(ws.q)})
                explicit = parts
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
        exprs = {ws.dependent[a]: parts[a] for a in range(ws.q)}
        candidates.append(Candidate(key, exprs, target))

    instance = {}
    for lineno, key, value in sections.get("instance", []):
        val = _parse_expr(ws, path, lineno, value)
        if key in ws.parameters:
            instance[ws.parameters[key]] = val
        elif key in ws.functions:
            instance[ws.functions[key]] = val
        else:
            raise SchemaError(path, lineno,
                              f"instance binding {key!r} is not a parameter "
                              "or unknown function")

    # each equation stays one, with and without the instance bindings
    for lineno, (name, e) in zip(pde_lines, pdes):
        with _line(path, lineno):
            PdeSystem(ws, ((name, e),))
            if instance:
                PdeSystem(ws, ((name, substitute(e, instance)),))

    return ProblemFile(path=path, ws=ws, pdes=pdes, field_groups=field_groups,
                       ansatz=ansatz, candidates=candidates, instance=instance,
                       options=options)
