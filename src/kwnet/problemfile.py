"""Problem files: JSON descriptions of a graph, the weight h, and c.

Schema::

    {
      "vertices": ["a", "b", ...],            # or [{"id": "a", ...}, ...]
      "edges": [{"id": "e1", "tail": "a", "head": "b",
                 "length": 1.0, "cells": 64}, ...],
      "h": {"e1": "cos(pi*s) - 0.1", "e2": [..samples..]},
      "c": -0.5
    }

"h" may also be a single expression string or number applied to every edge.
Expression strings use the arclength variable s (measured from the edge
tail), the operators + - * / ^ (or **), the functions sin, cos, exp, log,
and the constants pi and e.

Edges whose expressions differ only in their float literals (the numbers
with a decimal point or an exponent) share a template.  It is checked and
compiled once and evaluated once, on the concatenated nodes of those edges,
a literal becoming an array that holds at each node its edge's value.  The
values are bitwise those of evaluating each text on its own: a literal
becomes an array only where nothing but + - * / and signs lies between it
and s.  Under ^ or in a function of constants it stays a Python float, and
edges that differ there are evaluated in separate batches.

Vertex, edge, tail and head ids are strings, and h must be real: an
expression that evaluates to complex values is rejected.  Vertex entries
may carry coordinates; they are accepted and ignored (edge lengths alone
fix the metric).  "cells" defaults to the finest that keeps every spacing
below min(length)/32, and "c" may be omitted when the caller supplies it
separately.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping

import numpy as np

from .graph import Grid, GridFunction, MetricGraph, _sample_nodes, build_graph, build_grid

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)
_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div)
# a float literal: digits with a point and/or an exponent, not part of a name
# or of a longer number.  ASCII classes: a non-ASCII character beside a
# literal leaves a text that Python does not parse, or a name that is not
# allowed, so the template fails and the text is evaluated on its own
_DIGITS = r"\d+(?:_\d+)*"
_FLOAT = re.compile(rf"(?<![\w.])((?:{_DIGITS}\.(?:{_DIGITS})?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?"
                    rf"|{_DIGITS}[eE][+-]?{_DIGITS})(?![\w.])", re.ASCII)
# the texts are scanned joined by _SEP, each literal replaced by _MARK
_SEP, _MARK = "\0", "\1"


@dataclass(frozen=True)
class ProblemSpec:
    graph: MetricGraph
    grid: Grid
    h: GridFunction
    c: float | None
    cells: dict


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an h-expression into a vectorized function of s.

    Only arithmetic, the whitelisted functions, and the constants pi/e are
    admitted; anything else raises ValueError with the offending construct.
    """
    code, _ = _compile(_normalize(text), text)

    def evaluate(s: np.ndarray) -> np.ndarray:
        return _evaluate(code, text, np.asarray(s, dtype=float))

    return evaluate


def _normalize(text: str) -> str:
    """The file format's ^ and any unicode minus in python syntax."""
    return text.replace("^", "**").replace("−", "-")


@functools.lru_cache(maxsize=512)
def _compile(src: str, text: str, params: frozenset = frozenset()) -> tuple:
    """Compile ``src``, admitting only arithmetic, the whitelisted functions,
    s, pi, e and the names in ``params`` (ValueError naming ``text``), and
    find the parameters that may hold one value per node: those with only
    + - * / and signs between them and the nearest subexpression in s, or
    the root.  Under ^, in a function of constants or in a quotient of
    constants numpy would take other paths for an array than for a Python
    float (x^0.5 is a sqrt; pi/0.0 is inf, not a ZeroDivisionError).

    A pure function of its strings, so memoized: problems that repeat a
    template (every parse of the same file) compile it once.  A ValueError
    is not cached and is raised again on every call."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    per_node = set()

    def check(node: ast.AST) -> tuple:  # (in s, parameters on an arithmetic path)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            (left_s, left), (right_s, right) = check(node.left), check(node.right)
            in_s, pending = left_s or right_s, left | right
            if not isinstance(node.op, _ARITHMETIC) or (isinstance(node.op, ast.Div)
                                                        and not in_s):
                return in_s, set()
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            in_s, pending = check(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return False, set()
        elif isinstance(node, ast.Name):
            if node.id != "s" and node.id not in _CONSTANTS and node.id not in params:
                raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
            return node.id == "s", {node.id} & params
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS):
                raise ValueError(f"only {sorted(_FUNCTIONS)} may be called in {text!r}")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id} takes exactly one argument in {text!r}")
            return check(node.args[0])[0], set()
        else:
            raise ValueError(
                f"disallowed syntax {type(node).__name__} in expression {text!r}"
            )
        if in_s:
            per_node.update(pending)
            return True, set()
        return False, pending

    per_node.update(check(tree.body)[1])
    return compile(tree, "<h-expression>", "eval"), frozenset(per_node)


def _evaluate(code, text: str, s: np.ndarray, params=None) -> np.ndarray:
    env = dict(_FUNCTIONS, **_CONSTANTS, **(params or {}), s=s)
    # constant subexpressions are Python numbers: 1/0 raises, 2^10000 is
    # an int too large for a float, (-1)^0.5 is complex
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = eval(code, {"__builtins__": {}}, env)  # noqa: S307
        if np.iscomplexobj(out):
            # a float cast would keep the real part, which numpy computes
            # differently for an array than for a Python complex
            raise ValueError(f"expression {text!r} evaluates to complex values; h must be real")
        return np.broadcast_to(np.asarray(out, dtype=float), s.shape).copy()
    except (ArithmeticError, TypeError) as exc:
        raise ValueError(f"cannot evaluate expression {text!r}: {exc}") from exc


def _expression_values(grid: Grid, exprs: dict, out: np.ndarray) -> None:
    """Write the values of the edge expressions ``exprs`` (edge id -> text)
    at their edges' nodes into ``out`` (one entry per grid node).

    One regex scan over all the texts, joined, gives every text's template
    and its literals, which become one float array."""
    if not exprs:
        return
    texts = list(exprs.values())
    joined = _SEP.join(texts)
    if _MARK in joined or joined.count(_SEP) != len(texts) - 1:
        # such a text never parses; this keeps it apart from the others
        joined = _SEP.join(t.replace(_SEP, "\2").replace(_MARK, "\2") for t in texts)
    pieces = _FLOAT.split(_normalize(joined))
    values = np.fromiter(map(float, pieces[1::2]), dtype=float, count=len(pieces) // 2)
    templates = _MARK.join(pieces[0::2]).split(_SEP)
    n_lits = np.fromiter(map(str.count, templates, repeat(_MARK)), dtype=np.intp,
                         count=len(texts))
    start = np.cumsum(n_lits) - n_lits  # each text's first literal in values
    edge = np.fromiter(map(grid.graph.edge_position.__getitem__, exprs), dtype=np.intp,
                       count=len(texts))
    for members in _groups(templates):
        template = templates[members[0]]
        parts = template.split(_MARK)
        names = [f"_{k}" for k in range(len(parts) - 1)]
        src = "".join(t + n for t, n in zip(parts, names + [""]))
        lits = values[start[members, None] + np.arange(len(names))]
        try:
            if "_" in template:  # a name that passes for a parameter
                raise ValueError(src)
            code, per_node = _compile(src, src, frozenset(names))
            # edges that agree on the literals that stay Python floats
            fixed = lits[:, [n not in per_node for n in names]]
            for rows in _groups(map(tuple, fixed.tolist())):
                edges = edge[members[rows]]
                nodes = grid.edge_nodes(edges)
                count = np.diff(grid.edge_start)[edges]
                params = {n: np.repeat(lits[rows, k], count) if n in per_node
                          else float(lits[rows[0], k]) for k, n in enumerate(names)}
                out[nodes] = _evaluate(code, src, grid.node_s[nodes], params)
                if not np.isfinite(out[nodes]).all():
                    raise ValueError(src)
        except ValueError:
            # the template tells neither which edge failed nor why in the
            # words of that edge's text: evaluate edge by edge
            for m in members:
                nodes = grid.edge_nodes([edge[m]])
                try:
                    out[nodes] = compile_expression(texts[m])(grid.node_s[nodes])
                except ValueError as exc:
                    raise ValueError(f"edge {grid.graph.edges[edge[m]].id!r}: {exc}") from exc


def _groups(keys) -> list:
    """The positions of equal keys, one index array per key, in order of
    first appearance."""
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return [np.array(g) for g in groups.values()]


def default_cells(lengths: Mapping[str, float]) -> dict:
    """Cells per edge keeping every spacing at or below min(length)/32."""
    length = np.fromiter(lengths.values(), dtype=float, count=len(lengths))
    n = np.maximum(2, np.ceil(32.0 * length / length.min()))
    return dict(zip(lengths, n.astype(int).tolist()))


def _is_number(x) -> bool:
    """Whether x decodes from a JSON number that a float holds: a float, or
    an int (not a bool) within the float range."""
    if isinstance(x, float):
        return True
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _vertex_ids(raw) -> list:
    if not isinstance(raw, list) or not raw:
        raise ValueError('"vertices" must be a non-empty list')
    out = []
    for item in raw:
        vid = item.get("id") if isinstance(item, dict) else item  # coordinates are ignored
        if not isinstance(vid, str):
            raise ValueError(f"vertex entries must be string ids or objects with a string id: "
                             f"{item!r}")
        out.append(vid)
    return out


def _edge_columns(raw) -> tuple:
    """The ids, tails, heads and lengths of the edge entries, and the cells
    of those that give them (edge id -> count), checked in one pass that
    stops at the first bad entry."""
    if not isinstance(raw, list) or not raw:
        raise ValueError('"edges" must be a non-empty list')
    ids, tails, heads, lengths, cells = [], [], [], [], {}
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError(f"edge entries must be objects: {item!r}")
        try:
            eid, tail, head, length = item["id"], item["tail"], item["head"], item["length"]
        except KeyError as exc:
            raise ValueError(f"edge entry missing {exc.args[0]!r}: {item!r}") from exc
        if not _is_number(length):
            raise ValueError(f"edge entry {item!r}: length must be a number")
        if not (isinstance(eid, str) and isinstance(tail, str) and isinstance(head, str)):
            # the solution CSV holds ids as text: verify must find them again
            raise ValueError(f"edge entry {item!r}: id, tail and head must be strings")
        ids.append(eid)
        tails.append(tail)
        heads.append(head)
        lengths.append(float(length))
        if "cells" in item:
            n = item["cells"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"edge {eid!r}: cells must be an integer")
            cells[eid] = n
    return ids, tails, heads, lengths, cells


def parse_problem(data: dict, *, cells_override: int | None = None) -> ProblemSpec:
    """Validate a decoded problem dictionary and build graph, grid, and h."""
    if not isinstance(data, dict):
        raise ValueError("problem file must decode to a JSON object")
    for key in ("vertices", "edges", "h"):
        if key not in data:
            raise ValueError(f"problem file is missing {key!r}")

    vertices = _vertex_ids(data["vertices"])
    ids, tails, heads, lengths, file_cells = _edge_columns(data["edges"])
    graph = build_graph(vertices, list(zip(ids, tails, heads, lengths)))

    if cells_override is not None:
        n = _cells_index(cells_override)
        if n < 2:
            raise ValueError("cells override must be at least 2")
        cells = dict.fromkeys(ids, n)
    else:
        cells = default_cells(dict(zip(ids, lengths)))
        cells.update(file_cells)
    grid = build_grid(graph, cells)

    spec_h = data["h"]
    if isinstance(spec_h, str) or _is_number(spec_h):
        spec_h = dict.fromkeys(ids, spec_h)
    if not isinstance(spec_h, dict):
        raise ValueError('"h" must be an expression, a number, or an edge map')
    missing = sorted(set(ids) - set(spec_h))
    if missing:
        raise ValueError(f'"h" has no entry for edges {missing}')
    extra = sorted(set(spec_h) - set(ids))
    if extra:
        raise ValueError(f'"h" names unknown edges {extra}')

    node_h = np.empty(grid.node_s.size)
    exprs = {}
    for eid, entry in spec_h.items():
        if isinstance(entry, str):
            exprs[eid] = entry
            continue
        j = grid.graph.edge_position[eid]
        nodes = slice(grid.edge_start[j], grid.edge_start[j + 1])
        coords = grid.node_s[nodes]
        if _is_number(entry):
            node_h[nodes] = float(entry)
        elif isinstance(entry, list):
            # strings and booleans would pass the float cast below
            bad = [x for x in entry if not (_is_number(x) or isinstance(x, list))]
            if bad:
                raise ValueError(f"edge {eid!r}: h samples must be numbers: {bad[0]!r}")
            try:
                vals = np.asarray(entry, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"edge {eid!r}: h samples must be numbers: {exc}") from exc
            if vals.shape != coords.shape:
                raise ValueError(
                    f"edge {eid!r}: h sample array has shape {vals.shape}, "
                    f"grid wants a flat list of {coords.size} numbers"
                )
            node_h[nodes] = vals
        else:
            raise ValueError(f"edge {eid!r}: h must be an expression, number, or array")
    _expression_values(grid, exprs, node_h)
    bad = ~np.isfinite(node_h)
    if bad.any():
        eid = graph.edges[grid.node_edge[np.argmax(bad)]].id
        raise ValueError(f"edge {eid!r}: h evaluates to non-finite values")
    h = _sample_nodes(grid, node_h)

    c = data.get("c")
    if c is not None:
        if not _is_number(c):
            raise ValueError(f'"c" must be a number, got {c!r}')
        c = float(c)
        if not math.isfinite(c):
            raise ValueError('"c" must be finite')

    return ProblemSpec(graph=graph, grid=grid, h=h, c=c, cells=cells)


def _cells_index(cells):
    """``cells_override`` as a plain int (None stays None): a numpy integer
    becomes the int that json writes, anything not an integer a ValueError."""
    if cells is None:
        return None
    try:
        return operator.index(cells)
    except TypeError as exc:
        raise ValueError(f"cells override must be an integer, got {cells!r}") from exc


@functools.lru_cache(maxsize=1)
def _parse_text(text: str, cells: int | None) -> ProblemSpec:
    """The spec of a problem file's text.  The last one is kept; a
    ValueError is not cached and is raised again on every call."""
    return parse_problem(json.loads(text), cells_override=cells)


def load_problem(path: str, *, cells_override: int | None = None) -> ProblemSpec:
    """Read and parse a problem file; all failure modes raise ValueError.

    The spec of the last call is kept, keyed on the file's text and
    ``cells_override``: reading the same text with the same cells again in
    this process returns that very ProblemSpec, so a verify, threshold or
    critical solve after a solve of the same file shares its Grid, and with
    it K and the grid's operators.  A returned spec may thus be shared and
    must not be mutated (its ``cells`` dict included).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read problem file {path!r}: {exc}") from exc
    try:
        return _parse_text(text, _cells_index(cells_override))
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file {path!r} is not valid JSON: {exc}") from exc
