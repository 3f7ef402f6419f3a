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
and the constants pi and e.  Vertex entries may carry coordinates; they are
accepted and ignored (edge lengths alone fix the metric).  "cells" defaults
to the finest that keeps every spacing below min(length)/32, and "c" may be
omitted when the caller supplies it separately.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .graph import Grid, GridFunction, MetricGraph, build_graph, build_grid, sample_function

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


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
    # normalize the file format's ^ and any unicode minus to python syntax
    src = text.replace("^", "**").replace("−", "-")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc.msg}") from exc

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            check(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            pass
        elif isinstance(node, ast.Name):
            if node.id != "s" and node.id not in _CONSTANTS:
                raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS):
                raise ValueError(f"only {sorted(_FUNCTIONS)} may be called in {text!r}")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id} takes exactly one argument in {text!r}")
            check(node.args[0])
        else:
            raise ValueError(
                f"disallowed syntax {type(node).__name__} in expression {text!r}"
            )

    check(tree)
    code = compile(tree, "<h-expression>", "eval")
    env = dict(_FUNCTIONS)
    env.update(_CONSTANTS)

    def evaluate(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        # constant subexpressions are Python numbers: 1/0 raises, 2^10000 is
        # an int too large for a float, (-1)^0.5 is complex
        try:
            with np.errstate(invalid="ignore", divide="ignore"):
                out = eval(code, {"__builtins__": {}}, dict(env, s=s))  # noqa: S307
            return np.broadcast_to(np.asarray(out, dtype=float), s.shape).copy()
        except (ArithmeticError, TypeError) as exc:
            raise ValueError(f"cannot evaluate expression {text!r}: {exc}") from exc

    return evaluate


def default_cells(lengths: Mapping[str, float]) -> dict:
    """Cells per edge keeping every spacing at or below min(length)/32."""
    lmin = min(lengths.values())
    return {
        eid: max(2, math.ceil(32.0 * length / lmin))
        for eid, length in lengths.items()
    }


def _vertex_ids(raw) -> list:
    if not isinstance(raw, list) or not raw:
        raise ValueError('"vertices" must be a non-empty list')
    out = []
    for item in raw:
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, dict) and "id" in item:
            out.append(item["id"])  # coordinates, if any, are ignored
        else:
            raise ValueError(f"vertex entries must be ids or objects with an id: {item!r}")
    return out


def parse_problem(data: dict, *, cells_override: int | None = None) -> ProblemSpec:
    """Validate a decoded problem dictionary and build graph, grid, and h."""
    if not isinstance(data, dict):
        raise ValueError("problem file must decode to a JSON object")
    for key in ("vertices", "edges", "h"):
        if key not in data:
            raise ValueError(f"problem file is missing {key!r}")

    vertices = _vertex_ids(data["vertices"])
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list) or not raw_edges:
        raise ValueError('"edges" must be a non-empty list')
    edges = []
    lengths = {}
    file_cells = {}
    for item in raw_edges:
        if not isinstance(item, dict):
            raise ValueError(f"edge entries must be objects: {item!r}")
        try:
            eid, tail, head = item["id"], item["tail"], item["head"]
            length = float(item["length"])
        except KeyError as exc:
            raise ValueError(f"edge entry missing {exc.args[0]!r}: {item!r}") from exc
        edges.append((eid, tail, head, length))
        lengths[eid] = length
        if "cells" in item:
            cells = item["cells"]
            if not isinstance(cells, int) or isinstance(cells, bool):
                raise ValueError(f"edge {eid!r}: cells must be an integer")
            file_cells[eid] = cells

    graph = build_graph(vertices, edges)

    if cells_override is not None:
        if cells_override < 2:
            raise ValueError("cells override must be at least 2")
        cells = {eid: cells_override for eid in lengths}
    else:
        cells = default_cells(lengths)
        cells.update(file_cells)
    grid = build_grid(graph, cells)

    spec_h = data["h"]
    if isinstance(spec_h, (str, int, float)) and not isinstance(spec_h, bool):
        spec_h = {eid: spec_h for eid in lengths}
    if not isinstance(spec_h, dict):
        raise ValueError('"h" must be an expression, a number, or an edge map')
    missing = sorted(set(lengths) - set(spec_h))
    if missing:
        raise ValueError(f'"h" has no entry for edges {missing}')
    extra = sorted(set(spec_h) - set(lengths))
    if extra:
        raise ValueError(f'"h" names unknown edges {extra}')

    profiles = {}
    for eid, entry in spec_h.items():
        coords = grid.edge_coords(eid)
        if isinstance(entry, str):
            vals = compile_expression(entry)(coords)
        elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
            vals = np.full(coords.size, float(entry))
        elif isinstance(entry, list):
            vals = np.asarray(entry, dtype=float)
            if vals.shape != coords.shape:
                raise ValueError(
                    f"edge {eid!r}: h sample array has {vals.size} entries, "
                    f"grid wants {coords.size}"
                )
        else:
            raise ValueError(f"edge {eid!r}: h must be an expression, number, or array")
        if vals.ndim == 0:
            vals = np.full(coords.size, float(vals))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"edge {eid!r}: h evaluates to non-finite values")
        profiles[eid] = vals
    h = sample_function(grid, profiles)

    c = data.get("c")
    if c is not None:
        try:
            c = float(c)
        except (TypeError, ValueError) as exc:
            raise ValueError(f'"c" must be a number, got {data["c"]!r}') from exc
        if not math.isfinite(c):
            raise ValueError('"c" must be finite')

    return ProblemSpec(graph=graph, grid=grid, h=h, c=c, cells=cells)


def load_problem(path: str, *, cells_override: int | None = None) -> ProblemSpec:
    """Read and parse a problem file; all failure modes raise ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read problem file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file {path!r} is not valid JSON: {exc}") from exc
    return parse_problem(data, cells_override=cells_override)
