"""Seeded inputs for the kwnet benchmark.

Every workload is a list of operations built from ``--seed``.  Problem files
are plain JSON in the format of ``kwnet.problemfile``; the weight h is written
as per-edge expressions

    h_e(s) = a0 + b_e sin(pi s / L_e)^4 + d_e sin(2 pi s / L_e)

(sign-changing) or ``-a - b_e sin(pi s / L_e)^2`` (h <= 0).  Every edge term
vanishes at both ends, so h takes the common value a0 (or -a) at every
vertex and ``parse_problem`` never sees a continuity mismatch.  a0 is chosen
so that int h = -delta |G| exactly: c = 0 is then admissible and the
threshold for c < 0 is finite.

Each operation carries the outcome it is expected to have, decided when the
inputs are made.  For c < 0 below the certified ``implied_c`` (the
continuation route) the expectation "solves" rests on the oracle fold stored
in ``reference.json`` (see ``make_reference.py``): c lies at most half of the
way from implied_c to the fold.

``reference.json`` also records, for every draw a seeded route can make
(variant, cells, c), whether this code base converged on it.  The four timed
workloads draw only converging rows, so that no operation fails there; the
``known-defects`` workload draws the failing rows, so that the defects stay
measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: graphs with three edges or fewer, lengths as in the test suite
SMALL_GRAPHS = {
    "edge": (["p", "q"], [("e1", "p", "q", 1.0)]),
    "path3": (["v0", "v1", "v2", "v3"],
              [("e1", "v0", "v1", 1.0), ("e2", "v1", "v2", 0.6), ("e3", "v2", "v3", 1.4)]),
    "star3": (["o", "p", "q", "r"],
              [("e1", "o", "p", 1.0), ("e2", "o", "q", 1.5), ("e3", "o", "r", 0.7)]),
    "triangle": (["a", "b", "c"],
                 [("e1", "a", "b", 1.0), ("e2", "b", "c", 0.8), ("e3", "c", "a", 1.2)]),
    "theta": (["a", "b"],
              [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.3), ("e3", "a", "b", 0.9)]),
}
CANONICAL_H = "cos(pi*s) - 0.1"
SOLVE_TOL = 1e-8  # kwnet solve's default --tol
VERIFY_TOL = 1e-4  # kwnet verify's default --tol

# Parameters of the vetted routes: c itself for "zero" and "positive", the
# share of implied_c for "certified", the share of the way from implied_c to
# the fold for "continuation".
ROUTE_PARAMS = {
    "zero": (0.0,),
    "positive": (0.3, 0.45, 0.6, 0.75, 0.9),
    "certified": (0.3, 0.5, 0.7, 0.9),
    "continuation": (0.2, 0.3, 0.4, 0.5),
}
# solve-mix: one problem per (graph, route, cells).  c = 0 runs from 192
# cells on, where the energy identity `kwnet verify` checks (exact only up to
# O(spacing^2)) meets its default tolerance; continuation stops at 192 cells,
# above which it stalls at the roundoff floor (ROADMAP item 1).
MIX_CELLS = {
    "zero": (192, 256, 320, 384),
    "positive": (32, 96, 192, 384),
    "certified": (32, 96, 192, 384),
    "continuation": (32, 64, 96, 192),
    "hneg": (32, 96, 192, 384),
}
# fine-mesh: refinement sweeps (star3 at 3072 cells is out: its c > 0 solve
# needs 14 s to fail)
FINE_CELLS = {"edge": (384, 768, 1536, 3072), "star3": (384, 768, 1536)}
FINE_STAR_VARIANT = 2
# threshold: one stored variant each; the seeded variants' threshold times
# differ by up to 2x, more than run-to-run noise may
THRESHOLD_VARIANT = {"star3": 2, "theta": 2}
FINE_ROUTES = ("zero", "positive", "certified", "continuation")
LINEAR_CELLS = (10_000, 100_000)
LINEAR_PRIMITIVES = ("solve_shifted", "solve_poisson_meanzero", "build_upper", "apply_residual")
MANY_CELLS = 32
MANY_GRAPHS = ("star100", "star1000", "tree300")
MANY_ROUTES = ("zero", "certified")
# many-edges: one stored variant per graph (c = 0 on the tree costs 0.3 to
# 1.9 s depending on the variant); the tree variant is one on which c = 0
# converges and passes `kwnet verify`
MANY_VARIANT = {"star100": 0, "star1000": 0, "tree300": 1}
# A converging draw slower than this multiple of its class's median (same
# graph, route and cells) converges only after near-stall iteration counts;
# timed workloads leave it out, since one such draw moves a pass by 10 %.
SLOW_FACTOR = 3.0
#: (table, route) -> cells at which make_reference.py records outcomes
VETTED_CELLS = {
    ("mix", "zero"): (32, 96) + MIX_CELLS["zero"],
    ("mix", "positive"): MIX_CELLS["positive"],
    ("mix", "continuation"): MIX_CELLS["continuation"] + (384,),
    ("many", "zero"): (MANY_CELLS,),
    ("many", "certified"): (MANY_CELLS,),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _pick(items: list, rng):
    return items[int(rng.integers(len(items)))]


# ---------------------------------------------------------------------------
# graphs and weights


def star_graph(n_leaves: int):
    """Hub 'o' with n_leaves edges; lengths spread over [0.6, 1.4]."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    vertices = ["o"] + [f"v{i}" for i in range(n_leaves)]
    edges = [(f"e{i}", "o", f"v{i}", 0.6 + 0.8 * ((i * golden) % 1.0))
             for i in range(n_leaves)]
    return vertices, edges


def random_tree(n_edges: int, rng: np.random.Generator):
    """Random recursive tree: vertex i joins a uniformly drawn earlier vertex."""
    vertices = [f"v{i}" for i in range(n_edges + 1)]
    parents = [int(rng.integers(i)) for i in range(1, n_edges + 1)]
    lengths = rng.uniform(0.5, 1.5, size=n_edges)
    edges = [(f"e{i}", f"v{p}", f"v{i + 1}", float(length))
             for i, (p, length) in enumerate(zip(parents, lengths))]
    return vertices, edges


def sign_changing_h(edges, rng: np.random.Generator) -> dict:
    """Per-edge expressions of a sign-changing h with int h = -delta |G|."""
    delta = rng.uniform(0.15, 0.3)
    b = rng.uniform(0.6, 1.4, size=len(edges))
    d = rng.uniform(-0.2, 0.2, size=len(edges))
    lengths = np.array([e[3] for e in edges])
    # int_0^L sin(pi s/L)^4 ds = 3L/8, and sin(2 pi s/L) integrates to 0
    a0 = -delta - 0.375 * float(b @ lengths) / float(lengths.sum())
    return {
        e[0]: f"{_num(a0)} + {_num(bj)}*sin(pi*s/{_num(e[3])})^4"
              f" + {_num(dj)}*sin(2*pi*s/{_num(e[3])})"
        for e, bj, dj in zip(edges, b, d)
    }


def nonpositive_h(edges, rng: np.random.Generator) -> dict:
    a = rng.uniform(0.2, 0.5)
    b = rng.uniform(0.0, 0.5, size=len(edges))
    return {e[0]: f"{_num(-a)} - {_num(bj)}*sin(pi*s/{_num(e[3])})^2"
            for e, bj in zip(edges, b)}


def small_variant_h(gname: str, vseed: int) -> dict:
    return sign_changing_h(SMALL_GRAPHS[gname][1], np.random.default_rng([vseed, 96]))


def many_edges_problem(gname: str, vseed: int):
    """(vertices, edges, h) of one stored many-edge variant."""
    rng = np.random.default_rng([vseed, 1000])
    if gname == "tree300":
        vertices, edges = random_tree(300, rng)
    else:
        vertices, edges = star_graph(int(gname[len("star"):]))
    return vertices, edges, sign_changing_h(edges, rng)


def h_digest(h: dict) -> str:
    return hashlib.sha1(json.dumps(h, sort_keys=True).encode()).hexdigest()[:16]


def problem_dict(vertices, edges, h, cells=None) -> dict:
    return {
        "vertices": list(vertices),
        "edges": [dict({"id": eid, "tail": t, "head": hd, "length": length},
                       **({} if cells is None else {"cells": cells}))
                  for eid, t, hd, length in edges],
        "h": h,
    }


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# c per route, and the checks that need the reference


def route_c(route: str, param: float, var: dict) -> float:
    """c of a vetted draw (see ROUTE_PARAMS)."""
    if route == "certified":
        return param * var["implied_c"]
    if route == "continuation":
        implied, fold = var["implied_c"], var["fold"][1]
        return implied + param * (fold - implied)
    return float(param)


def route_why(route: str, c: float, var: dict) -> str:
    if route == "zero":
        return "c = 0 with sign-changing h and int h < 0"
    if route == "positive":
        return "c > 0 with max h > 0"
    if route == "hneg":
        return "h <= 0, so every c < 0"
    if route == "certified":
        return f"implied_c {var['implied_c']:.6g} <= c < 0 (certified)"
    fold = var["fold"][1]
    if not fold < c < var["implied_c"]:
        raise ValueError(f"continuation c {c} not between the fold and implied_c")
    return f"oracle fold {fold:.6g} < c < implied_c {var['implied_c']:.6g}"


def vetted_rows(variants: list, route: str, cells: int, converged: bool = True) -> list:
    """(variant, parameter) rows whose recorded outcome is `converged`; the
    converging ones without near-stall draws (see SLOW_FACTOR)."""
    rows = [(var, p, seconds) for var in variants for n, p, ok, seconds in var["vetted"][route]
            if n == cells and ok == converged]
    if converged and rows:
        limit = SLOW_FACTOR * float(np.median([r[2] for r in rows]))
        rows = [r for r in rows if r[2] <= limit]
    return [(var, p) for var, p, _ in rows]


def vetted_draw(variants: list, route: str, cells: int, rng, converged: bool = True):
    """(variant, c, why) drawn among `vetted_rows`; None when there is none."""
    rows = vetted_rows(variants, route, cells, converged)
    if not rows:
        return None
    var, p = _pick(rows, rng)
    c = route_c(route, p, var)
    return var, c, route_why(route, c, var)


def check_bracket(c_lo, c_hi, fold, implied_c):
    """None when [c_lo, c_hi] holds the oracle fold to twice the default
    bracket width (1e-4 |implied_c|), else the reason it does not."""
    if c_lo is None or c_hi is None or not c_lo < c_hi < 0.0:
        return f"no finite bracket: [{c_lo}, {c_hi}]"
    slack = 2e-4 * abs(implied_c) + (fold[1] - fold[0])
    if not (c_lo - slack <= fold[0] and fold[1] <= c_hi + slack):
        return (f"bracket [{c_lo:.8g}, {c_hi:.8g}] misses the oracle fold "
                f"[{fold[0]:.8g}, {fold[1]:.8g}]")
    return None


# ---------------------------------------------------------------------------
# operations


class OpList:
    """Operations of one pass plus the inputs they read."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops = []
        self.arrays = {}  # in-memory inputs of library-call operations

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def solve_and_verify(self, name: str, problem: dict, c: float, why: str,
                         cells: int | None = None) -> None:
        """A `kwnet solve` operation followed by `kwnet verify` on its output."""
        prob = self.path(name + ".json")
        write_json(prob, problem)
        out = self.path(name)
        extra = [] if cells is None else ["--cells", str(cells)]
        self.ops.append({
            "kind": "solve", "name": name, "c": c, "expected": "solves: " + why,
            "argv": ["solve", prob, "--c", repr(c), "--out", out] + extra,
            "report": out + ".report", "csv": out + ".solution.csv",
        })
        self.ops.append({
            "kind": "verify", "name": name + ".verify", "c": c,
            "expected": "verify exits 0 on the solution",
            "argv": ["verify", prob, out + ".solution.csv", "--c", repr(c),
                     "--out", out] + extra,
            "report": out + ".verify", "solve": len(self.ops) - 1,
        })

    def threshold(self, name: str, problem: dict, var: dict) -> None:
        prob = self.path(name + ".json")
        write_json(prob, problem)
        out = self.path(name)
        self.ops.append({
            "kind": "threshold", "name": name,
            "expected": f"bracket holds the oracle fold {var['fold']}",
            "argv": ["threshold", prob, "--out", out],
            "report": out + ".threshold", "fold": var["fold"], "implied_c": var["implied_c"],
        })


def _variants(ref: dict, graph: str, cells: int) -> list:
    return [v for v in ref["variants"] if v["graph"] == graph and v["cells"] == cells]


def _failing_draws(ol: OpList, variants: list, route: str, cells_list, rng, name: str,
                   vertices, edges) -> None:
    """One failing draw per cell count that has one (known-defects)."""
    for cells in cells_list:
        draw = vetted_draw(variants, route, cells, rng, converged=False)
        if draw is not None:
            var, c, why = draw
            ol.solve_and_verify(f"{name}-{route}-{cells}", problem_dict(vertices, edges, var["h"]),
                                c, why, cells=cells)


def build_solve_mix(ol: OpList, rng, ref: dict) -> None:
    """100 small problems: 5 graphs x 5 routes x 4 cell counts, solve + verify."""
    for gname, (vertices, edges) in SMALL_GRAPHS.items():
        variants = _variants(ref, gname, 96)
        for route, cells_list in MIX_CELLS.items():
            for cells in cells_list:
                if ("mix", route) in VETTED_CELLS:
                    draw = vetted_draw(variants, route, cells, rng)
                    if draw is None:
                        raise RuntimeError(f"reference.json: no converging {route} "
                                           f"draw on {gname} at {cells} cells")
                    var, c, why = draw
                    h = var["h"]
                elif route == "hneg":
                    h, c = nonpositive_h(edges, rng), -float(rng.uniform(0.2, 2.0))
                    why = route_why(route, c, {})
                else:
                    var = _pick(variants, rng)
                    h, c = var["h"], float(rng.uniform(0.3, 0.9)) * var["implied_c"]
                    why = route_why(route, c, var)
                ol.solve_and_verify(f"{gname}-{route}-{cells}",
                                    problem_dict(vertices, edges, h, cells=cells), c, why)


def build_threshold(ol: OpList, rng, ref: dict) -> None:
    """`kwnet threshold` on the canonical problems, then solve_critical + verify."""
    edge_v, edge_e = SMALL_GRAPHS["edge"]
    ol.threshold("edge96", problem_dict(edge_v, edge_e, CANONICAL_H, cells=96),
                 ref["canonical"]["edge96"])
    for gname, cells in (("star3", 32), ("theta", 24)):
        vertices, edges = SMALL_GRAPHS[gname]
        var = next(v for v in _variants(ref, gname, cells)
                   if v["seed"] == THRESHOLD_VARIANT[gname])
        if not var["threshold_ok"]:
            raise RuntimeError(f"reference.json: the {gname} threshold variant fails its check")
        ol.threshold(f"{gname}-{cells}", problem_dict(vertices, edges, var["h"], cells=cells), var)
    # solve_critical on the 96-cell bracket the first threshold operation wrote
    ol.ops.append({
        "kind": "critical", "name": "edge96.critical", "problem": ol.path("edge96.json"),
        "bracket_from": ol.path("edge96.threshold"), "fold": ref["canonical"]["edge96"]["fold"],
        "expected": "critical descent converges inside the bracket",
        "csv": ol.path("edge96-critical.solution.csv"),
    })
    ol.ops.append({
        "kind": "verify", "name": "edge96.critical.verify", "c": None,
        "expected": "verify exits 0 on the critical solution at its c",
        "argv": ["verify", ol.path("edge96.json"), ol.path("edge96-critical.solution.csv"),
                 "--out", ol.path("edge96-critical")],
        "report": ol.path("edge96-critical.verify"), "solve": len(ol.ops) - 1,
    })


def build_fine_mesh(ol: OpList, rng, ref: dict) -> None:
    """Refinement sweeps on the edge and on star3, plus linear primitives.

    Every converging (route, cells, c) row of the sweep runs, so the solves
    are the same for every seed; the seed draws the linear primitives'
    inputs.  The failing rows are known defects.
    """
    for gname, cells_list in FINE_CELLS.items():
        vertices, edges = SMALL_GRAPHS[gname]
        var = ref["fine_mesh"][gname]
        problem = problem_dict(vertices, edges, var["h"])
        for route in FINE_ROUTES:
            for cells in cells_list:
                for _, p in vetted_rows([var], route, cells):
                    c = route_c(route, p, var)
                    ol.solve_and_verify(f"fine-{gname}-{route}-{cells}-{p}", problem,
                                        c, route_why(route, c, var), cells=cells)
    _build_linear(ol, rng)


def _build_linear(ol: OpList, rng) -> None:
    """Inputs of the linear-primitive operations, sampled through kwnet.graph."""
    import kwnet

    graph = kwnet.build_graph(["p", "q"], [("e1", "p", "q", 1.0)])
    for cells in LINEAR_CELLS:
        grid = kwnet.build_grid(graph, cells)
        k0, k1, f1, f2 = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.4), \
            rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.4)
        eps, c = rng.uniform(-0.05, 0.05), -float(rng.uniform(0.01, 0.05))
        k = kwnet.sample_function(grid, lambda s: k0 + k1 * math.sin(3.0 * s) ** 2)
        rhs = kwnet.sample_function(grid, lambda s: f1 * math.cos(2.0 * math.pi * s) + f2 * s)
        # mean-zero copy for the pure-flux Poisson problem
        w = grid.weights
        flux = kwnet.GridFunction(grid, rhs.values - float(w @ rhs.values) / grid.total_length)
        h = kwnet.sample_function(
            grid, lambda s: math.cos(math.pi * s) - 0.1 + eps * math.sin(math.pi * s))
        u = kwnet.sample_function(grid, lambda s: 0.3 * math.sin(2.0 * math.pi * s) - 1.0)
        ol.arrays[cells] = {"grid": grid, "k": k, "rhs": rhs, "flux": flux, "h": h, "u": u, "c": c}
        for prim in LINEAR_PRIMITIVES:
            ol.ops.append({"kind": "linear", "name": f"{prim}-{cells}", "primitive": prim,
                           "cells": cells, "expected": "own residual below 1e-9 relative"})


def _many_variants(ref: dict, gname: str, only: int | None = None) -> list:
    """Stored variants of a many-edge graph (only the one with seed `only`)."""
    out = []
    for var in ref["many_edges"]:
        if var["graph"] == gname and only in (None, var["seed"]):
            vertices, edges, h = many_edges_problem(gname, var["seed"])
            if h_digest(h) != var["h_sha1"]:
                raise RuntimeError(f"reference.json does not match the {gname} generator")
            out.append(dict(var, vertices=vertices, edges=edges, h=h))
    return out


def build_many_edges(ol: OpList, rng, ref: dict) -> None:
    """32 cells per edge on 100- and 1000-edge stars and a random 300-edge tree.

    c = 0 on the stars fails `kwnet verify` (its energy identity misses the
    tolerance many times over) and c > 0 on the 100-edge star stalls at a
    residual of 1.7e-3: both are known defects.  c > 0 on the tree and on
    the 1000-edge star is out: it takes 7.5 s and 55 s to fail.
    """
    for gname in MANY_GRAPHS:
        variants = _many_variants(ref, gname, MANY_VARIANT[gname])
        for route in MANY_ROUTES:
            draw = vetted_draw(variants, route, MANY_CELLS, rng)
            if draw is not None:
                var, c, why = draw
                ol.solve_and_verify(f"{gname}-{route}", problem_dict(
                    var["vertices"], var["edges"], var["h"], cells=MANY_CELLS), c, why)
    vertices, edges = star_graph(1000)
    c = -float(rng.uniform(0.4, 0.6))
    ol.solve_and_verify("star1000-hneg", problem_dict(
        vertices, edges, nonpositive_h(edges, rng), cells=MANY_CELLS), c, route_why("hneg", c, {}))


def build_known_defects(ol: OpList, rng, ref: dict) -> None:
    """Operations that fail at this code base: the 768-cell threshold bracket
    (ROADMAP item 1), and one failing draw for every route and cell count the
    other workloads leave out because it fails."""
    edge_v, edge_e = SMALL_GRAPHS["edge"]
    ol.threshold("edge768", problem_dict(edge_v, edge_e, CANONICAL_H, cells=768),
                 ref["canonical"]["edge768"])
    for gname, cells in (("star3", 32), ("theta", 24)):
        vertices, edges = SMALL_GRAPHS[gname]
        for var in _variants(ref, gname, cells):
            if not var["threshold_ok"]:
                ol.threshold(f"{gname}-{cells}-v{var['seed']}",
                             problem_dict(vertices, edges, var["h"], cells=cells), var)
    for gname, (vertices, edges) in SMALL_GRAPHS.items():
        for (table, route), cells_list in VETTED_CELLS.items():
            if table == "mix":
                _failing_draws(ol, _variants(ref, gname, 96), route, cells_list, rng,
                               f"mix-{gname}", vertices, edges)
    for gname, cells_list in FINE_CELLS.items():
        vertices, edges = SMALL_GRAPHS[gname]
        for route in FINE_ROUTES:
            _failing_draws(ol, [ref["fine_mesh"][gname]], route, cells_list, rng,
                           f"fine-{gname}", vertices, edges)
    for gname in MANY_GRAPHS:
        variants = _many_variants(ref, gname)
        for route in MANY_ROUTES:
            draw = vetted_draw(variants, route, MANY_CELLS, rng, converged=False)
            if draw is not None:
                var, c, why = draw
                ol.solve_and_verify(f"{gname}-{route}", problem_dict(
                    var["vertices"], var["edges"], var["h"], cells=MANY_CELLS), c, why)
    var = _pick(_many_variants(ref, "star100"), rng)
    c = float(rng.uniform(0.3, 1.0))
    ol.solve_and_verify("star100-positive", problem_dict(
        var["vertices"], var["edges"], var["h"], cells=MANY_CELLS), c,
        route_why("positive", c, var))


BUILDERS = {
    "solve-mix": build_solve_mix,
    "threshold": build_threshold,
    "fine-mesh": build_fine_mesh,
    "many-edges": build_many_edges,
    "known-defects": build_known_defects,
}


def generate(workload: str, seed: int, workdir: str) -> OpList:
    """Write the workload's inputs under workdir and return its operations."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(workload)])
    ol = OpList(workdir)
    BUILDERS[workload](ol, rng, load_reference())
    write_json(ol.path("manifest.json"),
               [{k: v for k, v in op.items() if k != "argv"} for op in ol.ops])
    return ol
