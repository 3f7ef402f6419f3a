"""Spans around kwnet's public functions and SuperLU, installed from outside.

``Tracer.install()`` replaces every public function of the package's modules
with a timing wrapper, in every kwnet namespace that bound it by name (``cli``
and ``solvers`` import ``solve_negative``, ``shifted_solver`` and friends
directly; ``estimate_threshold`` reaches ``solve_negative`` through the
``solvers`` globals).  ``scipy.sparse.linalg.splu`` is wrapped as well and its
LU object proxied, so each factorization and each LU solve is a span of the
``linalg`` layer.

A span records (operation, name, start, end, parent).  Spans are kept in
memory while the run lasts and written out when it ends.  Counters come from
the ``SolveReport`` and ``ThresholdEstimate`` objects the wrapped calls
return, and from the exceptions they raise.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("graph", "problemfile", "assembly", "solvers", "verify", "cli")


class _TracedLU:
    """Proxy of a SuperLU object whose ``solve`` is a span."""

    def __init__(self, tracer: "Tracer", lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("linalg.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.op = None  # spans are recorded only inside an operation
        self.spans = []  # [op, name, start, end, parent index, error]
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        span = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        self._observe(span, result)
        return result

    def _observe(self, span, result) -> None:
        """Keep the counters a returned report carries on its span."""
        name = span[1]
        if name == "linalg.splu":
            return
        report = getattr(result, "report", None)
        if report is not None:
            span.append({"method": report.method, "iterations": report.iterations,
                         "newton_tail": report.details.get("newton_tail")})
        elif name == "solvers.estimate_threshold":
            span.append({"probes": result.details.get("probes", 0)})

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import importlib

        import scipy.sparse.linalg as spla

        import kwnet

        modules = {layer: importlib.import_module(f"kwnet.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in [kwnet, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, name, wrapped[value])

        splu = spla.splu

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            return _TracedLU(self, self.call("linalg.splu", splu, args, kwargs))

        self._patch(spla, "splu", traced_splu)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _patch(self, mod, name, value) -> None:
        self._restore.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, error, *extra in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent, "error": error,
                                     **(extra[0] if extra else {})}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer figures per pass: self time, calls, counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        for s, kids in zip(spans, child_time):
            layer = s[1].split(".")[0]
            self_s[layer] += (s[3] - s[2]) - kids
            incl_s[s[1]] += s[3] - s[2]
            calls[s[1]] += 1
            calls[layer] += 1
            errors[s[1]] += s[5] is not None

        def extras(name):
            return [s[6] for s in spans if s[1] == name and len(s) > 6]

        monotone = extras("solvers.monotone_iterate")
        gradient = extras("solvers.solve_zero") + extras("solvers.solve_positive")
        probes_ok = probes = 0
        for i, s in enumerate(spans):
            if s[1] == "solvers.solve_negative" and self._under(i, "solvers.estimate_threshold"):
                probes += 1
                probes_ok += s[5] is None
        n = float(passes)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] / n, "s")
        out["linalg.self_s"] = (self_s["linalg"] / n, "s")
        for layer in ("graph", "problemfile"):
            out[f"{layer}.calls"] = (calls[layer] / n, "count")
        for name in ("graph.sample_function", "graph.build_grid",
                     "assembly.assemble_stiffness", "assembly.shifted_solver",
                     "assembly.solve_poisson_meanzero", "assembly.apply_residual",
                     "linalg.splu", "linalg.lu_solve",
                     "solvers.build_upper", "solvers.estimate_threshold",
                     "solvers.solve_critical", "verify.identity_report"):
            out[f"{name}.s"] = (incl_s[name] / n, "s")
        for name in ("assembly.assemble_stiffness", "assembly.shifted_solver",
                     "linalg.splu", "linalg.lu_solve", "solvers.solve_negative",
                     "solvers.monotone_iterate"):
            out[f"{name}.calls"] = (calls[name] / n, "count")
        out["linalg.splu.errors"] = (errors["linalg.splu"] / n, "count")
        out["solvers.solve_negative.failed"] = (errors["solvers.solve_negative"] / n, "count")
        out["solvers.threshold_probes"] = (
            sum(e["probes"] for e in extras("solvers.estimate_threshold")) / n, "count")
        out["solvers.probe_ok_ratio"] = (probes_ok / probes if probes else 0.0, "ratio")
        out["solvers.monotone_sweeps"] = (sum(e["iterations"] for e in monotone) / n, "count")
        out["solvers.gradient_iters"] = (sum(e["iterations"] for e in gradient) / n, "count")
        out["solvers.newton_tail_ratio"] = (
            sum(bool(e["newton_tail"]) for e in monotone) / len(monotone) if monotone else 0.0,
            "ratio")
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False
