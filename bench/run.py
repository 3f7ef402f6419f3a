"""kwnet benchmark: seeded workloads driven through ``kwnet.cli.main`` in-process.

Usage, from the repository root:

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 15 --trace 0

One client runs a closed loop: the next operation starts when the previous
one has finished, with BLAS pinned to one thread.  A pass is the workload's
list of operations; passes repeat until ``--seconds`` have elapsed (at least
one pass runs).  Every operation's output is checked, and an operation that
raises or fails its check counts as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones that BENCHMARK.json declares; with ``--trace 1``
untraced and traced passes alternate, and the metrics are per-layer figures
per traced pass plus the tracing overhead.  The lines before it print every
metric with its unit, including the ones that exist only for some workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("solve-mix", "threshold", "fine-mesh", "many-edges", "known-defects")
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
# Host speed: a fixed kernel that shares no code with kwnet is timed between
# operations, at most every CAL_INTERVAL seconds.  On shared virtual machines
# the speed of one core drifts by 30 % over seconds to minutes; gated times
# are scaled to the kernel's reference time CAL_REF_S (its median on a
# 2-vCPU Xeon host), and the raw times are printed beside them.
CAL_INTERVAL = 0.5
CAL_REF_S = 0.020


def _kernel_seconds() -> float:
    """One timing of the calibration kernel: a Python loop, numpy sorts, and
    sparse "K + diag" builds with direct solves, the mix kwnet spends on."""
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    data = np.random.default_rng(0).random(50_000)
    n = 300
    K = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    for _ in range(8):
        np.sort(data)
    for k in range(20):
        spsolve((K + sparse.diags(np.full(n, 1.0 + k))).tocsc(), data[:n])
    return time.perf_counter() - t0


class Speed:
    """The host's speed relative to the reference, from recent kernel timings."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(_kernel_seconds())
        self.last = time.perf_counter()

    def factor(self, recent: int = 3) -> float:
        """CAL_REF_S over the median of the last `recent` kernel timings,
        taking a new one when the last is older than CAL_INTERVAL."""
        if time.perf_counter() - self.last >= CAL_INTERVAL:
            self.sample()
        return CAL_REF_S / statistics.median(self.samples[-recent:])


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_kwnet():
    """Import kwnet from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kwnet", "__init__.py")):
        raise SystemExit(f"bench: no kwnet sources under {src}; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    import kwnet

    if os.path.dirname(os.path.dirname(os.path.abspath(kwnet.__file__))) != src:
        raise SystemExit(f"bench: imported kwnet from {kwnet.__file__}, not {src}")
    return kwnet


def _setup_child(args) -> int:
    _import_kwnet()
    import problems

    problems.generate(args.workload, args.seed, args.setup_only)
    return 0


def measure_setup(args) -> tuple:
    """Median time of a fresh interpreter importing kwnet and writing the
    inputs: (scaled to the reference speed, raw)."""
    speed = Speed()
    times, scaled = [], []
    for i in range(SETUP_REPEATS):
        target = os.path.join(WORK, f"setup-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", target]
        speed.sample(3)
        before = speed.factor()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        speed.sample(3)
        scaled.append(times[-1] * 0.5 * (before + speed.factor()))
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{proc.stderr}")
    return statistics.median(scaled), statistics.median(times)


# ---------------------------------------------------------------------------
# operations and their checks


class Runner:
    def __init__(self, kwnet, problems, oplist):
        self.kwnet = kwnet
        self.problems = problems
        self.ol = oplist
        self.tracer = None
        self.speed = Speed()

    def run_pass(self, pass_no: int) -> list:
        results = []
        for index, op in enumerate(self.ol.ops):
            results.append(self.run_op(op, results, f"{pass_no}:{index}"))
        # a solve passes only if the verify run on its output passes too
        for op, res in zip(self.ol.ops, results):
            if op["kind"] == "verify" and not res["ok"]:
                solve = results[op["solve"]]
                if solve["ok"]:
                    solve["ok"], solve["why"] = False, "verify failed: " + res["why"]
        return results

    def run_op(self, op: dict, done: list, op_id: str) -> dict:
        prepared = self.prepare(op, done)
        out, err = io.StringIO(), io.StringIO()
        error = None
        factor = self.speed.factor()
        if self.tracer is not None:
            self.tracer.op = op_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                value = self.execute(op, prepared)
        except Exception as exc:  # an operation that raises still took its time
            value, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op = None
        if elapsed >= CAL_INTERVAL:  # the speed may have moved during a long operation
            self.speed.sample(3)
            factor = 0.5 * (factor + self.speed.factor())
        res = {"name": op["name"], "kind": op["kind"], "seconds": elapsed,
               "scaled": elapsed * factor,
               "stdout": out.getvalue(), "stderr": err.getvalue()}
        if error is not None:
            res["ok"], res["why"] = False, "raised " + error
        else:
            try:
                res["why"] = self.check(op, prepared, value, res)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                res["why"] = f"check could not read the output: {exc!r}"
            res["ok"] = res["why"] is None
        res["bytes_out"] = len(res.pop("stdout").encode()) + len(res.pop("stderr").encode()) + sum(
            os.path.getsize(p) for p in (op.get("report"), op.get("csv"))
            if op["kind"] != "linear" and p and os.path.exists(p))
        return res

    def prepare(self, op: dict, done: list):
        kind = op["kind"]
        for key in ("report", "csv"):
            if op.get(key) and os.path.exists(op[key]):
                os.remove(op[key])  # no stale output from an earlier pass
        if kind == "critical":
            spec = self.kwnet.load_problem(op["problem"])
            try:
                with open(op["bracket_from"], encoding="utf-8") as fh:
                    b = json.load(fh)
                lo, hi = b["c_lo"], b["c_hi"]
            except (OSError, ValueError, KeyError):
                lo, hi = op["fold"]  # the threshold operation failed; use the reference
            est = self.kwnet.ThresholdEstimate(minus_infinity=False, c_lo=lo, c_hi=hi,
                                               analytic_upper_bound=None)
            return spec, est
        if kind == "linear":
            return self.ol.arrays[op["cells"]]
        if kind == "verify" and op["c"] is None:
            # the critical solution's c is known only once it has run
            c_final = done[op["solve"]].get("c_final")
            return op["argv"] + ([] if c_final is None else ["--c", repr(c_final)])
        return op.get("argv")

    def execute(self, op: dict, prepared):
        kind = op["kind"]
        if kind in ("solve", "verify", "threshold"):
            return self.kwnet.cli.main(prepared)
        if kind == "critical":
            spec, est = prepared
            return self.kwnet.solve_critical(spec.h, est)
        a = prepared
        prim = op["primitive"]
        if prim == "solve_shifted":
            return self.kwnet.solve_shifted(a["grid"], a["k"], a["rhs"])
        if prim == "solve_poisson_meanzero":
            return self.kwnet.solve_poisson_meanzero(a["grid"], a["flux"])
        if prim == "build_upper":
            return self.kwnet.build_upper(a["h"])
        return self.kwnet.apply_residual(a["u"], a["h"], a["c"])

    def check(self, op: dict, prepared, value, res):
        """None when the output is right, else the reason it is not."""
        kind = op["kind"]
        if kind == "verify" and value in (0, 4):  # 4: kwnet verify found defects
            payload = json.loads(res["stdout"])
            bad = [f"{name} {c['value']:.3g} > {c['bound']:.3g}"
                   for name, c in payload["checks"].items() if not c["ok"]]
            return None if value == 0 and not bad else "verify: " + ", ".join(
                bad or [payload["status"]])
        if kind in ("solve", "verify", "threshold") and value != 0:
            text = " ".join((res["stdout"] + res["stderr"]).split())
            return f"exit code {value}: {text[-200:]}"
        if kind == "solve":
            with open(op["report"], encoding="utf-8") as fh:
                report = json.load(fh)
            bound = self.problems.SOLVE_TOL * (1.0 + abs(op["c"]))
            if not report["final_residual"] <= bound:
                return f"final_residual {report['final_residual']:.3e} > {bound:.3e}"
            return None
        if kind == "threshold":
            with open(op["report"], encoding="utf-8") as fh:
                out = json.load(fh)
            return self.problems.check_bracket(out["c_lo"], out["c_hi"], op["fold"], op["implied_c"])
        if kind == "critical":
            return self.check_critical(op, prepared, value, res)
        return check_linear(op["primitive"], prepared, value)

    def check_critical(self, op, prepared, sol, res):
        spec, est = prepared
        c_final = res["c_final"] = sol.report.details["c_final"]
        if not est.c_lo <= c_final <= est.c_hi:
            return f"c_final {c_final} outside the bracket [{est.c_lo}, {est.c_hi}]"
        # write the solution for the verify operation that follows
        grid = spec.grid
        with open(op["csv"], "w", encoding="utf-8") as fh:
            fh.write("edge_id,s,u\n")
            for edge in spec.graph.edges:
                for s, u in zip(grid.edge_coords(edge.id), sol.u.edge_values(edge.id)):
                    fh.write(f"{edge.id},{float(s)!r},{float(u)!r}\n")
        return None


def _edge_operators(grid):
    """The benchmark's own K and trapezoid weights on a single uniform edge."""
    import numpy as np
    from scipy import sparse

    (eid,) = grid.cells_per_edge
    n, dx = grid.cells_per_edge[eid], grid.spacing[eid]
    main = np.full(n + 1, 2.0 / dx)
    main[[0, -1]] = 1.0 / dx
    K = sparse.diags([np.full(n, -1.0 / dx), main, np.full(n, -1.0 / dx)], [-1, 0, 1], format="csr")
    w = np.full(n + 1, dx)
    w[[0, -1]] = dx / 2.0
    return K, w, np.asarray(grid.edge_dofs[eid]), 4.0 / dx


def check_linear(prim: str, a: dict, value):
    import numpy as np

    K, w, order, knorm = _edge_operators(a["grid"])

    def nodes(f):
        return f.values[order]

    def small(resid, scale, what):
        err = float(np.max(np.abs(resid)))
        return None if err <= 1e-9 * scale else f"{what} residual {err:.3e} vs scale {scale:.3e}"

    if prim == "solve_shifted":
        u, k, rhs = nodes(value), nodes(a["k"]), nodes(a["rhs"])
        scale = knorm * float(np.max(np.abs(u))) + float(np.max(np.abs(w * rhs)))
        return small(K @ u + w * k * u + w * rhs, scale, "(K + M_k) u + M rhs")
    if prim == "solve_poisson_meanzero":
        m, f = nodes(value), nodes(a["flux"])
        scale = knorm * float(np.max(np.abs(m))) + float(np.max(np.abs(w * f)))
        return (small(K @ m + w * f, scale, "K m + M rhs")
                or small(np.array([w @ m]), float(w @ np.abs(m)), "mean of m"))
    if prim == "build_upper":
        h, m = nodes(a["h"]), nodes(value.m)
        hbar = float(w @ h) / float(w.sum())
        scale = knorm * float(np.max(np.abs(m))) + float(np.max(np.abs(w * h)))
        bad = small(K @ m + w * (hbar - h), scale, "K m + M (mean h - h)")
        if bad:
            return bad
        up, c = value.a * m + value.b, value.implied_c
        defect = (K @ up + c * w - w * h * np.exp(up)) / w
        floor = -1e-8 * (1.0 + abs(c) + float(np.max(np.abs(h))) * math.exp(float(np.max(up))))
        if not c < 0.0 or float(np.min(defect)) < floor:
            return f"u+ is not an upper solution at implied_c {c}"
        return None
    u, h = nodes(a["u"]), nodes(a["h"])
    own = K @ u + a["c"] * w - w * h * np.exp(u)
    return small(value.residual[order] - own, knorm * float(np.max(np.abs(u))), "apply_residual")


# ---------------------------------------------------------------------------
# metrics


def _median_ms(results, kinds=None):
    vals = [r["seconds"] for r in results if kinds is None or r["kind"] in kinds]
    return statistics.median(vals) * 1e3 if vals else None


def wall(passes: list, key: str = "scaled") -> float:
    """Time of one pass: per operation the median over passes, summed, so
    that one slow pass moves it less than a total would."""
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])))


def end_to_end(passes: list, setup: tuple) -> tuple:
    """(metrics BENCHMARK.json may declare, the other printed figures)."""
    flat = [r for p in passes for r in p]
    passed = sum(r["ok"] for r in flat)
    out = {
        "setup_s": (setup[0], "s"),
        "wall_s": (wall(passes), "s"),
        "ops_per_s": (passed / sum(r["scaled"] for r in flat), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # raw (unscaled) times, and figures that exist only where the workload
    # runs the operation kind; printed, not part of the JSON line
    extra = {
        "setup_raw_s": (setup[1], "s"),
        "wall_raw_s": (wall(passes, "seconds"), "s"),
        "ops_per_raw_s": (passed / sum(r["seconds"] for r in flat), "1/s"),
        "speed_factor": (statistics.median(r["scaled"] / r["seconds"] for r in flat), "ratio"),
        "op_p50_ms": (_median_ms(flat), "ms"),
        "fail_frac": (1.0 - passed / len(flat), "ratio"),
    }
    if len(flat) >= P90_MIN_OPS:
        times = sorted(r["seconds"] for r in flat)
        extra["op_p90_ms"] = (statistics.quantiles(times, n=10)[-1] * 1e3, "ms")
    for name, kinds, scale, unit in (("solve_p50_ms", ("solve",), 1.0, "ms"),
                                     ("verify_p50_ms", ("verify",), 1.0, "ms"),
                                     ("threshold_s", ("threshold",), 1e-3, "s"),
                                     ("critical_s", ("critical",), 1e-3, "s"),
                                     ("linear_p50_ms", ("linear",), 1.0, "ms")):
        value = _median_ms(flat, kinds)
        if value is not None:
            extra[name] = (value * scale, unit)
    return out, extra


def run_passes(runner: Runner, seconds: float) -> list:
    """Whole passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(len(passes)))
    return passes


def traced_passes(runner: Runner, seconds: float) -> tuple:
    """Untraced and traced passes in turn until 2 x `seconds` have elapsed,
    so that both see the same warm caches and the same machine load."""
    from spans import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < 2.0 * seconds:
        untraced.append(runner.run_pass(len(untraced)))
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(runner.run_pass(len(traced)))
        finally:
            runner.tracer = None
            tracer.uninstall()
    return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_threads()
    sys.path.insert(0, HERE)
    if args.setup_only:
        return _setup_child(args)

    _import_kwnet()  # fail before any set-up work when the sources are missing
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = measure_setup(args)
        kwnet = _import_kwnet()
        import kwnet.cli  # noqa: F401  (the operations call kwnet.cli.main)
        import problems

        runner = Runner(kwnet, problems, problems.generate(args.workload, args.seed, workdir))
        if args.trace:
            passes, traced, tracer = traced_passes(runner, args.seconds)
            e2e, extra = end_to_end(passes, setup)
            metrics = tracer.layer_metrics(len(traced))
            metrics["cli.bytes_out"] = (sum(r["bytes_out"] for p in traced for r in p)
                                        / len(traced), "B")
            metrics["trace.overhead_ratio"] = (wall(traced) / wall(passes), "ratio")
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            passes = passes + traced
        else:
            passes = run_passes(runner, args.seconds)
            e2e, extra = end_to_end(passes, setup)
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flat = [r for p in passes for r in p]
    failed = [r for r in flat if not r["ok"]]
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"metrics": dict(e2e, **extra, **metrics), "passes": passes}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {len(flat)}  failed {len(failed)}")
    shown = metrics if args.trace else dict(e2e, **extra)
    for name, (value, unit) in shown.items():
        samples = f"  ({len(flat)} operations)" if name == "op_p90_ms" else ""
        print(f"  {name:34s} {value:14.6g} {unit}{samples}")
    for r in failed[:20]:
        print(f"  FAILED {r['name']}: {r['why']}")
    declared = _declared(args.trace)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0


def _declared(trace: int) -> list:
    """Names of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
