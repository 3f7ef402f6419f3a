"""c > 0: coercive minimization; solutions carry multiplier 1."""

import math
import time

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    apply_residual,
    constant,
    integrate,
    sample_function,
    solve,
    solve_positive,
)
from kwnet import solvers
from kwnet.errors import NoConvergence, NotSolvable
from kwnet.problemfile import parse_problem
from helpers import make_path3, make_single, make_theta, random_h_positive_somewhere


def test_constant_solution_exact():
    grid = make_single(cells=64)
    sol = solve_positive(constant(grid, 2.0), 1.0)
    assert np.max(np.abs(sol.u.values - math.log(0.5))) <= 1e-12


def test_sign_changing_h_converges():
    grid = make_single(cells=128)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.05)
    c = 0.8
    sol = solve_positive(h, c)
    assert sol.report.final_residual <= 1e-8 * (1 + c)
    assert sol.report.multiplier == 1.0
    mass = integrate(GridFunction(h.grid, h.values * np.exp(sol.u.values)))
    assert mass == pytest.approx(c * grid.total_length, abs=1e-7)


def test_negative_integral_still_fine():
    # c > 0 only needs max h > 0; a strongly negative integral is allowed
    grid = make_path3(cells=48)
    # one global profile expressed in each edge's local coordinate: a bump at
    # the path's first endpoint and -1 elsewhere
    offsets = {"e1": 0.0, "e2": 1.0, "e3": 1.6}
    h = sample_function(grid, {
        eid: (lambda s, o=o: -1.0 + 2.2 * math.exp(-14.0 * (s + o) ** 2))
        for eid, o in offsets.items()
    })
    assert integrate(h) < 0 and float(np.max(h.values)) > 0
    sol = solve_positive(h, 1.3)
    assert apply_residual(sol.u, h, 1.3).weak_residual_norm <= 1e-8 * 2.3


def test_random_instances(rng):
    grid = make_theta(cells=24)
    for _ in range(3):
        h = random_h_positive_somewhere(grid, rng)
        c = float(10 ** rng.uniform(-1.0, 0.5))
        sol = solve_positive(h, c, tol=1e-9)
        assert sol.report.final_residual <= 1e-9 * (1 + c)


def test_refuses_nonpositive_h():
    grid = make_single(cells=32)
    with pytest.raises(NotSolvable):
        solve_positive(constant(grid, -0.5), 1.0)
    with pytest.raises(NotSolvable):
        solve(constant(grid, 0.0), 2.0)


def test_requires_positive_c():
    grid = make_single(cells=16)
    with pytest.raises(ValueError):
        solve_positive(constant(grid, 1.0), -1.0)


def test_stalled_descent_finishes_with_newton():
    # on this theta graph the energy descent stops moving near a residual of
    # 1e-4, where the energy no longer resolves a decrease; the Newton tail
    # has to finish the solve from there
    edges = [("e1", 1.0, "1.15190661161", "-0.0352299244208"),
             ("e2", 1.3, "1.37495240034", "-0.151154364664"),
             ("e3", 0.9, "0.937393857326", "0.140325571416")]
    spec = parse_problem({
        "vertices": ["a", "b"],
        "edges": [{"id": eid, "tail": "a", "head": "b", "length": length, "cells": 384}
                  for eid, length, _, _ in edges],
        "h": {eid: f"-0.705609976281 + {a}*sin(pi*s/{length})^4 + {b}*sin(2*pi*s/{length})"
              for eid, length, a, b in edges},
    })
    sol = solve_positive(spec.h, 0.3)
    assert sol.report.final_residual <= 1e-8 * 1.3
    assert sol.report.iterations < 1000


# h of a 100-edge star, 32 cells per edge: -0.546160512546 + b_j sin(pi s/L_j)^4
# + d_j sin(2 pi s/L_j) on edge j, with L_j = 0.6 + 0.8 frac(j (sqrt(5) - 1) / 2)
STAR100_B = (
    1.09088853974, 0.94802424318, 0.619915617053, 0.874351940935, 0.8076510926,
    1.19363051785, 0.6567540288, 0.95525642503, 1.148431715, 1.14752118129,
    0.945724961597, 1.30648394763, 1.36075118765, 0.836692603315, 0.955495496832,
    1.00927933555, 0.94820812873, 0.632058084173, 0.660626133386, 1.24606868412,
    0.640014051467, 0.858266411314, 1.05338324409, 1.28199481431, 0.636243049084,
    0.713424159698, 0.804027135153, 1.29139570902, 0.869661138179, 1.21111869712,
    1.19224169507, 1.19214191748, 1.09247528321, 0.650182969191, 1.17087247591,
    0.683376870435, 1.37204731695, 1.26604138818, 0.887990587369, 1.39089198113,
    1.01925760309, 1.30706697574, 0.975517849078, 0.669123879871, 1.10089927475,
    1.30330743091, 0.859327177864, 1.26544836249, 0.791483596287, 0.681670956135,
    0.614788243694, 0.602952910061, 0.93731380945, 0.954085757338, 1.06039656596,
    0.672399070143, 1.29313915525, 0.973670996879, 0.917496972248, 0.981569747625,
    1.07638885641, 0.714524586255, 0.920494819745, 1.24831266446, 0.833213349474,
    0.679660278912, 1.38942475608, 1.06798270086, 0.656224811661, 0.770928314951,
    1.39049064113, 0.639485325107, 1.15919813392, 0.866992680917, 1.18916292492,
    0.668153062378, 1.26942303953, 0.887835397914, 1.26951769245, 0.973535013871,
    1.35731378824, 0.774502934657, 1.1703544432, 0.820459436177, 1.37599457675,
    1.312683913, 1.1738860123, 1.05209709137, 1.24845335038, 0.950808557118,
    0.827238737684, 1.21919927864, 1.34690027793, 1.05101169178, 1.25710891256,
    0.856070610751, 1.04492021409, 0.659566268821, 1.22441839617, 1.18203893713,
)
STAR100_D = (
    -0.0663835720085, 0.108942606856, -0.0196597434563, 0.0448081070426, 0.13205171697,
    -0.014929450777, 0.0495945319102, -0.0479092223135, -0.0988495310497,
    0.119098666992, -0.164953159062, 0.0620158753937, -0.121326092861, -0.14325230583,
    0.0845724591013, -0.0959903222553, -0.114659863441, -0.17891251164, 0.163796379937,
    -0.0564466940172, 0.0412110696679, 0.193026684368, -0.15045689042, 0.105804291995,
    -0.0428392274209, -0.0672807728272, 0.152612751106, -0.0555747259481,
    0.091326815133, -0.0841632820807, -0.077129932712, 0.148373978538, -0.0415372245676,
    -0.170265253926, -0.0947894624842, -0.183974179887, 0.0190116697081,
    0.0425222191976, 0.00520694086209, 0.129239073917, 0.125798937458, -0.13278452091,
    0.174781616793, 0.00547057486119, 0.19265284784, -0.103981867756, -0.0403313942029,
    -0.11732643085, 0.100889898321, 0.0291360944014, 0.101775243031, -0.0734913631924,
    0.0250934889541, -0.0819133177529, -0.125914484373, 0.005495200662, -0.122733697735,
    -0.0845720860335, 0.128208387313, 0.0270519522186, 0.120358733973, -0.0231586070866,
    -0.0800214805288, -0.145548856391, 0.143971301184, -0.121053010422, 0.0207887658086,
    -0.0959621141674, 0.098323143929, -0.167286849014, 0.155104692784, 0.149255324496,
    0.169415981392, -0.109066423516, -0.0887788275106, 0.171663295967, 0.172925175878,
    -0.143164112938, -0.0694266798115, 0.0858536458247, -0.0248023002103,
    0.159226223298, 0.0282698091891, -0.0876550899187, -0.0839535338784, 0.182174581707,
    -0.135335396106, -0.113876815743, 0.112167549795, 0.0998956415073, 0.146524398287,
    -0.113814239318, -0.191704667364, 0.0655536892488, 0.140334348017, -0.0401779907965,
    -0.0700784675999, 0.190963241176, -0.0159806641145, -0.125848577829,
)


def _star100_spec():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lengths = [0.6 + 0.8 * ((j * golden) % 1.0) for j in range(100)]
    return parse_problem({
        "vertices": ["o"] + [f"v{j}" for j in range(100)],
        "edges": [{"id": f"e{j}", "tail": "o", "head": f"v{j}", "length": length, "cells": 32}
                  for j, length in enumerate(lengths)],
        "h": {f"e{j}": f"-0.546160512546 + {b}*sin(pi*s/{length:.12g})^4"
                       f" + {d}*sin(2*pi*s/{length:.12g})"
              for j, (length, b, d) in enumerate(zip(lengths, STAR100_B, STAR100_D))},
    })


def test_star100_converges_within_budget():
    # the Riesz gradient crawls here (residual 2e-3 after 5000 iterations);
    # a Newton finish taken well before the residual is small converges
    spec = _star100_spec()
    c = 0.6873428373037676
    start = time.perf_counter()
    sol = solve_positive(spec.h, c)
    assert time.perf_counter() - start < 3.0
    assert sol.report.final_residual <= 1e-8 * (1 + c)
    assert apply_residual(sol.u, spec.h, c).weak_residual_norm <= 1e-8 * (1 + c)


def test_fine_star3_converges_at_1536_cells():
    # a Newton finish aimed below tol stalled at 4.5e-6 on this mesh
    edges = [("e1", 1.0, "1.15190661161", "-0.0352299244208"),
             ("e2", 1.5, "1.37495240034", "-0.151154364664"),
             ("e3", 0.7, "0.937393857326", "0.140325571416")]
    spec = parse_problem({
        "vertices": ["o", "p", "q", "r"],
        "edges": [{"id": eid, "tail": "o", "head": head, "length": length, "cells": 1536}
                  for (eid, length, _, _), head in zip(edges, "pqr")],
        "h": {eid: f"-0.715865254633 + {a}*sin(pi*s/{length})^4 + {b}*sin(2*pi*s/{length})"
              for eid, length, a, b in edges},
    })
    sol = solve_positive(spec.h, 0.45)
    assert sol.report.final_residual <= 1e-8 * 1.45
    assert apply_residual(sol.u, spec.h, 0.45).weak_residual_norm <= 1e-8 * 1.45


def _positive_problems(rng):
    grid = make_single(cells=128)
    yield sample_function(grid, lambda s: math.cos(math.pi * s) + 0.05), 0.8
    grid = make_path3(cells=48)
    offsets = {"e1": 0.0, "e2": 1.0, "e3": 1.6}
    yield sample_function(grid, {
        eid: (lambda s, o=o: -1.0 + 2.2 * math.exp(-14.0 * (s + o) ** 2))
        for eid, o in offsets.items()
    }), 1.3
    grid = make_theta(cells=24)
    for _ in range(3):
        yield random_h_positive_somewhere(grid, rng), float(10 ** rng.uniform(-1.0, 0.5))


def test_value_not_above_pure_descent(rng, monkeypatch):
    # a Newton finish may only end where the descent would: the reported
    # value is never above that of the same descent with every finish failed
    for h, c in _positive_problems(rng):
        sol = solve_positive(h, c)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
            pure = solve_positive(h, c, tol=1e-6)
        bound = pure.report.functional_value + 1e-12 * (1 + abs(pure.report.functional_value))
        assert sol.report.functional_value <= bound


def test_finish_details_survive_to_dict():
    grid = make_single(cells=128)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.05)
    details = solve_positive(h, 0.8).report.to_dict()["details"]
    assert details["tail_attempts"] >= 1
    assert details["rejected_tails"] == []


def test_descent_without_newton_stalls_below_its_roundoff(monkeypatch):
    # with every Newton finish switched off, the projected gradient alone
    # converges at tol 1e-8 (24 iterations) but at 1e-12 stops where no
    # step lowers the value any more (66 iterations)
    h = sample_function(make_single(cells=48), lambda s: math.cos(math.pi * s) - 0.1)
    monkeypatch.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
    assert solve_positive(h, 0.5, tol=1e-8).report.final_residual <= 1e-8 * 1.5
    with pytest.raises(NoConvergence, match=r"^projected gradient stalled at residual ") as info:
        solve_positive(h, 0.5, tol=1e-12)
    # the stall exit, not the end of the iteration budget
    assert int(str(info.value).rsplit("after ", 1)[1].split()[0]) < solvers.MAX_ITER_GRADIENT


def test_descent_out_of_iterations_is_not_a_stall(monkeypatch):
    # three iterations leave the descent far from converged (residual 4.7)
    # but still moving: the budget exit names the budget
    h = sample_function(make_single(cells=48), lambda s: math.cos(math.pi * s) - 0.1)
    monkeypatch.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
    monkeypatch.setattr(solvers, "MAX_ITER_GRADIENT", 3)
    with pytest.raises(NoConvergence, match=r"^projected gradient used all 3 iterations "
                                            r"at residual 4\.721e\+00 \(tol 1\.5e-08\)$"):
        solve_positive(h, 0.5)


def test_saddle_finish_is_refused(monkeypatch):
    # on this theta graph the first Newton finish converges to a saddle of
    # the value, below the current iterate but far above the minimum: its
    # Jacobian K - diag(w h e^u) has two negative eigenvalues.  Found by a
    # seeded search: draw 69 of default_rng(0), each draw three a_e ~
    # U(0.6, 1.4), three b_e ~ U(-0.2, 0.2) and a0 ~ -U(0.55, 0.65)
    edges = [("e1", 1.0, "0.884279344938", "0.02331157919"),
             ("e2", 1.3, "1.10993678339", "-0.0450820339793"),
             ("e3", 0.9, "1.14061395356", "0.0495611127757")]
    h0 = parse_problem({
        "vertices": ["a", "b"],
        "edges": [{"id": eid, "tail": "a", "head": "b", "length": length, "cells": 48}
                  for eid, length, _, _ in edges],
        "h": {eid: f"-0.609190278321 + {a}*sin(pi*s/{length})^4 + {b}*sin(2*pi*s/{length})"
              for eid, length, a, b in edges},
    }).h
    newton = solvers._damped_newton
    # h scaled by a few ulps: the refusal must not rest on one roundoff path
    for k in (-32, -9, 0, 23):
        h = GridFunction(h0.grid, h0.values * (1.0 + k * 1.1e-16))
        roots = []

        def recorded(*args, **kwargs):
            roots.append(newton(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(solvers, "_damped_newton", recorded)
        sol = solve_positive(h, 1.7)
        assert [row["reason"] for row in sol.report.details["rejected_tails"]] == ["saddle"]
        assert sol.report.final_residual <= 1e-8 * 2.7
        ws = solvers._Workspace(h)
        saddle = roots[0]
        assert ws.factor(ws.jacobian_shift(saddle)).negative_eigenvalues() == 2
        saddle_value = 0.5 * float(saddle @ (ws.K @ saddle)) + 1.7 * float(ws.w @ saddle)
        assert saddle_value > sol.report.functional_value + 1.0
        # pure descent stalls at the roundoff floor of the constrained value,
        # with residuals of 1e-6 to 1e-5, so at the default tol it does not
        # converge; at 1e-5 it converges on all paths, its value within
        # 1.4e-12 of the kept finish
        monkeypatch.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
        pure = solve_positive(h, 1.7, tol=1e-5)
        assert sol.report.functional_value <= pure.report.functional_value + 1e-12 * 27.0


def test_refuse_minimum_names_each_reason():
    # the c >= 0 refusal on a converged root: kept as it is, then refused for
    # each reason in turn, the first failing test naming it
    grid = make_single(cells=32)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.05)
    root = solve_positive(h, 0.8).u.values
    ws = solvers._Workspace(h)

    def value(x):
        return 0.5 * float(x @ (ws.K @ x)) + 0.8 * float(ws.w @ x)

    def keep(x):
        return x

    val = value(root)
    assert solvers._refuse_minimum(ws, root, keep, value, val) is None
    assert solvers._refuse_minimum(ws, root, lambda x: None, value, val - 1.0) == "constraint"
    assert solvers._refuse_minimum(ws, root, keep, value, val - 1e-6) == "higher_value"
    # roundoff above the current value is no reason
    assert solvers._refuse_minimum(ws, root, keep, value, val - 1e-14) is None
    # e^10 times h > 0 makes K - diag(w h e^u) negative on many modes
    high = root + 10.0
    assert ws.factor(ws.jacobian_shift(high)).negative_eigenvalues() > 1
    assert solvers._refuse_minimum(ws, high, keep, lambda x: 0.0, 0.0) == "saddle"
    assert solvers._refuse_minimum(ws, high, keep, value, val) == "higher_value"
