"""Problem-file parsing: expressions, defaults, validation."""

import json
import math

import numpy as np
import pytest

from kwnet import compile_expression, default_cells, load_problem, parse_problem


BASE = {
    "vertices": ["p", "q"],
    "edges": [{"id": "e1", "tail": "p", "head": "q", "length": 1.0}],
    "h": "-1",
    "c": -2,
}


def test_expression_arithmetic():
    f = compile_expression("sin(pi*s) + s^2 - 1")
    s = np.linspace(0.0, 1.0, 9)
    assert np.allclose(f(s), np.sin(np.pi * s) + s**2 - 1)


def test_expression_unicode_minus():
    f = compile_expression("−1 + exp(−s)")
    s = np.array([0.0, 0.5])
    assert np.allclose(f(s), -1 + np.exp(-s))


def test_expression_constant_broadcasts():
    f = compile_expression("2")
    s = np.linspace(0, 1, 5)
    assert f(s).shape == s.shape
    assert np.all(f(s) == 2.0)


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "s.real",
    "tan(s)",
    "log(s, 2)",
    "lambda: 1",
    "[1, 2]",
    "s +* 2",
    "t + 1",
])
def test_expression_rejects(bad):
    with pytest.raises(ValueError):
        compile_expression(bad)


@pytest.mark.parametrize("bad", ["cos(pi*s) - 1/0", "2^10000", "(-1)^0.5"])
def test_expression_arithmetic_errors_are_value_errors(bad):
    with pytest.raises(ValueError, match="expression"):
        compile_expression(bad)(np.linspace(0.0, 1.0, 5))


def test_default_cells_scales_with_length():
    cells = default_cells({"a": 1.0, "b": 0.25, "c": 3.0})
    assert cells == {"a": 128, "b": 32, "c": 384}
    assert default_cells({"x": 5.0}) == {"x": 32}


def test_parse_minimal():
    spec = parse_problem(BASE)
    assert spec.c == -2.0
    assert spec.cells == {"e1": 32}
    assert np.all(spec.h.values == -1.0)
    assert spec.grid.total_length == 1.0


def test_parse_cells_override_and_file_cells():
    spec = parse_problem(BASE, cells_override=128)
    assert spec.cells == {"e1": 128}
    with_cells = dict(BASE, edges=[dict(BASE["edges"][0], cells=12)])
    assert parse_problem(with_cells).cells == {"e1": 12}
    # the override still wins
    assert parse_problem(with_cells, cells_override=64).cells == {"e1": 64}


def test_parse_vertex_dicts_with_coordinates():
    data = dict(BASE, vertices=[{"id": "p"}, {"id": "q", "coordinates": [1, 0]}])
    spec = parse_problem(data)
    assert spec.graph.vertex_ids == ("p", "q")


def test_parse_h_forms():
    # scalar broadcast
    spec = parse_problem(dict(BASE, h=-0.5))
    assert np.all(spec.h.values == -0.5)
    # per-edge expression dict
    spec = parse_problem(dict(BASE, h={"e1": "cos(pi*s)"}))
    assert spec.h.edge_values("e1")[0] == pytest.approx(1.0)
    # per-edge sample array
    data = dict(BASE, edges=[dict(BASE["edges"][0], cells=4)], h={"e1": [0, 1, 2, 1, 0]})
    spec = parse_problem(data)
    assert np.allclose(spec.h.edge_values("e1"), [0, 1, 2, 1, 0])


def test_parse_c_optional():
    data = {k: v for k, v in BASE.items() if k != "c"}
    assert parse_problem(data).c is None


@pytest.mark.parametrize("mutate, tag", [
    (lambda d: d.update(h={"e1": "-1", "zz": "0"}), "unknown h edge"),
    (lambda d: d.update(h={}), "missing h edge"),
    (lambda d: d.update(c="soup"), "non-numeric c"),
    (lambda d: d.update(c=math.inf), "non-finite c"),
    (lambda d: d.update(edges=[{"id": "e1", "tail": "p", "head": "zz", "length": 1.0}]),
     "unknown vertex"),
    (lambda d: d.update(edges=[{"id": "e1", "tail": "p", "head": "q", "length": -2.0}]),
     "negative length"),
    (lambda d: d.update(edges=[dict(BASE["edges"][0], cells=2.5)]), "fractional cells"),
    (lambda d: d.update(h="s +* 2"), "broken expression"),
    (lambda d: d.update(h={"e1": [0.0, 1.0]}), "wrong sample count"),
    (lambda d: d.update(h={"e1": "log(s - 5)"}), "non-finite samples"),
    (lambda d: d.pop("vertices"), "missing vertices"),
    (lambda d: d.pop("h"), "missing h"),
])
def test_parse_rejects(mutate, tag):
    data = json.loads(json.dumps(BASE))
    mutate(data)
    with pytest.raises(ValueError):
        parse_problem(data)


def test_load_problem_roundtrip(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(BASE))
    spec = load_problem(str(path))
    assert spec.c == -2.0


def test_load_problem_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_problem(str(path))
    with pytest.raises(ValueError):
        load_problem(str(tmp_path / "missing.json"))
