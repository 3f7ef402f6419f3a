"""Problem-file parsing: expressions, defaults, validation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwnet import compile_expression, default_cells, load_problem, parse_problem, problemfile


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


def test_templates_compile_once_and_bad_ones_raise_every_time(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(problemfile, "compile", counting_compile, raising=False)
    problemfile._compile.cache_clear()
    good = dict(BASE, h="cos(pi*s) - 0.25")
    first = parse_problem(good)
    assert compiled
    compiled.clear()
    assert np.array_equal(parse_problem(good).h.values, first.h.values)
    assert compiled == []

    bad = dict(BASE, h="cos(pi*s) + t")
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown name 't'") as exc:
            parse_problem(bad)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


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
    (lambda d: d["edges"][0].update(length=None), "null length"),
    (lambda d: d["edges"][0].update(length=[1.0]), "list length"),
    (lambda d: d["edges"][0].update(id=["e1"]), "list edge id"),
    (lambda d: d["edges"][0].update(tail=["p"]), "list tail"),
    (lambda d: d["edges"][0].update(head=["q"]), "list head"),
    (lambda d: d.update(vertices=[{"id": ["p"]}, "q"]), "list vertex id"),
    (lambda d: d.update(vertices=[{"id": 1}, {"id": 2}],
                        edges=[{"id": 7, "tail": 1, "head": 2, "length": 1.0}]), "integer ids"),
    (lambda d: d.update(h={"e1": [[0.0] * 11] * 3}), "nested samples"),
    (lambda d: d.update(h={"e1": ["x"] * 33}), "non-numeric samples"),
    (lambda d: d.update(h="((-1.0) ^ pi) * s + 0.2"), "complex h"),
    # JSON strings and booleans where numbers belong, which float() would take
    (lambda d: d["edges"][0].update(length="1.5"), "string length"),
    (lambda d: d["edges"][0].update(length=True), "boolean length"),
    (lambda d: d.update(c="-0.5"), "string c"),
    (lambda d: d.update(c=True), "boolean c"),
    (lambda d: d.update(h={"e1": ["-1", True, "-2"] * 11}), "string and boolean samples"),
    (lambda d: d.update(h={"e1": [-1.0] * 32 + [False]}), "boolean sample"),
    (lambda d: d["edges"][0].update(length=10**400), "integer length beyond floats"),
    (lambda d: d.update(c=-10**400), "integer c beyond floats"),
])
def test_parse_rejects(mutate, tag):
    data = json.loads(json.dumps(BASE))
    mutate(data)
    with warnings.catch_warnings():
        # rejected, not cast to float with a ComplexWarning (a RuntimeWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as info:
            parse_problem(data)
    message = REJECTED[tag]
    assert str(info.value) == (message(data) if callable(message) else message)


def _bad_edge(why):
    return lambda data: f"edge entry {data['edges'][0]!r}: {why}"


REJECTED = {
    "unknown h edge": '"h" names unknown edges [\'zz\']',
    "missing h edge": '"h" has no entry for edges [\'e1\']',
    "non-finite c": '"c" must be finite',
    "unknown vertex": "edge 'e1' references unknown vertex 'zz'",
    "negative length": "edge 'e1' has length -2.0",
    "fractional cells": "edge 'e1': cells must be an integer",
    "broken expression": "edge 'e1': cannot parse expression 's +* 2': invalid syntax",
    "wrong sample count": "edge 'e1': h sample array has shape (2,), "
                          "grid wants a flat list of 33 numbers",
    "non-finite samples": "edge 'e1': h evaluates to non-finite values",
    "missing vertices": "problem file is missing 'vertices'",
    "missing h": "problem file is missing 'h'",
    "null length": _bad_edge("length must be a number"),
    "list length": _bad_edge("length must be a number"),
    "list edge id": _bad_edge("id, tail and head must be strings"),
    "list tail": _bad_edge("id, tail and head must be strings"),
    "list head": _bad_edge("id, tail and head must be strings"),
    "list vertex id": "vertex entries must be string ids or objects with a string id: "
                      "{'id': ['p']}",
    "integer ids": "vertex entries must be string ids or objects with a string id: {'id': 1}",
    "nested samples": "edge 'e1': h sample array has shape (3, 11), "
                      "grid wants a flat list of 33 numbers",
    "non-numeric samples": "edge 'e1': h samples must be numbers: 'x'",
    "complex h": "edge 'e1': expression '((-1.0) ^ pi) * s + 0.2' evaluates to complex "
                 "values; h must be real",
    "string length": _bad_edge("length must be a number"),
    "boolean length": _bad_edge("length must be a number"),
    "string and boolean samples": "edge 'e1': h samples must be numbers: '-1'",
    "boolean sample": "edge 'e1': h samples must be numbers: False",
    "integer length beyond floats": _bad_edge("length must be a number"),
    **{tag: (lambda data: f'"c" must be a number, got {data["c"]!r}')
       for tag in ("non-numeric c", "string c", "boolean c", "integer c beyond floats")},
}


@pytest.mark.parametrize("samples, message", [
    ([[0.0, 1.0, 2.0]] * 3, r"^edge 'e1': h sample array has shape \(3, 3\), "
                            r"grid wants a flat list of 9 numbers$"),
    ([0.0] * 8 + ["x"], r"^edge 'e1': h samples must be numbers: .*'x'"),
], ids=["nested", "non-numeric"])
def test_h_sample_errors_name_the_edge_and_shape(samples, message):
    data = dict(BASE, edges=[dict(BASE["edges"][0], cells=8)], h={"e1": samples})
    with pytest.raises(ValueError, match=message):
        parse_problem(data)


def test_load_problem_roundtrip(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(BASE))
    spec = load_problem(str(path))
    assert spec.c == -2.0


def test_load_problem_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    # not kept: every call raises, naming the file
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^problem file {str(path)!r} is not valid JSON"):
            load_problem(str(path))
    with pytest.raises(ValueError):
        load_problem(str(tmp_path / "missing.json"))
    path.write_bytes(b'{"h": "\xff"}')
    with pytest.raises(ValueError, match=f"^cannot read problem file {str(path)!r}"):
        load_problem(str(path))


def test_load_problem_keeps_the_last_spec_of_the_same_text(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(BASE))
    spec = load_problem(str(path))
    assert load_problem(str(path)) is spec
    # keyed on the text, not on the path or the file's time
    other = tmp_path / "copy.json"
    other.write_text(json.dumps(BASE))
    assert load_problem(str(other)) is spec
    # other cells: a new spec, and the earlier one is gone
    finer = load_problem(str(path), cells_override=128)
    assert finer is not spec and finer.cells == {"e1": 128}
    assert load_problem(str(path), cells_override=128) is finer
    assert load_problem(str(path)) is not spec
    # edited text: a new spec
    spec = load_problem(str(path))
    path.write_text(json.dumps(dict(BASE, c=-3)))
    edited = load_problem(str(path))
    assert edited is not spec and edited.c == -3.0


def test_cells_override_is_a_plain_int_or_a_value_error(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(BASE))
    for bad in ("48", 48.0, True):
        with pytest.raises(ValueError, match="cells override must be"):
            parse_problem(BASE, cells_override=bad)
        with pytest.raises(ValueError, match="cells override must be"):
            load_problem(str(path), cells_override=bad)
    spec = parse_problem(BASE, cells_override=np.int64(48))
    assert type(spec.cells["e1"]) is int and json.dumps(spec.cells) == '{"e1": 48}'
    spec = load_problem(str(path), cells_override=np.int64(48))
    assert type(spec.cells["e1"]) is int
    assert load_problem(str(path), cells_override=48) is spec


# ----------------------------------------------------------------------
# edges that share a template: one evaluation, bitwise the per-edge values
# ----------------------------------------------------------------------

def star_problem(h_by_edge, cells=6):
    n = len(h_by_edge)
    return {
        "vertices": ["o"] + [f"v{j}" for j in range(n)],
        "edges": [{"id": f"e{j}", "tail": "o", "head": f"v{j}", "length": 0.5 + 0.37 * j,
                   "cells": cells + j} for j in range(n)],
        "h": {f"e{j}": text for j, text in enumerate(h_by_edge)},
    }


def per_edge_reference(data):
    """h of every edge from its own compile_expression (ValueError if any fails)."""
    spec_grid = parse_problem(dict(data, h="0")).grid
    out = {}
    for eid, text in data["h"].items():
        vals = compile_expression(text)(spec_grid.edge_coords(eid))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{eid}: non-finite")
        out[eid] = vals
    return out


def literal_texts():
    magnitude = st.floats(min_value=1e-7, max_value=1e7, allow_nan=False)
    styles = st.sampled_from(["{!r}", "{:.3e}", "{:.9g}", "{:.2E}", "{:f}"])
    text = st.tuples(styles, magnitude).map(lambda p: p[0].format(p[1]))
    return st.tuples(st.booleans(), text).map(lambda p: ("-" if p[0] else "") + p[1])


def templates():
    leaves = st.sampled_from(["s", "pi", "e", "2", "3", "LIT", "LIT", "LIT"])
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*", "/", "^"]), kids).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "-"]), kids).map(
            lambda t: f"{t[0]}({t[1]})")), max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(template=templates(), data=st.data())
def test_shared_templates_give_the_per_edge_values_bitwise(template, data):
    n_edges = 4
    pieces = template.split("LIT")
    texts = []
    for _ in range(n_edges):
        lits = data.draw(st.lists(literal_texts(), min_size=len(pieces) - 1,
                                  max_size=len(pieces) - 1))
        body = pieces[0] + "".join(f"({x}){p}" for x, p in zip(lits, pieces[1:]))
        texts.append(f"({body})*s")  # zero at the shared hub, s = 0
    problem = star_problem(texts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            ref = per_edge_reference(problem)
        except ValueError:
            with pytest.raises(ValueError):
                parse_problem(problem)
            return
        h = parse_problem(problem).h
    for eid, vals in ref.items():
        assert np.array_equal(h.edge_values(eid)[1:], vals[1:])


def test_integer_literals_stay_exact():
    h = parse_problem(star_problem(["10^20 + 1 - 10^20 + 0.5*s"] * 3)).h
    for eid in ("e0", "e1", "e2"):
        s = h.grid.edge_coords(eid)
        assert np.array_equal(h.edge_values(eid), 1.0 + 0.5 * s)


def test_complex_h_is_rejected_on_both_paths():
    # once a Hypothesis find of the property above: the templated and the
    # per-edge evaluation took the real parts of complex values that differ
    # by an ulp.  Four edges share the template; one edge has it alone.
    text = "(((1.0) / ((1.0) + ((-1.0) ^ pi))))*s"
    for texts in ([text] * 4, [text]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="complex values") as info:
                parse_problem(star_problem(texts))
        assert str(info.value).startswith(f"edge 'e0': expression {text!r} ")
    with pytest.raises(ValueError, match="h must be real"):
        compile_expression(text)(np.linspace(0.0, 1.0, 5))


def test_a_zero_constant_divisor_is_rejected_on_both_paths():
    # once a Hypothesis find of the property above: pi / 0.0 raised for the
    # edge's own Python floats, but the template held the literal in an
    # array, where it gave inf, and s / inf = 0 left h finite
    text = "((s / (pi / (0.000000))))*s"
    for texts in ([text] * 4, [text]):
        with pytest.raises(ValueError, match="float division by zero") as info:
            parse_problem(star_problem(texts))
        assert str(info.value).startswith(f"edge 'e0': cannot evaluate expression {text!r}")


@pytest.mark.parametrize("bad, why", [
    ("1.5*s + 1/0.0", "cannot evaluate"),
    ("1.5*s + 2.5.5", "cannot parse"),
    ("1.5*s + log(-1.0 - s)", "non-finite"),
])
def test_bad_literal_on_one_edge_names_that_edge(bad, why):
    texts = ["1.5*s + 1/4.0", "1.5*s + 1/2.0", bad, "1.5*s + 1/8.0"]
    with pytest.raises(ValueError) as info:
        parse_problem(star_problem(texts))
    message = str(info.value)
    assert message.startswith("edge 'e2': ") and why in message
    if why != "non-finite":
        assert repr(bad) in message


def test_templated_h_is_the_per_edge_h_bitwise_on_a_thousand_edges():
    rng = np.random.default_rng(1000)
    n = 1000
    data = star_problem([""] * n)
    for e in data["edges"]:
        e["cells"] = 32
    lengths = [e["length"] for e in data["edges"]]
    b, d = rng.uniform(0.6, 1.4, n).tolist(), rng.uniform(-0.2, 0.2, n).tolist()
    # every edge gives the hub the same value, -0.4; the literals differ
    data["h"] = {f"e{j}": f"-0.4 + {b[j]!r}*sin(pi*s/{lengths[j]!r})^4"
                          f" + {d[j]:.12g}*sin(2*pi*s/{lengths[j]!r})" for j in range(n)}
    h = parse_problem(data).h
    for eid, vals in per_edge_reference(data).items():
        assert np.array_equal(h.edge_values(eid), vals)


def test_non_ascii_digits_are_not_literals():
    # float() reads these digits, Python's parser does not: the text is
    # rejected as compile_expression rejects it
    text = "\u0663.\u0665*s - 2"
    with pytest.raises(ValueError, match="cannot parse"):
        compile_expression(text)
    with pytest.raises(ValueError, match="^edge 'e1': cannot parse"):
        parse_problem(dict(BASE, h=text))


@pytest.mark.parametrize("text", ["1.5*s\x00 + 2.0", "1.5*s + \x012.0"])
def test_control_characters_in_h_do_not_merge_texts(text):
    data = star_problem(["1.5*s + 2.0", text, "1.5*s + 3.0"])
    with pytest.raises(ValueError, match="^edge 'e1': "):
        parse_problem(data)
