"""The input contract, fuzzed: whatever text or document comes in, the CLI
ends with a documented exit code and never with an internal error, the
renderer's output parses back to the same formula, the parser and renderer
answer as the recursive-descent oracles do, and the parser and the model
loader accept the same identifiers."""

import contextlib
import copy
import functools
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmodal.cli import main
from depmodal.errors import ModelError, ParseError
from depmodal.fixtures import fixture_path
from depmodal.harness import GenParams, random_formula, random_model
from depmodal.model import KripkeModel
from depmodal.syntax import (And, DepG, DepL, Know, Not, Prop, parse_formula,
                             parse_varset, render_formula)

from oracles import descent_parse_oracle, render_oracle

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

OPEN_DOOR = fixture_path("open_door")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


# pieces of the formula language, plus names the fixture does not declare
# and characters outside it
_PIECES = ["K ", "A ", "!", " & ", " | ", " -> ", "(", ")", "{", "}", ";", ",",
           " ", "Dg", "Dl", "top", "bot", "p", "q", "bar_p", "bar_r", "ghost",
           "_", "9", "é", "²", "-", ">"]

_ATOM_TEXTS = ["top", "bot", "p", "q", "ghost", "Dg(bar_p;bar_r)",
               "Dl({bar_p,bar_q};{})", "Dg({ghost};bar_p)"]
_ATOMS = st.sampled_from(_ATOM_TEXTS)
well_formed = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["!", "K ", "A "]), sub).map("".join),
    st.tuples(sub, st.sampled_from([" & ", " | ", " -> "]), sub).map(
        lambda t: "(" + "".join(t) + ")")), max_leaves=8)

formula_text = st.one_of(st.text(max_size=40),
                         st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
                         well_formed)


@FUZZ
@given(text=formula_text)
def test_formula_text_ends_in_a_documented_code(text):
    code, err = run_cli("check", OPEN_DOOR, "s", text)
    assert code in (0, 2, 4), (text, err)
    assert not err.startswith("internal error"), (text, err)


def _paths(doc, prefix=()):
    """Every key and index path into a JSON document, the root excluded."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


with open(OPEN_DOOR, encoding="utf-8") as fh:
    _DOC = json.load(fh)
_DOC_PATHS = list(_paths(_DOC))

_WRONG = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                   st.text(max_size=4), st.sampled_from(["s", "w2", "p", "bar_p"]),
                   st.lists(st.integers(0, 2), max_size=2),
                   st.dictionaries(st.sampled_from(["p", "bar_p", "id", "x"]),
                                   st.integers(0, 2), max_size=2))

# replace a value, delete a key or element, or add an unknown key
_EDIT = st.tuples(st.sampled_from(_DOC_PATHS),
                  st.sampled_from(["replace", "delete", "add"]), _WRONG)


def _apply(doc, edit):
    path, action, value = edit
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "add" and isinstance(parent, dict):
        parent["extra"] = value
    elif action == "delete":
        del parent[key]
    else:
        parent[key] = value


@FUZZ
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_near_valid_documents_end_in_a_documented_code(tmp_path_factory, edits):
    doc = copy.deepcopy(_DOC)
    for edit in edits:
        try:
            _apply(doc, edit)
        except (IndexError, KeyError, TypeError):
            pass                    # an earlier edit removed or retyped the path
    path = tmp_path_factory.getbasetemp() / "fuzzed.edl"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("validate", str(path)),
                 ("check", str(path), "s", "K p & Dg(bar_p;bar_r)")):
        code, err = run_cli(*argv)
        assert code in (0, 2, 3, 4), (edits, argv, err)
        assert not err.startswith("internal error"), (edits, argv, err)


@pytest.mark.parametrize("name, hidden", [(None, False), (True, False), ("x", 0)])
def test_variable_entries_are_not_coerced(tmp_path, name, hidden):
    # coerced, these would load as variables named None and True
    path = tmp_path / "retyped.edl"
    path.write_text(json.dumps({
        "propositions": [], "variables": [{"name": name, "hidden": hidden}],
        "worlds": [{"id": "w", "props": {}, "vals": {str(name): 0}}],
        "epistemic_partition": [["w"]], "nomic_partition": [["w"]]}))
    for argv in (("validate", str(path)), ("check", str(path), "w", f"Dl({name};{name})")):
        code, err = run_cli(*argv)
        assert code == 3 and err.startswith("model error: variable"), (argv, err)


@FUZZ
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
def test_render_then_parse_is_identity(seed, depth):
    m = random_model(GenParams(seed=seed))
    f = random_formula(random.Random(seed), m, depth)
    assert parse_formula(render_formula(f)) == f


def _outcome(parse, text):
    """The parsed value, or the syntax error's text and position."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.position


def _assert_parsers_agree(text):
    for start, parse in (("formula", parse_formula), ("varset", parse_varset)):
        want = _outcome(lambda t: descent_parse_oracle(t, start), text)
        if isinstance(want, tuple) and want[0].startswith("formula nested too deeply"):
            continue                # the oracle ran out of stack; the parser may not
        assert _outcome(parse, text) == want, (start, text)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(text=formula_text)
def test_parser_matches_descent_oracle(text):
    _assert_parsers_agree(text)


def _seeded_text(rng, depth=4):
    """Formula text that drops brackets at random, so that chains of one
    connective and mixed precedence levels occur."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_ATOM_TEXTS)
    if rng.random() < 0.3:
        return rng.choice(["!", "K ", "A "]) + _seeded_text(rng, depth - 1)
    text = rng.choice([" & ", " | ", " -> "]).join(
        _seeded_text(rng, depth - 1) for _ in range(2))
    return f"({text})" if rng.random() < 0.3 else text


def test_parser_matches_descent_oracle_on_seeded_token_strings():
    # 30,000 strings: random pieces, formula texts, and formula texts with a
    # random piece written over up to three characters
    rng = random.Random(19)
    for _ in range(10000):
        _assert_parsers_agree("".join(rng.choices(_PIECES, k=rng.randint(0, 30))))
        text = _seeded_text(rng)
        _assert_parsers_agree(text)
        i = rng.randrange(len(text) + 1)
        _assert_parsers_agree(text[:i] + rng.choice(_PIECES) + text[i + rng.randint(0, 3):])


def test_renderer_matches_render_oracle():
    for seed in range(2000):
        m = random_model(GenParams(seed=seed % 50))
        f = random_formula(random.Random(seed), m, seed % 6)
        assert render_formula(f) == render_oracle(f), seed


@pytest.mark.parametrize("n", [1, 2, 3, 50, 300])
def test_renderer_matches_render_oracle_on_and_chains(n):
    atoms = [Prop("p"), Not(DepG(frozenset({"x", "y"}), frozenset())),
             Know(DepL(frozenset({"z"}), frozenset({"x"})))]
    items = [atoms[i % 3] for i in range(n)]
    # a left fold, since conj_all drops the repeated items
    left_nested = functools.reduce(And, items)
    # bracketed right operands cost the oracle three frames a level
    right_nested = functools.reduce(lambda rest, f: And(f, rest), reversed(items[:60]))
    for f in (left_nested, Not(left_nested), right_nested,
              functools.reduce(And, [And(items[0], items[-1])] * n)):
        assert render_formula(f) == render_oracle(f)


@pytest.mark.parametrize("name", ["_", "a1", "x_y", "1a", "x\u00b2", "\u00e9", "Dg", "K"])
def test_parser_and_loader_accept_the_same_identifiers(name):
    doc = {"propositions": [name], "variables": [],
           "worlds": [{"id": "w", "props": {name: 0}, "vals": {}}],
           "epistemic_partition": [["w"]], "nomic_partition": [["w"]]}
    try:
        KripkeModel(doc)
        loads = True
    except ModelError:
        loads = False
    assert loads == (_outcome(parse_formula, name) == Prop(name))

