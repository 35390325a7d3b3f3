"""The input contract, fuzzed: whatever text or document comes in, the CLI
ends with a documented exit code and never with an internal error, and the
renderer's output parses back to the same formula."""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmodal.cli import main
from depmodal.fixtures import fixture_path
from depmodal.harness import GenParams, random_formula, random_model
from depmodal.syntax import parse_formula, render_formula

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

_ATOMS = st.sampled_from(["top", "bot", "p", "q", "ghost", "Dg(bar_p;bar_r)",
                          "Dl({bar_p,bar_q};{})", "Dg({ghost};bar_p)"])
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
