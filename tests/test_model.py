import copy
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmodal.bisim import find_distinguishing_formula
from depmodal.dependency import dep_holds_by_evidence
from depmodal.errors import EvalError, ModelError
from depmodal.fixtures import (fixture_claims, fixture_names, fixture_text,
                               load_fixture)
from depmodal.harness import GenParams, random_model
from depmodal.model import KripkeModel, load_model
from depmodal.semantics import evaluate
from depmodal.syntax import parse_formula

from oracles import agree_outside, delta, differs_on, recursive_eval_oracle


def vs(*names):
    return frozenset(names)


def tiny_model(**overrides):
    doc = {
        "propositions": ["p"],
        "variables": [{"name": "x", "hidden": False},
                      {"name": "h", "hidden": True}],
        "worlds": [
            {"id": "u", "props": {"p": 1}, "vals": {"x": 0, "h": 0}},
            {"id": "v", "props": {"p": 0}, "vals": {"x": 1, "h": 0}},
        ],
        "epistemic_partition": [["u", "v"]],
        "nomic_partition": [["u"], ["v"]],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

class TestLoad:
    def test_open_door_loads(self, open_door):
        assert open_door.worlds == ("s", "w2", "w3", "w4")
        assert open_door.propositions == ("p", "q", "r")
        assert open_door.named_variables == ("bar_p", "bar_q", "bar_r")
        assert open_door.hidden_variables == ()
        assert open_door.mirrors == {"p": "bar_p", "q": "bar_q", "r": "bar_r"}
        assert open_door.assignment["s"]["bar_r"] == 1
        assert open_door.valuation["w4"]["r"] == 0

    @pytest.mark.parametrize("source", fixture_names() + list(range(50)))
    def test_roundtrip_through_to_dict(self, source):
        # a bundled fixture by name, or a random model by seed
        m = (load_fixture(source) if isinstance(source, str)
             else random_model(GenParams(seed=source)))
        doc = m.to_dict()
        for again in (load_model(doc), load_model(json.dumps(doc)), KripkeModel(doc)):
            assert again.to_dict() == doc

    def test_world_not_covered(self):
        doc = tiny_model(nomic_partition=[["u"]])
        with pytest.raises(ModelError, match="not covered by the nomic partition"):
            load_model(doc)

    def test_unknown_world_in_partition(self):
        doc = tiny_model(epistemic_partition=[["u", "v", "ghost"]])
        with pytest.raises(ModelError, match="references unknown world 'ghost'"):
            load_model(doc)

    def test_overlapping_cells(self):
        doc = tiny_model(nomic_partition=[["u", "v"], ["v"]])
        with pytest.raises(ModelError, match="more than one cell"):
            load_model(doc)

    def test_empty_cell(self):
        doc = tiny_model(nomic_partition=[["u", "v"], []])
        with pytest.raises(ModelError, match="empty cell"):
            load_model(doc)

    def test_missing_assignment_entry(self):
        doc = tiny_model()
        del doc["worlds"][1]["vals"]["h"]
        with pytest.raises(ModelError, match="missing value for variable 'h'"):
            load_model(doc)

    def test_missing_valuation_entry(self):
        doc = tiny_model()
        del doc["worlds"][0]["props"]["p"]
        with pytest.raises(ModelError, match="missing valuation for proposition 'p'"):
            load_model(doc)

    def test_mirror_violation_reports_all_parts(self):
        doc = tiny_model(mirrors={"p": "x"})
        doc["worlds"][0]["vals"]["x"] = 0  # p is 1 there
        with pytest.raises(ModelError) as err:
            load_model(doc)
        message = str(err.value)
        for part in ("mirror violation", "'u'", "'p'", "'x'", "1", "0"):
            assert part in message

    def test_mirror_to_hidden_rejected(self):
        doc = tiny_model(mirrors={"p": "h"})
        with pytest.raises(ModelError, match="not a named variable"):
            load_model(doc)

    def test_negative_value_rejected(self):
        doc = tiny_model()
        doc["worlds"][0]["vals"]["x"] = -1
        with pytest.raises(ModelError, match="non-negative integer"):
            load_model(doc)

    def test_non_integer_value_rejected(self):
        doc = tiny_model()
        doc["worlds"][0]["vals"]["x"] = 1.5
        with pytest.raises(ModelError, match="non-negative integer"):
            load_model(doc)
        doc["worlds"][0]["vals"]["x"] = True
        with pytest.raises(ModelError, match="non-negative integer"):
            load_model(doc)

    def test_prop_value_must_be_binary(self):
        doc = tiny_model()
        doc["worlds"][0]["props"]["p"] = 2
        with pytest.raises(ModelError, match="must be 0 or 1"):
            load_model(doc)

    @pytest.mark.parametrize("faults, message", [
        # model order first: w0's negative value before w1's undeclared name
        ([(("worlds", 0, "vals", "x"), -1), (("worlds", 1, "props", "zz"), 1)],
         "world 'u': value for variable 'x' must be a non-negative integer, got -1"),
        # one world: its propositions before its variables
        ([(("worlds", 0, "vals"), {"x": 0}), (("worlds", 0, "props", "p"), 2)],
         "world 'u': proposition 'p' must be 0 or 1, got 2"),
        # one world: undeclared names before missing ones
        ([(("worlds", 1, "vals", "zz"), 0), (("worlds", 1, "vals"), {"x": 0, "zz": 0})],
         "world 'v': undeclared variable 'zz'"),
        ([(("worlds", 1, "props"), {}), (("worlds", 0, "vals", "h"), True)],
         "world 'u': value for variable 'h' must be a non-negative integer, got True"),
        ([(("worlds", 1, "props", "p"), True), (("worlds", 1, "vals", "x"), -2)],
         "world 'v': proposition 'p' must be 0 or 1, got True"),
        ([(("worlds", 0, "props", "p"), 1.0), (("worlds", 1, "vals", "x"), 1.5)],
         "world 'u': proposition 'p' must be 0 or 1, got 1.0"),
        # a repeated world in one cell before an unknown world in a later one
        ([(("epistemic_partition",), [["u", "u"], ["v", "zz"]])],
         "world 'u' appears in more than one cell of the epistemic partition"),
        ([(("epistemic_partition",), [["u"], ["zz", "v"], ["u"]])],
         "epistemic partition references unknown world 'zz'"),
        ([(("epistemic_partition",), [["u"]]), (("nomic_partition",), [[]])],
         "world 'v' not covered by the epistemic partition"),
        ([(("nomic_partition",), [["u"], [], ["zz"]])],
         "nomic partition contains an empty cell"),
        # every value fault before any partition fault
        ([(("nomic_partition",), [["zz"]]), (("worlds", 1, "vals", "x"), -1)],
         "world 'v': value for variable 'x' must be a non-negative integer, got -1"),
        # world entries in document order
        ([(("worlds", 1), {"id": "v", "props": {}}), (("worlds", 0, "id"), 7)],
         "world entry {'id': 7, 'props': {'p': 1}, 'vals': {'x': 0, 'h': 0}}: "
         '"id" must be a string, "props" and "vals" objects'),
        ([(("worlds", 1, "vals", "x"), -1), (("worlds", 0, "id"), "v")],
         "duplicate world identifiers"),
        ([(("worlds", 0, "id"), ""), (("worlds", 1, "vals", "x"), -1)],
         "world identifier '' must be a non-empty string"),
        ([(("nomic_partition",), [["u"], "v"]), (("epistemic_partition", 0), ["u", 3])],
         "field 'epistemic_partition': cell ['u', 3] must be a list of world identifiers"),
    ])
    def test_first_fault_in_document_order_is_reported(self, faults, message):
        # the whole-model checks find that a document is faulty; the message
        # names the same first offending entry as a world-by-world check
        doc = tiny_model()
        for (*parents, last), value in faults:
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("path, value", [
        (("worlds", 0, "props", "p"), 1.0),
        (("worlds", 0, "props"), [1]),
        (("worlds", 0, "id"), ["u"]),
        (("epistemic_partition", 0), 5),
        (("mirrors",), {"p": ["x"]}),
    ])
    def test_malformed_document_is_model_error(self, path, value):
        doc = tiny_model()
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ModelError):
            load_model(doc)

    def test_reserved_name_rejected(self):
        doc = tiny_model(propositions=["top"])
        doc["worlds"][0]["props"] = {"top": 1}
        doc["worlds"][1]["props"] = {"top": 0}
        with pytest.raises(ModelError, match="reserved word"):
            load_model(doc)

    def test_name_as_both_prop_and_variable_needs_self_mirror(self):
        doc = tiny_model(propositions=["x"])
        doc["worlds"][0]["props"] = {"x": 0}
        doc["worlds"][1]["props"] = {"x": 1}
        with pytest.raises(ModelError, match="both a proposition and a variable"):
            load_model(doc)
        doc["mirrors"] = {"x": "x"}
        m = load_model(doc)   # x mirrors itself: values already line up
        assert m.assignment["v"]["x"] == m.valuation["v"]["x"] == 1

    def test_zero_worlds_rejected(self):
        doc = tiny_model(worlds=[], epistemic_partition=[], nomic_partition=[])
        with pytest.raises(ModelError, match="at least one world"):
            load_model(doc)

    def test_unknown_field_rejected(self):
        doc = tiny_model()
        doc["mirros"] = {}
        with pytest.raises(ModelError, match="unknown field 'mirros'"):
            load_model(doc)

    def test_invalid_json(self):
        with pytest.raises(ModelError, match="invalid JSON"):
            load_model("{not json")

    def test_invalid_fixture_diagnostics(self):
        with pytest.raises(ModelError, match="not covered"):
            load_model(fixture_text("broken_partition"))
        with pytest.raises(ModelError, match="missing value"):
            load_model(fixture_text("missing_assignment"))
        with pytest.raises(ModelError, match="mirror violation"):
            load_model(fixture_text("mirror_violation"))


# ---------------------------------------------------------------------------
# Difference sets
# ---------------------------------------------------------------------------

class TestDelta:
    def test_open_door_neighbours(self, open_door):
        # s and w2 differ exactly on the key variable
        assert delta(open_door, "s", "w2") == vs("bar_q")
        assert delta(open_door, "s", "w4") == vs("bar_p", "bar_q", "bar_r")

    def test_identity(self, open_door):
        for w in open_door.worlds:
            assert delta(open_door, w, w) == frozenset()

    def test_hidden_mismatch_forces_empty(self):
        m = load_model(tiny_model())
        doc = tiny_model()
        doc["worlds"][1]["vals"]["h"] = 1   # differs on hidden h and named x
        m2 = load_model(doc)
        assert delta(m, "u", "v") == vs("x")
        assert delta(m2, "u", "v") == frozenset()

    def test_symmetry(self, open_door, judging_case_1, witness):
        for m in (open_door, judging_case_1, witness):
            for u in m.worlds:
                for v in m.worlds:
                    assert delta(m, u, v) == delta(m, v, u)

    def test_delta_stays_named(self):
        m = load_model(tiny_model())
        assert delta(m, "u", "v") <= frozenset(m.named_variables)

    def test_unknown_world(self, open_door):
        with pytest.raises(EvalError, match="unknown world"):
            delta(open_door, "s", "zz")


# ---------------------------------------------------------------------------
# Agreement predicates
# ---------------------------------------------------------------------------

class TestAgreement:
    def test_judging_case_1_pair(self, judging_case_1):
        m = judging_case_1
        assert agree_outside(m, "s", "t", vs("bar_a", "bar_b"))
        assert not agree_outside(m, "s", "t", vs("bar_a"))

    def test_all_variables_vacuous(self, judging_case_1):
        m = judging_case_1
        everything = frozenset(m.named_variables)
        for u in m.worlds:
            for v in m.worlds:
                assert agree_outside(m, u, v, everything)

    def test_differs_on(self, judging_case_1):
        m = judging_case_1
        assert not differs_on(m, "s", "t", vs("bar_c"))
        assert differs_on(m, "s", "t", vs("bar_a"))
        assert not differs_on(m, "s", "t", frozenset())

    def test_hidden_variables_count_for_agreement(self):
        doc = tiny_model()
        doc["worlds"][1]["vals"]["h"] = 1
        m = load_model(doc)
        assert not agree_outside(m, "u", "v", vs("x"))

    def test_unknown_variable(self, judging_case_1):
        with pytest.raises(EvalError, match="undeclared variable"):
            agree_outside(judging_case_1, "s", "t", vs("zz"))
        with pytest.raises(EvalError, match="undeclared variable"):
            differs_on(judging_case_1, "s", "t", vs("zz"))

    def test_matches_direct_dependency_condition(self, judging_case_1):
        # agree-outside + differs-on-each is the condition the evaluator uses
        m = judging_case_1
        x, y = vs("bar_a"), vs("bar_c")
        hits = [(u, v) for u in m.worlds for v in m.worlds
                if agree_outside(m, u, v, x | y)
                and differs_on(m, u, v, x) and differs_on(m, u, v, y)]
        assert ("s", "u") in hits and ("u", "s") in hits


# ---------------------------------------------------------------------------
# Partition cells
# ---------------------------------------------------------------------------

class TestClasses:
    def test_open_door_cells(self, open_door):
        assert open_door.nomic_class("s") == frozenset(open_door.worlds)
        assert frozenset({"s"}) in open_door.epistemic_partition

    def test_singleton_model(self):
        doc = {
            "propositions": [],
            "variables": [{"name": "x", "hidden": False}],
            "worlds": [{"id": "only", "props": {}, "vals": {"x": 0}}],
            "epistemic_partition": [["only"]],
            "nomic_partition": [["only"]],
        }
        m = load_model(doc)
        assert m.nomic_class("only") == frozenset({"only"})
        assert m.epistemic_partition == (frozenset({"only"}),)

    def test_reflexivity_and_partitioning(self, experiment_2runs):
        m = experiment_2runs
        for w in m.worlds:
            assert w in m.nomic_class(w)
        for partition in (m.nomic_partition, m.epistemic_partition):
            union = set()
            for cell in partition:
                assert not (union & cell)
                union |= cell
            assert union == set(m.worlds)

    def test_unknown_world(self, open_door):
        with pytest.raises(EvalError):
            open_door.nomic_class("zz")


def _scramble(node) -> None:
    """Change every list and dict under ``node`` in place: flip values,
    rename strings, add an entry, and reverse lists."""
    for child in list(node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            _scramble(child)
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (bool, int)):
                node[key] = 1 - value
            elif isinstance(value, str):
                node[key] = value + "_"
        node["zz"] = 0
    else:
        node.reverse()
        node.append("zz")


def test_model_is_a_snapshot_of_its_document():
    # the model copies what it keeps: changing every list and dict of the
    # document after loading changes neither its document form nor its answers
    doc = json.loads(fixture_text("open_door"))
    twin = load_model(copy.deepcopy(doc))
    m = load_model(doc)
    _scramble(doc)
    assert doc["mirrors"]["zz"] == 0 and doc["nomic_partition"][-1] == "zz"
    assert m.to_dict() == twin.to_dict()
    texts = [c.formula for c in fixture_claims("open_door")] + [
        "p & !q", "Dg(bar_p;bar_r)", "Dl({bar_q};{bar_r})", "A K Dl(bar_p;bar_p)"]
    for f in map(parse_formula, texts):
        for w in twin.worlds:
            assert evaluate(m, w, f) == evaluate(twin, w, f)
            assert (recursive_eval_oracle(m, w, f, dep_holds_by_evidence)
                    == recursive_eval_oracle(twin, w, f, dep_holds_by_evidence))


def test_pointed_model_checks_point(open_door):
    # a pointed model (M, s) needs s in M, for either point of a comparison
    assert find_distinguishing_formula(open_door, "s", open_door, "s") is None
    for s, s2 in (("zz", "s"), ("s", "zz")):
        with pytest.raises(EvalError, match="unknown world 'zz'"):
            find_distinguishing_formula(open_door, s, open_door, s2)


def test_constructor_direct_use():
    m = KripkeModel({
        "propositions": [],
        "variables": [{"name": "x", "hidden": False}],
        "worlds": [{"id": "a", "props": {}, "vals": {"x": 5}}],
        "epistemic_partition": [["a"]],
        "nomic_partition": [["a"]],
    })
    assert m.assignment["a"]["x"] == 5


class _Level(int):
    """An int subclass other than bool: a valid value that only the
    per-world check accepts."""


def test_constructor_accepts_what_only_the_per_world_check_accepts():
    # an int subclass other than bool is a valid variable value; the
    # whole-model pass tests exact types, so this model takes the per-world
    # path, which must build the same tables
    m = load_model({
        "propositions": ["p"],
        "variables": [{"name": "x", "hidden": False}, {"name": "h", "hidden": True}],
        "worlds": [{"id": "a", "props": {"p": 1}, "vals": {"x": _Level(2), "h": 0}},
                   {"id": "b", "props": {"p": 0}, "vals": {"h": 1, "x": 0}}],
        "epistemic_partition": [["a", "b"]],
        "nomic_partition": [["b", "a"]],
    })
    assert m._row == {"a": (2, 0), "b": (0, 1)}
    assert m.assignment == {"a": {"x": 2, "h": 0}, "b": {"h": 1, "x": 0}}
    assert m._local_rep == {"a": "a", "b": "b"}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), named=st.integers(1, 3),
       hidden=st.integers(0, 2))
def test_per_world_value_check_builds_the_same_tables(data, seed, named, hidden):
    # the whole-model pass tests exact value types, so wrapping one world's
    # values in an int subclass sends the load through the per-world loop
    doc = random_model(GenParams(min_worlds=2, num_named=named, num_hidden=hidden,
                                 max_value=2, seed=seed)).to_dict()
    entries = doc["worlds"]
    src, dst, odd = (data.draw(st.integers(0, len(entries) - 1)) for _ in range(3))
    entries[dst]["vals"] = dict(entries[src]["vals"])      # a repeated row
    with mock.patch.object(KripkeModel, "_check_each_world", autospec=True,
                           side_effect=KripkeModel._check_each_world) as loop:
        plain = load_model(doc)
        assert loop.call_count == 0
        entries[odd]["vals"] = {x: _Level(v) for x, v in entries[odd]["vals"].items()}
        wrapped = load_model(doc)
        assert loop.call_count == 1
    for table in ("valuation", "assignment", "_row", "_local_rep"):
        assert getattr(wrapped, table) == getattr(plain, table), table
