"""CLI behaviour: exit codes, output shapes, and fixture replay."""

import contextlib
import itertools
import json
import subprocess
import sys
import threading

import pytest

from depmodal import dependency
from depmodal.cli import main
from depmodal.dependency import p_family
from depmodal.fixtures import (FIXTURES, fixture_claims, fixture_names,
                               fixture_path, load_fixture)
from depmodal.syntax import MAX_NESTING, parse_formula

from oracles import connected_union_oracle, cover_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_fresh_stack(capsys, *argv):
    """``run`` on a new thread, whose stack starts empty, so how deep a
    formula may nest does not depend on the test runner's own stack."""
    result = []
    t = threading.Thread(target=lambda: result.append(run(capsys, *argv)))
    t.start()
    t.join()
    return result[0]


def unit_vector_model(tmp_path, k) -> str:
    """A model file of k worlds and k named variables, where world ``wi`` has
    ``xi = 1`` and every other variable 0, in one epistemic and one nomic
    class.  Its global family is every pair of variables, and its generative
    family has 2^k - k - 1 sets."""
    names = [f"x{i}" for i in range(k)]
    ws = [f"w{i}" for i in range(k)]
    path = tmp_path / f"unit{k}.edl"
    path.write_text(json.dumps({
        "propositions": [], "variables": [{"name": x, "hidden": False} for x in names],
        "worlds": [{"id": w, "props": {}, "vals": {x: int(i == j) for j, x in enumerate(names)}}
                   for i, w in enumerate(ws)],
        "epistemic_partition": [ws], "nomic_partition": [ws]}))
    return str(path)


def chain_model(tmp_path, k) -> str:
    """A model file of k + 1 worlds and k named variables in one epistemic
    and one nomic class, where world ``wi`` has ``xj = 1`` exactly for
    ``j < i``.  Its global family is every run ``{xa, ..., xb}`` of
    consecutive variables, the full set included."""
    names = [f"x{j}" for j in range(k)]
    ws = [f"w{i}" for i in range(k + 1)]
    path = tmp_path / f"chain{k}.edl"
    path.write_text(json.dumps({
        "propositions": [], "variables": [{"name": x, "hidden": False} for x in names],
        "worlds": [{"id": w, "props": {}, "vals": {x: int(j < i) for j, x in enumerate(names)}}
                   for i, w in enumerate(ws)],
        "epistemic_partition": [ws], "nomic_partition": [ws]}))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class TestCheck:
    def test_positional_form(self, capsys):
        code, out, _ = run(capsys, "check", fixture_path("open_door"), "s",
                           "K Dg({bar_p};{bar_r})")
        assert code == 0
        assert out.strip() == "true"

    def test_flag_form(self, capsys):
        code, out, _ = run(capsys, "check",
                           "-m", fixture_path("open_door"),
                           "-w", "s", "-f", "Dl({bar_p};{bar_r})")
        assert code == 0
        assert out.strip() == "false"   # a false answer is still success

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", fixture_path("open_door"), "s",
                           "K Dg({bar_p};{bar_r})", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] is True
        assert data["routes"] == {"direct": True, "evidence": True}

    def test_unknown_world_is_evaluation_error(self, capsys):
        code, _, err = run(capsys, "check", fixture_path("open_door"),
                           "nowhere", "top")
        assert code == 4
        assert "unknown world" in err

    def test_undeclared_name_is_evaluation_error(self, capsys):
        code, _, err = run(capsys, "check", fixture_path("open_door"), "s",
                           "Dg({ghost};{bar_p})")
        assert code == 4
        assert "undeclared" in err

    def test_malformed_formula_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", fixture_path("open_door"), "s",
                           "Dg({x};{z}")
        assert code == 2
        assert "position" in err

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", fixture_path("open_door"), "s")
        assert code == 2
        assert "missing formula" in err

    def test_missing_file_is_model_error(self, capsys):
        code, _, err = run(capsys, "check", "no/such/file.edl", "s", "top")
        assert code == 3

    @pytest.mark.parametrize("text, position", [("x\u00b2", 1), ("\u00e9", 0)])
    def test_identifiers_are_ascii(self, capsys, text, position):
        # the grammar's IDENT, shared with the model loader
        code, _, err = run(capsys, "check", fixture_path("open_door"), "s", text)
        assert code == 2
        assert err == (f"syntax error: unexpected character {text[position]!r} "
                       f"(at position {position})\n")


_ATOM = "Dg({bar_p};{bar_r})"

# shape -> the token that opens each level, and the text nested n levels
# deep; a chain of n connectives has n + 1 operands
_NESTED = {
    "K": ("K", lambda n: "K " * n + _ATOM),
    "not": ("!", lambda n: "!" * n + _ATOM),
    "and": ("&", lambda n: " & ".join([_ATOM] * (n + 1))),
    "or": ("|", lambda n: " | ".join([_ATOM] * (n + 1))),
    "implies": ("->", lambda n: " -> ".join([_ATOM] * (n + 1))),
    "parens": ("(", lambda n: "(" * n + _ATOM + ")" * n),
}
_TOO_DEEP = {shape: _NESTED[shape][1](n) for shape, n in
             {"K": 340, "not": 1000, "and": 999, "or": 349, "implies": 349,
              "parens": 350}.items()}

def run_deeper(capsys, frames, *argv):
    """``run`` from ``frames`` extra frames down the caller's stack."""
    if frames:
        return run_deeper(capsys, frames - 1, *argv)
    return run(capsys, *argv)


def answers(capsys, command, text):
    """What ``command`` on open_door answers for ``text``, the same on the
    caller's stack and from 100 frames deeper."""
    where = ["s"] if command == "check" else []
    argv = [command, fixture_path("open_door"), *where, text]
    got = run(capsys, *argv)
    assert run_deeper(capsys, 100, *argv) == got
    return got


# The parser bounds nesting at MAX_NESTING levels whatever the interpreter
# and however deep the caller's stack, so these run on the caller's stack.
class TestDeepFormulas:
    @pytest.mark.parametrize("command", ["check", "extension"])
    @pytest.mark.parametrize("shape", sorted(_TOO_DEEP))
    def test_too_deep_is_syntax_error(self, capsys, command, shape):
        code, out, err = answers(capsys, command, _TOO_DEEP[shape])
        assert code == 2
        assert out == ""
        assert err.startswith("syntax error: formula nested too deeply (at position ")

    @pytest.mark.parametrize("text", [
        "K " * 250 + _ATOM,
        " | ".join([_ATOM] * 160),
        " | ".join([_ATOM] * 175),
        " -> ".join([_ATOM] * 210),
        "(" * 210 + _ATOM + ")" * 210,
    ], ids=["K250", "or160", "or175", "implies210", "parens210"])
    def test_deep_but_answerable(self, capsys, text):
        assert answers(capsys, "check", text) == (0, "true\n", "")

    @pytest.mark.parametrize("command", ["check", "extension"])
    @pytest.mark.parametrize("shape", sorted(_NESTED))
    def test_deepest_nesting_answers_as_shallow_one(self, capsys, command, shape):
        # MAX_NESTING is even, and each shape nested an even number of
        # levels is equivalent to the same shape nested two levels
        text = _NESTED[shape][1]
        assert MAX_NESTING % 2 == 0
        got = answers(capsys, command, text(MAX_NESTING))
        assert got[0] == 0
        assert got == answers(capsys, command, text(2))

    @pytest.mark.parametrize("command", ["check", "extension"])
    @pytest.mark.parametrize("shape", sorted(_NESTED))
    def test_one_level_more_is_rejected_where_it_opens(self, capsys, command, shape):
        token, text = _NESTED[shape]
        text = text(MAX_NESTING + 1)
        # the first MAX_NESTING + 1 occurrences of the token open the levels
        at = -1
        for _ in range(MAX_NESTING + 1):
            at = text.index(token, at + 1)
        assert answers(capsys, command, text) == (
            2, "", f"syntax error: formula nested too deeply (at position {at})\n")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

class TestValidate:
    @pytest.mark.parametrize("name", fixture_names())
    def test_bundled_fixtures_pass(self, capsys, name):
        code, out, _ = run(capsys, "validate", fixture_path(name))
        assert code == 0
        assert "ok" in out

    @pytest.mark.parametrize("name,needle", [
        ("broken_partition", "not covered"),
        ("missing_assignment", "missing value"),
        ("mirror_violation", "mirror violation"),
    ])
    def test_invalid_fixtures_diagnosed(self, capsys, name, needle):
        code, _, err = run(capsys, "validate", fixture_path(name))
        assert code == 3
        assert needle in err

    @pytest.mark.parametrize("content, needle", [
        (b"\xff\xfe{}", "cannot read model file: 'utf-8' codec"),
        (b"[" * 200000, "invalid JSON: maximum recursion depth exceeded"),
    ], ids=["not-utf8", "deep-json"])
    def test_undecodable_document_is_model_error(self, capsys, tmp_path,
                                                 content, needle):
        path = tmp_path / "bad.edl"
        path.write_bytes(content)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert err.startswith("model error: ") and needle in err


# ---------------------------------------------------------------------------
# extension / generative
# ---------------------------------------------------------------------------

class TestExtension:
    def test_every_world_satisfies_biconditional(self, capsys):
        code, out, _ = run(capsys, "extension", fixture_path("judging_case_2"),
                           "A ((p_b -> p_c) & (p_c -> p_b))")
        assert code == 0
        assert out.split() == ["s", "t", "u"]

    def test_empty_extension(self, capsys):
        code, out, _ = run(capsys, "extension", fixture_path("open_door"), "bot")
        assert code == 0
        assert "no worlds" in out


class TestGenerative:
    def test_family_and_verdicts(self, capsys):
        code, out, _ = run(capsys, "generative", fixture_path("judging_case_2"),
                           "s", "{bar_a,bar_b,bar_c}", "--kind", "l")
        assert code == 0
        assert "family: {bar_a} {bar_a,bar_b,bar_c}" in out
        assert "generative: true\n" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "generative", fixture_path("dl_strictness_witness"),
                           "b", "{x,y}", "--kind", "l", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == [["x"], ["y"]]
        assert data["generative"] is False
        assert "verdicts" not in data
        assert data["generative_family"] == [["x"], ["y"]]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_families_match_oracle(self, capsys, name):
        # the families, and the verdict on every nonempty candidate
        m = load_fixture(name)
        named = m.named_variables
        candidates = [frozenset(c) for size in range(1, len(named) + 1)
                      for c in itertools.combinations(named, size)]
        for w in m.worlds:
            for kind in ("g", "l"):
                code, out, _ = run(capsys, "generative", fixture_path(name), w,
                                   "--kind", kind, "--json")
                assert code == 0
                data = json.loads(out)
                fam = p_family(m, w, data["kind"])
                assert data["family"] == sorted(sorted(s) for s in fam)
                gen = data["generative_family"]
                assert gen == sorted(sorted(s) for s in connected_union_oracle(fam))
                for candidate in candidates:
                    code, out, _ = run(capsys, "generative", fixture_path(name), w,
                                       "{" + ",".join(sorted(candidate)) + "}",
                                       "--kind", kind, "--json")
                    assert code == 0
                    verdict = json.loads(out)["generative"]
                    assert verdict == cover_oracle(fam, candidate), (w, kind, candidate)
                    if candidate <= fam.support:
                        assert verdict == (sorted(candidate) in gen)

    def test_unit_vector_full_candidate(self, capsys, tmp_path):
        # sigma is all 28 pairs of the 8 variables: the partition route must
        # not enumerate its 2^28 - 2 splits
        path = unit_vector_model(tmp_path, 8)
        candidate = "{" + ",".join(f"x{i}" for i in range(8)) + "}"
        code, out, _ = run(capsys, "generative", path, "w0", candidate, "--kind", "g")
        assert code == 0
        assert "generative: true\n" in out
        code, out, _ = run(capsys, "generative", path, "w0", candidate, "--kind", "g",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["sigma"]) == 28
        assert len(data["generative_family"]) == 2 ** 8 - 8 - 1

    def test_chain_full_candidate_searches_no_splits(self, capsys, tmp_path,
                                                     monkeypatch):
        # the candidate is a family member with 2^16 - 2 two-block splits;
        # deciding it must not look for an evidence of any of them
        calls = []
        is_evidence = dependency.is_evidence
        monkeypatch.setattr(dependency, "is_evidence",
                            lambda *a: calls.append(a) or is_evidence(*a))
        path = chain_model(tmp_path, 16)
        candidate = "{" + ",".join(f"x{j}" for j in range(16)) + "}"
        code, out, _ = run(capsys, "generative", path, "w0", candidate, "--kind", "g")
        assert code == 0
        assert len(calls) == 0
        assert "generative: true\n" in out

    def test_kind_required(self, capsys):
        code, _, _ = run(capsys, "generative", fixture_path("open_door"), "s")
        assert code == 2

    def test_empty_candidate_rejected(self, capsys):
        code, _, err = run(capsys, "generative", fixture_path("open_door"), "s",
                           "{}", "--kind", "g")
        assert code == 2

    def test_undeclared_candidate_is_evaluation_error(self, capsys):
        code, out, err = run(capsys, "generative", fixture_path("open_door"), "s",
                             "{ghost}", "--kind", "g")
        assert code == 4
        assert out == ""
        assert err == "evaluation error: undeclared variable 'ghost'\n"


@pytest.mark.parametrize("argv", [("check", "a", "Dg({x};{h})"),
                                  ("generative", "a", "{h}", "--kind", "g")])
def test_hidden_variable_is_named_as_hidden(capsys, tmp_path, argv):
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps({
        "propositions": [],
        "variables": [{"name": "x", "hidden": False}, {"name": "h", "hidden": True}],
        "worlds": [{"id": w, "props": {}, "vals": {"x": i, "h": i}}
                   for i, w in enumerate("ab")],
        "epistemic_partition": [["a", "b"]], "nomic_partition": [["a", "b"]]}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (4, "")
    assert err == "evaluation error: hidden variable 'h' cannot be mentioned\n"


# ---------------------------------------------------------------------------
# bisim
# ---------------------------------------------------------------------------

class TestBisim:
    def test_witness_points_distinguished(self, capsys):
        path = fixture_path("dl_strictness_witness")
        code, out, _ = run(capsys, "bisim", path, "a", path, "b")
        assert code == 0
        assert "not bisimilar" in out
        assert "distinguishing: Dl({y};{y})" in out

    def test_bisimilar_points(self, capsys):
        path = fixture_path("dl_strictness_witness")
        code, out, _ = run(capsys, "bisim", path, "a", path, "a")
        assert code == 0
        assert out.strip() == "bisimilar"

    def test_distinguishing_conjuncts_are_distinct(self, capsys):
        code, out, _ = run(capsys, "bisim", fixture_path("experiment_2runs"), "w1",
                           fixture_path("experiment_3runs"), "w1")
        assert (code, out) == (0, "not bisimilar\ndistinguishing: !K !!Dg({x};{z})\n")

    def test_signature_mismatch_reported(self, capsys):
        code, _, err = run(capsys, "bisim", fixture_path("open_door"), "s",
                           fixture_path("dl_strictness_witness"), "a")
        assert code == 4
        assert "signatures differ" in err

    # n worlds, p only at the last, epistemic cells {w0,w1},{w2,w3},... and
    # nomic cells {w0},{w1,w2},...: w0 and w1 first split at modal depth n - 2
    @pytest.mark.parametrize("n, expected", [
        (40, (0, "not bisimilar\ndistinguishing: " + "A !!K !!" * 18 + "A !!K !p\n", "")),
        (400, (4, "", "evaluation error: distinguishing formula nested too deeply\n")),
    ])
    def test_long_chain(self, capsys, tmp_path, n, expected):
        ws = [f"w{i}" for i in range(n)]
        path = tmp_path / "chain.edl"
        path.write_text(json.dumps({
            "propositions": ["p"], "variables": [],
            "worlds": [{"id": w, "props": {"p": int(w == ws[-1])}, "vals": {}}
                       for w in ws],
            "epistemic_partition": [ws[i:i + 2] for i in range(0, n, 2)],
            "nomic_partition": [ws[:1]] + [ws[i:i + 2] for i in range(1, n, 2)]}))
        path = str(path)
        assert run_on_fresh_stack(capsys, "bisim", path, "w0", path, "w1") == expected

    def test_flag_form(self, capsys):
        path = fixture_path("dl_strictness_witness")
        code, out, _ = run(capsys, "bisim", "-m", path, "-w", "a",
                           "--model2", path, "--world2", "b", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["bisimilar"] is False
        assert data["distinguishing"] == "Dl({y};{y})"

    @pytest.mark.parametrize("depth", [[], ["--depth", "0"], ["--depth", "1"]])
    def test_one_refinement_per_command(self, capsys, monkeypatch, depth):
        from depmodal import bisim

        built = []

        class Counted(bisim._Refiner):
            def __init__(self, *models):
                built.append(models)
                super().__init__(*models)

        monkeypatch.setattr(bisim, "_Refiner", Counted)
        code, _, _ = run(capsys, "bisim", fixture_path("experiment_2runs"), "w1",
                         fixture_path("experiment_3runs"), "w1", *depth)
        assert code == 0
        assert len(built) == 1

    def test_one_core_per_difference_family(self, capsys, monkeypatch):
        from depmodal import bisim, dependency
        from depmodal.model import load_model_path
        from depmodal.syntax import GLOBAL, LOCAL

        cored = []
        original = bisim._core

        def counted(fam):
            cored.append(fam)
            return original(fam)

        def closed(fam):
            raise AssertionError("bisim closed a difference family")

        monkeypatch.setattr(bisim, "_core", counted)
        # bisim keeps no name of its own for the closure, so this patch is seen
        assert not hasattr(bisim, "generative_family")
        monkeypatch.setattr(dependency, "generative_family", closed)
        paths = [fixture_path("experiment_2runs"), fixture_path("experiment_3runs")]
        code, _, _ = run(capsys, "bisim", paths[0], "w1", paths[1], "w1")
        assert code == 0
        families = {dependency.p_family(m, w, kind)
                    for m in map(load_model_path, paths)
                    for w in m.worlds for kind in (GLOBAL, LOCAL)}
        assert len(cored) == len(families)
        assert set(cored) == families

    def test_unit_vector_points_split_at_level_zero(self, capsys, tmp_path):
        from depmodal.model import load_model_path
        from depmodal.semantics import evaluate
        from depmodal.syntax import modal_depth, parse_formula

        # the global family's generative family has 65,519 sets; level 0
        # must not build it
        path = unit_vector_model(tmp_path, 16)
        code, out, _ = run(capsys, "bisim", path, "w0", path, "w1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["bisimilar"] is False
        f = parse_formula(data["distinguishing"])
        assert modal_depth(f) == 0
        m = load_model_path(path)
        assert evaluate(m, "w0", f) != evaluate(m, "w1", f)

    def test_negative_depth_rejected_before_loading(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.edl")
        code, _, err = run(capsys, "bisim", missing, "a", missing, "b", "--depth", "-1")
        assert code == 2
        assert err.startswith("invalid argument: depth must be >= 0")

    # experiment_2runs w1 and experiment_3runs w1 first split at level 1
    @pytest.mark.parametrize("first, second, depth, code, bisimilar, modal", [
        (("dl_strictness_witness", "a"), ("dl_strictness_witness", "b"), 0, 0, False, 0),
        (("experiment_2runs", "w1"), ("experiment_3runs", "w1"), 0, 0, False, None),
        (("experiment_2runs", "w1"), ("experiment_3runs", "w1"), 1, 0, False, 1),
        (("experiment_2runs", "w1"), ("experiment_3runs", "w1"), 5, 0, False, 1),
        (("dl_strictness_witness", "a"), ("dl_strictness_witness", "a"), -1, 2, None, None),
        (("open_door", "s"), ("open_door", "s"), -1, 2, None, None),
        (("dl_strictness_witness", "a"), ("dl_strictness_witness", "b"), -1, 2, None, None),
        (("experiment_2runs", "w1"), ("experiment_3runs", "w1"), -1, 2, None, None),
    ])
    def test_depth(self, capsys, first, second, depth, code, bisimilar, modal):
        from depmodal.model import load_model_path
        from depmodal.semantics import evaluate
        from depmodal.syntax import modal_depth, parse_formula

        (n1, w1), (n2, w2) = first, second
        got, out, err = run(capsys, "bisim", fixture_path(n1), w1, fixture_path(n2),
                            w2, "--depth", str(depth), "--json")
        assert got == code
        if code == 2:
            assert err.startswith("invalid argument: depth must be >= 0")
            return
        data = json.loads(out)
        assert data["bisimilar"] is bisimilar
        if bisimilar:
            assert "distinguishing" not in data
        elif modal is None:
            assert data["distinguishing"] is None
        else:
            f = parse_formula(data["distinguishing"])
            assert modal_depth(f) == modal
            m1, m2 = load_model_path(fixture_path(n1)), load_model_path(fixture_path(n2))
            assert evaluate(m1, w1, f) != evaluate(m2, w2, f)


# ---------------------------------------------------------------------------
# axioms / examples
# ---------------------------------------------------------------------------

class TestAxioms:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "axioms", "--trials", "5", "--seed", "0")
        assert code == 0
        assert "counterexamples=0" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "axioms", "--trials", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["trials"] == 3
        assert data["counterexamples"] == []


class TestExamples:
    @pytest.mark.parametrize("name", fixture_names())
    def test_replay_passes(self, capsys, name):
        code, out, _ = run(capsys, "examples", name)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_judging_case_2_replay(self, capsys):
        code, out, _ = run(capsys, "examples", "judging_case_2")
        assert code == 0
        assert out.count("PASS") == 6
        assert "6/6 claims hold" in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "examples", "no_such_fixture")
        assert code == 2
        assert "unknown fixture" in err


def test_route_disagreement_is_internal_error(capsys, monkeypatch):
    from depmodal import semantics

    def broken(m, s, kind, x, y):
        return True

    monkeypatch.setattr(semantics, "dep_holds_direct", broken)
    code, _, err = run(capsys, "check", fixture_path("open_door"), "s",
                       "Dl({bar_p};{bar_r})")
    assert code == 5
    assert "routes disagree" in err


@pytest.mark.parametrize("flipped, first", [({"w1"}, "w1"), ({"w9"}, "w9"),
                                            ({"w24"}, "w24"),
                                            ({"w17", "w5"}, "w5")])
def test_extension_route_disagreement_names_first_world(capsys, monkeypatch,
                                                        flipped, first):
    from depmodal import dependency

    honest = dependency.dep_holds_by_evidence

    def broken(m, s, kind, x, y):
        return honest(m, s, kind, x, y) != (s in flipped)

    monkeypatch.setattr(dependency, "dep_holds_by_evidence", broken)
    # Dg({x};{z}) holds at every world of experiment_3runs (w1..w24)
    code, out, err = run(capsys, "extension", fixture_path("experiment_3runs"),
                         "Dg({x};{z})")
    assert code == 5
    assert out == ""
    assert err == (f"internal error: evaluation routes disagree at world "
                   f"{first!r}: direct=True evidence=False\n")


def test_route_disagreement_hidden_by_the_value_is_internal_error(
        capsys, monkeypatch):
    # the formula is true whatever the atom's value, so only a comparison at
    # the atom itself sees the evidence route flipped at s
    from depmodal import dependency, semantics

    honest = dependency.dep_holds_by_evidence

    def broken(m, s, kind, x, y):
        return honest(m, s, kind, x, y) != (s == "s")

    monkeypatch.setattr(dependency, "dep_holds_by_evidence", broken)
    door, text = fixture_path("open_door"), "Dl({bar_p};{bar_r}) | !Dl({bar_p};{bar_r})"
    for argv in (("check", door, "s", text), ("extension", door, text)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err == ("internal error: evaluation routes disagree at world "
                       "'s': direct=False evidence=True\n")
    with pytest.raises(AssertionError, match="routes disagree at world 's'"):
        semantics.evaluate(load_fixture("open_door"), "s", parse_formula(text))


@pytest.mark.parametrize("argv, walks", [
    (("check", fixture_path("open_door"), "s", "K Dg({bar_p};{bar_r})"), 1),
    (("extension", fixture_path("open_door"), "K Dg({bar_p};{bar_r})"), 1),
    (("examples", "judging_case_2"), len(fixture_claims("judging_case_2"))),
])
def test_one_walk_per_evaluation(capsys, monkeypatch, argv, walks):
    from depmodal import semantics

    calls = []
    real = semantics.check_names

    def counted(m, f):
        calls.append(f)
        return real(m, f)

    monkeypatch.setattr(semantics, "check_names", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == walks


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from depmodal import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "validate", broken)
    code, _, err = run(capsys, "validate", fixture_path("open_door"))
    assert code == 5
    assert err.startswith("internal error: ") and "boom" in err


class _ClosedPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_141_quietly(capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = main(["validate", fixture_path("open_door")])
    assert code == 141
    assert capsys.readouterr().err == ""


def _read_then_close(argv, env, lines: int) -> tuple[list[bytes], int, bytes]:
    """Run the command-line entry point on ``argv``, read ``lines`` lines of
    its stdout and close the pipe; the lines read, the exit status and
    stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "depmodal.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return read, proc.wait(timeout=60), err


def test_reader_that_stops_early_gets_141_and_empty_stderr(tmp_path, package_env):
    # one cell of worlds whose ids fill several pipe buffers, so the writer
    # is still writing when the reader closes its end
    ws = [f"world{i:05d}" for i in range(20000)]
    path = tmp_path / "big.edl"
    path.write_text(json.dumps({
        "propositions": ["p"], "variables": [],
        "worlds": [{"id": w, "props": {"p": 1}, "vals": {}} for w in ws],
        "epistemic_partition": [ws], "nomic_partition": [ws]}))
    assert _read_then_close(["extension", str(path), "p"], package_env, 1) == \
        ([b"world00000\n"], 141, b"")


def test_reader_gone_before_the_final_flush_gets_141_and_empty_stderr(package_env):
    # the output fits a buffered stdout, so nothing is written before the
    # flush at exit, and the reader has closed long before the child starts
    env = {k: v for k, v in package_env.items() if k != "PYTHONUNBUFFERED"}
    assert _read_then_close(["validate", fixture_path("open_door")], env, 0) == \
        ([], 141, b"")


def test_parser_reuse_keeps_results(capsys):
    from depmodal.cli import build_parser

    door = fixture_path("open_door")
    check = ("check", door, "s", "K Dg({bar_p};{bar_r})", "--json")
    bisim = ("bisim", fixture_path("experiment_2runs"), "w1",
             fixture_path("experiment_3runs"), "w1", "--json")
    alone = run(capsys, *check)
    bounded = run(capsys, *bisim, "--depth", "1")
    assert alone[0] == bounded[0] == 0
    code, out, err = run(capsys, *check, "--bogus")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --bogus" in err
    assert run(capsys, *check) == alone
    assert run(capsys, *bisim, "--depth", "1") == bounded
    assert run(capsys, *check) == alone
    unbounded = run(capsys, *bisim)
    assert json.loads(unbounded[1])["distinguishing"] == \
        json.loads(bounded[1])["distinguishing"]
    assert build_parser() is build_parser()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
