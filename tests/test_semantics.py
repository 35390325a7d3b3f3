import concurrent.futures
import itertools
import random
import sys
import threading
import typing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmodal import fixtures, semantics
from depmodal.dependency import dep_holds_by_evidence, p_family
from depmodal.errors import EvalError
from depmodal.harness import GenParams, random_formula, random_model
from depmodal.model import load_model
from depmodal.semantics import (dep_holds_direct, evaluate,
                                evaluate_by_evidence, extension,
                                extension_by_evidence)
from depmodal.syntax import (GLOBAL, LOCAL, TOP, All, DepG, DepL, Formula,
                             Know, Not, Prop, VarSet, dep_atom, iff, implies,
                             parse_formula)

from oracles import (agree_outside, collect_dep_atoms, delta, differs_on,
                     pair_search_oracle, recursive_eval_oracle)


def vs(*names):
    return frozenset(names)


def valid_on_model(m, f):
    return extension(m, f) == set(m.worlds)


def check(m, world, text):
    f = parse_formula(text)
    direct = evaluate(m, world, f)
    routed = evaluate_by_evidence(m, world, f)
    assert direct == routed, f"routes disagree on {text} at {world}"
    return direct


# ---------------------------------------------------------------------------
# Documented fixture claims
# ---------------------------------------------------------------------------

class TestFixtureClaims:
    def test_open_door(self, open_door):
        assert check(open_door, "s", "K Dg({bar_p};{bar_r})")
        assert check(open_door, "s", "K !Dl({bar_p};{bar_r})")

    def test_open_door_dependency_details(self, open_door):
        # the lawlike block contains a pair varying door-state with entry
        assert check(open_door, "s", "Dg({bar_p};{bar_r})")
        # but no alternative to s itself keeps the key fixed and varies both
        assert not check(open_door, "s", "Dl({bar_p};{bar_r})")

    def test_experiment_2runs_no_knowledge(self, experiment_2runs):
        f = "K Dg({x};{z})"
        for w in experiment_2runs.worlds:
            assert not check(experiment_2runs, w, f)

    def test_experiment_3runs_knowledge_everywhere(self, experiment_3runs):
        f = "K Dg({x};{z})"
        for w in experiment_3runs.worlds:
            assert check(experiment_3runs, w, f)

    def test_judging_case_1(self, judging_case_1):
        assert check(judging_case_1, "s",
                     "K Dl({bar_a,bar_b};{bar_c}) & "
                     "K (Dl({bar_a};{bar_c}) | Dl({bar_b};{bar_c}))")

    def test_judging_case_2(self, judging_case_2):
        m = judging_case_2
        assert check(m, "s", "K Dl({bar_a,bar_b};{bar_c}) & "
                             "K (!Dl({bar_a};{bar_c}) & !Dl({bar_b};{bar_c}))")
        assert check(m, "s", "K A (p_a -> p_b)")
        assert not check(m, "s", "K Dl({bar_b};{bar_c})")

    def test_judging_case_2_biconditional_everywhere(self, judging_case_2):
        f = parse_formula("A ((p_b -> p_c) & (p_c -> p_b))")
        assert extension(judging_case_2, f) == set(judging_case_2.worlds)


# ---------------------------------------------------------------------------
# Clause behaviour
# ---------------------------------------------------------------------------

class TestClauses:
    def test_empty_argument_atoms_false(self, open_door, judging_case_2):
        for m in (open_door, judging_case_2):
            for w in m.worlds:
                assert not check(m, w, "Dg({};{bar_a})"
                                 if "bar_a" in m.named_variables else "Dg({};{bar_p})")

    def test_single_world_model_atoms_false(self):
        from depmodal.model import load_model
        m = load_model({
            "propositions": ["p"],
            "variables": [{"name": "x", "hidden": False}],
            "worlds": [{"id": "w", "props": {"p": 1}, "vals": {"x": 7}}],
            "epistemic_partition": [["w"]],
            "nomic_partition": [["w"]],
        })
        assert not check(m, "w", "Dg({x};{x})")
        assert not check(m, "w", "Dl({x};{x})")
        assert check(m, "w", "K A p")

    def test_know_quantifies_over_epistemic_cell(self, judging_case_1):
        # s cannot rule out t, where p_a fails
        assert not check(judging_case_1, "s", "K p_a")
        assert check(judging_case_1, "s", "K p_c")

    def test_all_quantifies_over_nomic_cell(self, judging_case_1):
        assert not check(judging_case_1, "s", "A p_c")

    def test_overlapping_arguments_allowed(self, witness):
        # x and y overlap freely; no normalization happens before evaluation
        assert check(witness, "b", "Dl({x,y};{y})")
        assert check(witness, "b", "Dl({y};{y})")
        assert not check(witness, "a", "Dl({y};{y})")

    def test_undeclared_names_error(self, open_door):
        with pytest.raises(EvalError):
            evaluate(open_door, "s", parse_formula("mystery"))
        with pytest.raises(EvalError):
            evaluate(open_door, "s", parse_formula("Dg({ghost};{bar_p})"))
        with pytest.raises(EvalError):
            evaluate(open_door, "zz", TOP)

    def test_undeclared_name_reported_even_when_short_circuited(self, open_door):
        f = parse_formula("bot & Dg({ghost};{bar_p})")
        with pytest.raises(EvalError):
            evaluate(open_door, "s", f)

    def test_extension_boundaries(self, open_door):
        assert extension(open_door, TOP) == set(open_door.worlds)
        assert extension(open_door, Not(TOP)) == set()


ASKS = pytest.mark.parametrize("ask", [
    lambda m, s, kind: dep_holds_direct(m, s, kind, vs("y"), vs("y")),
    lambda m, s, kind: dep_holds_by_evidence(m, s, kind, vs("y"), vs("y")),
    p_family,
], ids=["direct", "evidence", "p_family"])
WARM = pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])


def _warm_up(m, ask):
    for w in m.worlds:
        for kind in (GLOBAL, LOCAL):
            ask(m, w, kind)


@WARM
@ASKS
def test_unknown_kind_rejected(ask, warm):
    # an unknown kind must not be answered from, or as, a cached global entry
    m = fixtures.load_fixture("dl_strictness_witness")
    if warm:
        _warm_up(m, ask)
    for w in m.worlds:
        with pytest.raises(ValueError, match="kind must be one of"):
            ask(m, w, "bogus")
    # the kind is checked before the world
    with pytest.raises(ValueError, match="kind must be one of"):
        ask(m, "zz", "bogus")


@WARM
@ASKS
@pytest.mark.parametrize("kind", [GLOBAL, LOCAL])
def test_unknown_world_rejected(ask, warm, kind):
    m = fixtures.load_fixture("dl_strictness_witness")
    if warm:
        _warm_up(m, ask)
    with pytest.raises(EvalError, match="unknown world"):
        ask(m, "zz", kind)


@pytest.mark.parametrize("holds", [dep_holds_direct, dep_holds_by_evidence],
                         ids=["direct", "evidence"])
def test_undeclared_name_rejected_after_caching(holds):
    # names are checked only on a memo miss; a miss for an undeclared name
    # must still raise, whatever else is cached at the same anchor
    m = fixtures.load_fixture("dl_strictness_witness")
    for w in m.worlds:
        for kind in (GLOBAL, LOCAL):
            holds(m, w, kind, vs("y"), vs("y"))
    if holds is dep_holds_direct:
        # the direct search's row getters are cached too
        assert ("projections", vs("y"), vs("y")) in m._memo_table
    for w in m.worlds:
        for kind in (GLOBAL, LOCAL):
            for x, y in ((vs("ghost"), vs("y")), (vs("y"), vs("y", "ghost"))):
                with pytest.raises(EvalError, match="undeclared variable 'ghost'"):
                    holds(m, w, kind, x, y)


def test_projections_built_once_per_argument_pair(monkeypatch):
    # one nomic class of four distinct rows and a lone world: several
    # anchors of each kind ask for the same (x, y)
    m = load_model({
        "propositions": [],
        "variables": [{"name": "x", "hidden": False},
                      {"name": "y", "hidden": False},
                      {"name": "z", "hidden": False},
                      {"name": "h", "hidden": True}],
        "worlds": [{"id": f"w{i}", "props": {},
                    "vals": {"x": i % 2, "y": i // 2 % 2, "z": 0, "h": 0}}
                   for i in range(5)],
        "epistemic_partition": [["w0", "w1", "w2", "w3", "w4"]],
        "nomic_partition": [["w0", "w1", "w2", "w3"], ["w4"]]})
    built = []
    real = semantics._projections

    def counting(m, x, y):
        built.append((x, y))
        return real(m, x, y)

    monkeypatch.setattr(semantics, "_projections", counting)
    pairs = [(vs("x"), vs("y")), (vs("y"), vs("x")), (vs("x", "y"), vs("y", "z"))]
    for x, y in pairs:
        for kind in (GLOBAL, LOCAL):
            for w in m.worlds:
                assert dep_holds_direct(m, w, kind, x, y) == \
                    any(differs_on(m, u, v, x) and differs_on(m, u, v, y)
                        and agree_outside(m, u, v, x | y)
                        for u in m.nomic_class(w)
                        for v in (m.nomic_class(w) if kind == GLOBAL else [w]))
    assert built == pairs
    keys = [key for key in m._memo_table if key[0] == "projections"]
    assert keys == [("projections", x, y) for x, y in pairs]


def test_equal_rows_share_one_local_entry():
    # u and v share a nomic class and a row; t has the row of u but another
    # class; w has another row
    m = load_model({
        "propositions": ["p"],
        "variables": [{"name": "x", "hidden": False},
                      {"name": "y", "hidden": False},
                      {"name": "h", "hidden": True}],
        "worlds": [{"id": w, "props": {"p": int(w == "v")}, "vals": vals}
                   for w, vals in (("u", {"x": 0, "y": 0, "h": 0}),
                                   ("v", {"x": 0, "y": 0, "h": 0}),
                                   ("w", {"x": 1, "y": 1, "h": 0}),
                                   ("t", {"x": 0, "y": 0, "h": 0}))],
        "epistemic_partition": [["u", "v", "w", "t"]],
        "nomic_partition": [["u", "v", "w"], ["t"]]})
    # atoms are memoized per anchor
    asks = {"direct": lambda s: dep_holds_direct(m, s, LOCAL, vs("x"), vs("y")),
            "evidence": lambda s: dep_holds_by_evidence(m, s, LOCAL, vs("x"), vs("y"))}
    for name, ask in asks.items():
        assert ask("u") is ask("v")
        ask("w")
        ask("t")
        anchors = [key[-1] for key in m._memo_table
                   if key[0] == name and key[1] == LOCAL]
        assert sorted(anchors) == ["t", "u", "w"], name
    # difference families are memoized in one table per nomic class, which
    # holds the class's global family and one local family per distinct row,
    # keyed by their anchors
    local = {s: p_family(m, s, LOCAL) for s in ("u", "v", "w", "t")}
    assert local["u"] is local["v"]
    assert local["w"] is not local["u"] and local["t"] is not local["u"]
    total = {s: p_family(m, s, GLOBAL) for s in ("u", "v", "w", "t")}
    assert total["u"] is total["v"] is total["w"] and total["t"] is not total["u"]
    tables = {key[1]: entry[1] for key, entry in m._memo_table.items()
              if key[0] == "families"}
    big, lone = m.nomic_class("u"), m.nomic_class("t")
    assert set(tables) == {big, lone}
    assert set(tables[big]) == {big, "u", "w"} and set(tables[lone]) == {lone, "t"}
    assert tables[big]["u"] is local["u"] and tables[big]["w"] is local["w"]
    assert tables[big][big] is total["u"]
    assert tables[lone]["t"] is local["t"] and tables[lone][lone] is total["t"]


@st.composite
def models_with_repeated_rows(draw):
    """Models whose worlds take fewer distinct rows than there are worlds, so
    some rows repeat, with zero to three named variables, zero to two hidden
    ones that split some named-equal rows, and one to three nomic classes."""
    named = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    hidden = [f"h{i}" for i in range(draw(st.integers(0, 2)))]
    n = draw(st.integers(2, 8))
    row = st.tuples(*[st.integers(0, 2)] * len(named), *[st.integers(0, 1)] * len(hidden))
    rows = draw(st.lists(row, min_size=1, max_size=n - 1))
    picks = draw(st.lists(st.sampled_from(rows), min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    worlds = [f"w{i}" for i in range(n)]
    return load_model({
        "propositions": [],
        "variables": ([{"name": x, "hidden": False} for x in named]
                      + [{"name": h, "hidden": True} for h in hidden]),
        "worlds": [{"id": w, "props": {}, "vals": dict(zip(named + hidden, r))}
                   for w, r in zip(worlds, picks)],
        "epistemic_partition": [worlds],
        "nomic_partition": [[w for w, c in zip(worlds, classes) if c == label]
                            for label in sorted(set(classes))]})


@settings(max_examples=150, deadline=None)
@given(m=models_with_repeated_rows())
def test_families_and_atoms_match_pair_enumeration(m):
    subsets = all_subsets(m.named_variables)
    for s in m.worlds:
        cls = m.nomic_class(s)
        pairs = {GLOBAL: [(u, v) for u in cls for v in cls],
                 LOCAL: [(t, s) for t in cls]}
        for kind, kind_pairs in pairs.items():
            family = {delta(m, u, v) for u, v in kind_pairs} - {frozenset()}
            assert p_family(m, s, kind) == family
            for x in subsets:
                for y in subsets:
                    expected = any(differs_on(m, u, v, x) and differs_on(m, u, v, y)
                                   and agree_outside(m, u, v, x | y)
                                   for u, v in kind_pairs)
                    assert dep_holds_direct(m, s, kind, x, y) == expected
                    assert dep_holds_by_evidence(m, s, kind, x, y) == expected


def _one_class(m):
    """``m`` with its worlds in one nomic class."""
    return load_model({**m.to_dict(), "nomic_partition": [list(m.worlds)]})


@pytest.mark.parametrize("hidden", [0, 1, 2])
@pytest.mark.parametrize("max_value", [1, 2])
def test_direct_search_matches_pair_oracle(max_value, hidden):
    # one class of up to 24 worlds with values in range(max_value): rows
    # repeat, and many pairs agree outside x | y, so agreement is tested
    # first on large groups; x and y range over every subset, empty included
    for seed in range(40):
        m = _one_class(random_model(GenParams(
            min_worlds=12, max_worlds=24, num_named=3, num_hidden=hidden,
            max_value=max_value, seed=seed)))
        subsets = all_subsets(m.named_variables)
        for x in subsets:
            for y in subsets:
                for kind in (GLOBAL, LOCAL):
                    answers = {}
                    for s in m.worlds:
                        anchor = m._anchor(s, kind)
                        if anchor not in answers:
                            answers[anchor] = pair_search_oracle(m, s, kind, x, y)
                        assert dep_holds_direct(m, s, kind, x, y) == answers[anchor]


@pytest.mark.parametrize("with_pair", [True, False])
def test_direct_search_finds_the_one_agreeing_pair(with_pair):
    # 400 worlds in one class, with distinct values of z, outside x | y,
    # except that the last two share one and differ on x and on y; without
    # those two, no pair agrees outside x | y
    n = 400 if with_pair else 398
    zs = list(range(398)) + [398, 398]
    m = load_model({
        "propositions": [],
        "variables": [{"name": v, "hidden": False} for v in ("x", "y", "z")]
                     + [{"name": "h", "hidden": True}],
        "worlds": [{"id": f"w{i}", "props": {},
                    "vals": {"x": i % 2, "y": i % 2, "z": zs[i], "h": 0}}
                   for i in range(n)],
        "epistemic_partition": [[f"w{i}" for i in range(n)]],
        "nomic_partition": [[f"w{i}" for i in range(n)]]})
    x, y = vs("x"), vs("y")
    total = pair_search_oracle(m, "w0", GLOBAL, x, y)
    assert total is with_pair
    for s in m.worlds:
        assert dep_holds_direct(m, s, GLOBAL, x, y) is total
        local = pair_search_oracle(m, s, LOCAL, x, y)
        assert local is (with_pair and s in ("w398", "w399"))
        assert dep_holds_direct(m, s, LOCAL, x, y) is local


# ---------------------------------------------------------------------------
# Validity driver
# ---------------------------------------------------------------------------

class TestValidOnModel:
    def test_veridicality_on_random_models(self):
        rng = random.Random(0)
        for seed in range(40):
            m = random_model(GenParams(seed=seed, max_worlds=6))
            f = random_formula(rng, m)
            assert valid_on_model(m, implies(Know(f), f))
            assert valid_on_model(m, implies(All(f), f))

    def test_symmetry_valid(self, judging_case_1, witness):
        for m in (judging_case_1, witness):
            names = sorted(m.named_variables)
            for kind in (GLOBAL, LOCAL):
                x, y = vs(names[0]), vs(names[-1])
                assert valid_on_model(m, iff(dep_atom(kind, x, y),
                                             dep_atom(kind, y, x)))

    def test_global_stability_valid(self, witness, experiment_2runs):
        for m in (witness, experiment_2runs):
            names = sorted(m.named_variables)
            f = implies(DepG(vs(names[0]), vs(names[-1])),
                        All(DepG(vs(names[0]), vs(names[-1]))))
            assert valid_on_model(m, f)


# ---------------------------------------------------------------------------
# Route equivalence and documented semantic laws, on random models
# ---------------------------------------------------------------------------

def all_subsets(names):
    return [frozenset(c) for size in range(len(names) + 1)
            for c in itertools.combinations(names, size)]


class TestSemanticLaws:
    def test_route_equivalence_random_sample(self):
        params = GenParams(max_worlds=6, num_named=3, num_hidden=1)
        for seed in range(60):
            m = random_model(replace(params, seed=seed))
            subsets = all_subsets(sorted(m.named_variables))
            for kind in (GLOBAL, LOCAL):
                for x in subsets:
                    for y in subsets:
                        f = dep_atom(kind, x, y)
                        for s in m.worlds:
                            assert evaluate(m, s, f) == evaluate_by_evidence(m, s, f)

    def test_global_atom_definable_from_local(self):
        # Dg(X,Y) <-> !A !Dl(X,Y), on fixtures and random models
        params = GenParams(max_worlds=6, num_named=3)
        for seed in range(30):
            m = random_model(replace(params, seed=seed))
            names = sorted(m.named_variables)
            for x in (vs(names[0]), vs(*names[:2])):
                for y in (vs(names[-1]),):
                    f = iff(DepG(x, y), Not(All(Not(DepL(x, y)))))
                    assert valid_on_model(m, f)

    def test_global_atoms_constant_on_nomic_cells(self):
        params = GenParams(max_worlds=6, num_named=3, num_hidden=1)
        for seed in range(30):
            m = random_model(replace(params, seed=seed))
            subsets = [s for s in all_subsets(sorted(m.named_variables)) if s]
            for x in subsets:
                for y in subsets:
                    f = DepG(x, y)
                    for cell in m.nomic_partition:
                        values = {evaluate(m, w, f) for w in cell}
                        assert len(values) == 1

    def test_weakening_and_separation_semantically(self):
        params = GenParams(max_worlds=6, num_named=3)
        rng = random.Random(12)
        for seed in range(30):
            m = random_model(replace(params, seed=seed))
            names = sorted(m.named_variables)
            for kind in (GLOBAL, LOCAL):
                for _ in range(5):
                    x = frozenset(rng.sample(names, rng.randint(1, len(names))))
                    y = frozenset(rng.sample(names, rng.randint(1, len(names))))
                    wide = x | frozenset(rng.sample(names, rng.randint(0, len(names))))
                    for s in m.worlds:
                        if evaluate(m, s, dep_atom(kind, x, y)):
                            assert evaluate(m, s, dep_atom(kind, wide, y))
                        lhs = evaluate(m, s, dep_atom(kind, x, y))
                        rhs = (evaluate(m, s, dep_atom(kind, x - y, y))
                               or evaluate(m, s, dep_atom(kind, x & y, y)))
                        assert lhs == rhs

    def test_concurrent_evaluation_is_consistent(self):
        # cold caches, so the memo's write path runs under threads: every
        # thread must see the serial answers and one shared family object
        subsets = all_subsets(("x", "y", "z"))[1:]

        def answers(m):
            fams, atoms = {}, {}
            for w in m.worlds:
                for kind in (GLOBAL, LOCAL):
                    fams[w, kind] = p_family(m, w, kind)
                    for holds in (dep_holds_direct, dep_holds_by_evidence):
                        for x in subsets:
                            for y in subsets:
                                atoms[holds.__name__, w, kind, x, y] = \
                                    holds(m, w, kind, x, y)
            return fams, atoms

        start = threading.Barrier(8)

        def contended(m):
            start.wait(timeout=30)
            return answers(m)

        pool = concurrent.futures.ThreadPoolExecutor(max_workers=8)
        interval = sys.getswitchinterval()
        try:
            # the serial run waits with a timeout too: a lock held around a
            # nested computation deadlocks even a single thread
            expected_fams, expected_atoms = pool.submit(
                answers, fixtures.load_fixture("experiment_3runs")).result(timeout=30)
            m = fixtures.load_fixture("experiment_3runs")
            sys.setswitchinterval(1e-5)
            futures = [pool.submit(contended, m) for _ in range(8)]
            results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False, cancel_futures=True)
        first_fams = results[0][0]
        for fams, atoms in results:
            assert atoms == expected_atoms
            assert fams == expected_fams
            assert all(fams[key] is first_fams[key] for key in fams)

    def test_interdependence_cover_biconditional(self):
        # D(X,Y) <-> some nonempty sub-blocks of X and Y form one generative block
        from depmodal.harness import SchemaInstance, instantiate
        params = GenParams(max_worlds=6, num_named=3)
        rng = random.Random(5)
        for seed in range(20):
            m = random_model(replace(params, seed=seed))
            names = sorted(m.named_variables)
            for kind in (GLOBAL, LOCAL):
                x = frozenset(rng.sample(names, rng.randint(1, 2)))
                y = frozenset(rng.sample(names, rng.randint(1, 2)))
                f = instantiate(SchemaInstance("cover", kind, varsets=(x, y)))
                assert valid_on_model(m, f)


# ---------------------------------------------------------------------------
# Box values memoized per cell: agreement with plain recursion, and the cost
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), formula_seed=st.integers(0, 2**32 - 1),
       depth=st.integers(3, 4))
def test_memoized_evaluation_matches_recursive_oracle(seed, formula_seed, depth):
    m = random_model(GenParams(seed=seed))
    f = random_formula(random.Random(formula_seed), m, depth)
    for holds, at, ext in ((dep_holds_direct, evaluate, extension),
                           (dep_holds_by_evidence, evaluate_by_evidence,
                            extension_by_evidence)):
        expected = {s: recursive_eval_oracle(m, s, f, holds) for s in m.worlds}
        assert {s: at(m, s, f) for s in m.worlds} == expected
        assert ext(m, f) == {s for s, value in expected.items() if value}
        if holds is dep_holds_direct:
            assert valid_on_model(m, f) == all(expected.values())


def test_nested_boxes_ask_each_atom_once_per_world(monkeypatch):
    # one 30-world cell where every world agrees, so !Dl(x;y) holds everywhere;
    # unmemoized, K^8 would ask the atom about 30^9 times
    worlds = [f"w{i}" for i in range(30)]
    m = load_model({"propositions": [],
                    "variables": [{"name": "x", "hidden": False},
                                  {"name": "y", "hidden": False}],
                    "worlds": [{"id": w, "props": {}, "vals": {"x": 0, "y": 0}}
                               for w in worlds],
                    "epistemic_partition": [worlds],
                    "nomic_partition": [worlds]})
    f = parse_formula("K " * 8 + "!Dl({x};{y})")
    calls = []

    def counted(m, s, kind, x, y):
        calls.append(s)
        return dep_holds_direct(m, s, kind, x, y)

    monkeypatch.setattr(semantics, "dep_holds_direct", counted)
    assert extension(m, f) == set(worlds)
    assert len(calls) <= 30
    calls.clear()
    assert evaluate(m, "w7", f)
    assert len(calls) <= 30


def test_box_memo_adds_no_stack_per_nesting_level(open_door):
    # plain recursion evaluates about 320 nested boxes under the default
    # recursion limit; the memo must not lower that
    f = parse_formula("K " * 250 + "Dg({bar_p};{bar_r})")
    assert evaluate(open_door, "s", f) == evaluate_by_evidence(open_door, "s", f)
    assert extension(open_door, f) == extension_by_evidence(open_door, f)


# ---------------------------------------------------------------------------
# The hot walks dispatch on exact node type: none may skip a node class
# ---------------------------------------------------------------------------

NODE_CLASSES = sorted(Formula.__subclasses__(), key=lambda c: c.__name__)
GHOST = "ghost"


def _declared(m):
    """For each node field type, a value naming only what ``m`` declares."""
    return {Formula: TOP, VarSet: frozenset(m.named_variables[:1]),
            str: m.propositions[0]}


def _nestings(m, cls, values):
    """Nodes of ``cls`` with one field at a time set to each of
    ``values[its type]`` and every other field declared, as (field, node).
    A field type missing from ``values`` is a KeyError, not a skip."""
    hints = typing.get_type_hints(cls)
    declared = {name: _declared(m)[hint] for name, hint in hints.items()}
    for name, hint in hints.items():
        for value in values[hint]:
            yield name, cls(**{**declared, name: value})


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_node_class_is_evaluated(open_door, cls):
    # with every field declared, each route evaluates the node
    m = open_door
    f = cls(**{name: _declared(m)[hint]
               for name, hint in typing.get_type_hints(cls).items()})
    holding = {w for w in m.worlds if evaluate(m, w, f)}
    assert holding == {w for w in m.worlds if evaluate_by_evidence(m, w, f)}
    assert extension(m, f) == extension_by_evidence(m, f) == holding


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_undeclared_name_found_under_every_node_class(open_door, cls):
    m = open_door
    ghost, x = frozenset({GHOST}), frozenset(m.named_variables[:1])
    undeclared = {Formula: [Prop(GHOST), DepG(ghost, x), DepL(x, ghost)],
                  VarSet: [ghost, ghost | x], str: [GHOST]}
    for _, f in _nestings(m, cls, undeclared):
        for run in (lambda: evaluate(m, "s", f),
                    lambda: evaluate_by_evidence(m, "s", f),
                    lambda: extension(m, f),
                    lambda: extension_by_evidence(m, f)):
            with pytest.raises(EvalError, match=GHOST):
                run()


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_dep_atom_collected_under_every_node_class(open_door, cls):
    a, b = frozenset({"a"}), frozenset({"b", "c"})
    atoms = {DepG(a, b): (GLOBAL, a, b), DepL(b, a): (LOCAL, b, a)}
    values = {**{hint: [value] for hint, value in _declared(open_door).items()},
              Formula: list(atoms)}
    for field, f in _nestings(open_door, cls, values):
        inner = getattr(f, field)
        if inner in atoms:
            assert atoms[inner] in collect_dep_atoms(f), (cls.__name__, field)
