import concurrent.futures
import itertools
import random
import sys
import threading
from dataclasses import replace

import pytest

from depmodal import fixtures
from depmodal.dependency import (dep_holds_by_evidence, generative_sets,
                                 p_family)
from depmodal.errors import EvalError
from depmodal.harness import GenParams, random_formula, random_model
from depmodal.semantics import (Verdict, dep_holds_direct, evaluate,
                                evaluate_both, evaluate_by_evidence,
                                extension, valid_on_model)
from depmodal.syntax import (GLOBAL, LOCAL, TOP, All, DepG, DepL, Know, Not,
                             dep_atom, iff, implies, parse_formula)


def vs(*names):
    return frozenset(names)


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

    def test_evaluate_both_verdicts(self, open_door):
        d, e = evaluate_both(open_door, "s", parse_formula("K Dg({bar_p};{bar_r})"))
        assert d == Verdict(True, "direct")
        assert e == Verdict(True, "evidence")


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("ask", [
    lambda m, s, kind: dep_holds_direct(m, s, kind, vs("y"), vs("y")),
    lambda m, s, kind: dep_holds_by_evidence(m, s, kind, vs("y"), vs("y")),
    p_family,
    generative_sets,
], ids=["direct", "evidence", "p_family", "generative_sets"])
def test_unknown_kind_rejected(ask, warm):
    # an unknown kind must not be answered from, or as, a cached global entry
    m = fixtures.load_fixture("dl_strictness_witness")
    if warm:
        for w in m.worlds:
            for kind in (GLOBAL, LOCAL):
                ask(m, w, kind)
    for w in m.worlds:
        with pytest.raises(ValueError, match="kind must be one of"):
            ask(m, w, "bogus")


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
            gen, atoms = {}, {}
            for w in m.worlds:
                for kind in (GLOBAL, LOCAL):
                    gen[w, kind] = generative_sets(m, w, kind)
                    for holds in (dep_holds_direct, dep_holds_by_evidence):
                        for x in subsets:
                            for y in subsets:
                                atoms[holds.__name__, w, kind, x, y] = \
                                    holds(m, w, kind, x, y)
            return gen, atoms

        start = threading.Barrier(8)

        def contended(m):
            start.wait(timeout=30)
            return answers(m)

        pool = concurrent.futures.ThreadPoolExecutor(max_workers=8)
        interval = sys.getswitchinterval()
        try:
            # the serial run waits with a timeout too: a lock held around a
            # nested computation deadlocks even a single thread
            expected_gen, expected_atoms = pool.submit(
                answers, fixtures.load_fixture("experiment_3runs")).result(timeout=30)
            m = fixtures.load_fixture("experiment_3runs")
            sys.setswitchinterval(1e-5)
            futures = [pool.submit(contended, m) for _ in range(8)]
            results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False, cancel_futures=True)
        first_gen = results[0][0]
        for gen, atoms in results:
            assert atoms == expected_atoms
            assert gen == expected_gen
            assert all(gen[key] is first_gen[key] for key in gen)

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
