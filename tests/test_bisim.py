import itertools
import random
from dataclasses import replace

import pytest

from depmodal.bisim import find_distinguishing_formula, greatest_bisimulation
from depmodal.dependency import atom_holds_from_family, generative_sets, p_family
from depmodal.harness import GenParams, random_model
from depmodal.model import PointedModel, load_model
from depmodal.semantics import evaluate
from depmodal.syntax import GLOBAL, LOCAL, DepL, Prop, dep_atom, modal_depth

from oracles import are_bisimilar, bisimulation_oracle


def vs(*names):
    return frozenset(names)


def relabeled(m, tag):
    """The same model with every world id suffixed; a disjoint copy."""
    doc = m.to_dict()
    rename = {w["id"]: w["id"] + tag for w in doc["worlds"]}
    for w in doc["worlds"]:
        w["id"] = rename[w["id"]]
    for field in ("epistemic_partition", "nomic_partition"):
        doc[field] = [[rename[w] for w in cell] for cell in doc[field]]
    return load_model(doc)


def doubled(m):
    """Disjoint union of two relabeled copies of ``m`` as one model."""
    a, b = relabeled(m, "@1").to_dict(), relabeled(m, "@2").to_dict()
    doc = {
        "propositions": a["propositions"],
        "variables": a["variables"],
        "worlds": a["worlds"] + b["worlds"],
        "epistemic_partition": a["epistemic_partition"] + b["epistemic_partition"],
        "nomic_partition": a["nomic_partition"] + b["nomic_partition"],
    }
    if "mirrors" in a:
        doc["mirrors"] = a["mirrors"]
    return load_model(doc)


def one_world_model(prop_value):
    return load_model({
        "propositions": ["p"],
        "variables": [{"name": "x", "hidden": False}],
        "worlds": [{"id": "o", "props": {"p": prop_value}, "vals": {"x": 0}}],
        "epistemic_partition": [["o"]],
        "nomic_partition": [["o"]],
    })


# ---------------------------------------------------------------------------
# bisimulation_oracle
# ---------------------------------------------------------------------------

class TestCheckBisimulation:
    def test_identity_on_self(self, open_door, judging_case_1, witness):
        for m in (open_door, judging_case_1, witness):
            identity = {(w, w) for w in m.worlds}
            assert bisimulation_oracle(m, m, identity)

    def test_empty_relation_fails(self, open_door):
        assert not bisimulation_oracle(open_door, open_door, set())

    def test_proposition_mismatch_fails(self, open_door):
        bad = {("s", "w4")}   # worlds disagree on r
        assert not bisimulation_oracle(open_door, open_door, bad)

    def test_different_signatures_fail(self, open_door, witness):
        assert not bisimulation_oracle(open_door, witness, {("s", "a")})

    def test_witness_pair_fails_on_local_family(self, witness):
        # the stated local generative families differ between a and b
        assert generative_sets(witness, "a", LOCAL).members == \
            {vs("x"), vs("x", "y")}
        assert generative_sets(witness, "b", LOCAL).members == \
            {vs("x"), vs("y")}
        assert generative_sets(witness, "a", GLOBAL) == \
            generative_sets(witness, "b", GLOBAL)
        assert not bisimulation_oracle(witness, witness,
                                       {("a", "b")} | {(w, w) for w in witness.worlds})

    def test_transfer_violation_detected(self, judging_case_1):
        # s pairs with u only: u has no epistemic alternative matching t
        m = judging_case_1
        assert not bisimulation_oracle(m, m, {("s", "s"), ("t", "t"), ("u", "u"),
                                              ("s", "u")})


# ---------------------------------------------------------------------------
# greatest_bisimulation
# ---------------------------------------------------------------------------

class TestGreatestBisimulation:
    def test_every_world_pairs_with_both_copies(self, witness, judging_case_2):
        for m in (witness, judging_case_2):
            two = doubled(m)
            g = greatest_bisimulation(m, two)
            for w in m.worlds:
                assert (w, w + "@1") in g
                assert (w, w + "@2") in g

    def test_witness_pair_excluded_at_base(self, witness):
        g = greatest_bisimulation(witness, witness)
        assert ("a", "b") not in g
        assert all((w, w) in g for w in witness.worlds)

    def test_experiment_2runs_self_fixpoint(self, experiment_2runs):
        m = experiment_2runs
        g = greatest_bisimulation(m, m)
        # value twins in the same row are separated by their generative families
        assert ("w1", "w2") not in g
        # the x=1 and x=2 rows are interchangeable: values are not observable,
        # only dependency patterns are
        expected = set()
        for group in ({"w1", "w4", "w5", "w8"}, {"w2", "w3", "w6", "w7"}):
            expected |= {(u, v) for u in group for v in group}
        assert g == frozenset(expected)

    def test_nonempty_fixpoint_passes_check(self, open_door, witness,
                                            experiment_2runs, judging_case_1):
        for m in (open_door, witness, experiment_2runs, judging_case_1):
            g = greatest_bisimulation(m, m)
            assert g
            assert bisimulation_oracle(m, m, g)

    def test_self_fixpoint_is_equivalence(self, experiment_2runs, judging_case_2):
        for m in (experiment_2runs, judging_case_2):
            pairs = greatest_bisimulation(m, m)
            assert all((w, w) in pairs for w in m.worlds)
            assert all((b, a) in pairs for a, b in pairs)
            assert all((a, c) in pairs
                       for a, b in pairs for b2, c in pairs if b == b2)

    def test_signature_mismatch_gives_empty(self, open_door, witness):
        assert not greatest_bisimulation(open_door, witness)

    def test_uniform_single_cell_keeps_every_pair(self):
        worlds = [f"w{i}" for i in range(80)]
        m = load_model({
            "propositions": ["p"],
            "variables": [{"name": "x", "hidden": False}],
            "worlds": [{"id": w, "props": {"p": 0}, "vals": {"x": 0}} for w in worlds],
            "epistemic_partition": [worlds],
            "nomic_partition": [worlds],
        })
        assert len(greatest_bisimulation(m, m)) == 6400

    def test_relabeled_copy_fully_bisimilar(self, judging_case_1):
        m = judging_case_1
        copy = relabeled(m, "_c")
        g = greatest_bisimulation(m, copy)
        for w in m.worlds:
            assert (w, w + "_c") in g


class TestAreBisimilar:
    def test_point_specializations(self, witness):
        copy = relabeled(witness, "_c")
        assert are_bisimilar(PointedModel(witness, "a"), PointedModel(copy, "a_c"))
        assert not are_bisimilar(PointedModel(witness, "a"), PointedModel(witness, "b"))

    def test_single_world_prop_difference(self):
        m1, m2 = one_world_model(1), one_world_model(0)
        assert not are_bisimilar(PointedModel(m1, "o"), PointedModel(m2, "o"))


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------

class TestDistinguishingFormula:
    def test_bisimilar_pair_gives_none_at_every_depth(self, witness):
        copy = relabeled(witness, "_c")
        for depth in (0, 1, 2, 5, 9):
            assert find_distinguishing_formula(
                PointedModel(witness, "b"), PointedModel(copy, "b_c"), depth) is None

    def test_witness_yields_local_atom_at_depth_zero(self, witness):
        f = find_distinguishing_formula(PointedModel(witness, "a"),
                                        PointedModel(witness, "b"), 0)
        assert f == DepL(vs("y"), vs("y"))
        assert modal_depth(f) == 0
        assert evaluate(witness, "a", f) != evaluate(witness, "b", f)

    def test_witness_global_atoms_all_agree(self, witness):
        subsets = [frozenset(c) for size in (1, 2)
                   for c in itertools.combinations(("x", "y"), size)]
        for x in subsets:
            for y in subsets:
                f = dep_atom(GLOBAL, x, y)
                assert evaluate(witness, "a", f) == evaluate(witness, "b", f)

    def test_prop_difference_found_at_depth_zero(self):
        m1, m2 = one_world_model(1), one_world_model(0)
        f = find_distinguishing_formula(PointedModel(m1, "o"), PointedModel(m2, "o"), 0)
        assert f == Prop("p")

    def test_depth_zero_misses_modal_difference(self, judging_case_1, judging_case_2):
        # s in the two cases differs only through the epistemic structure
        pm1 = PointedModel(judging_case_1, "s")
        pm2 = PointedModel(judging_case_2, "s")
        shallow = find_distinguishing_formula(pm1, pm2, 0)
        deep = find_distinguishing_formula(pm1, pm2, None)
        assert not are_bisimilar(pm1, pm2)
        assert deep is not None
        assert evaluate(judging_case_1, "s", deep) != evaluate(judging_case_2, "s", deep)
        if shallow is None:
            assert modal_depth(deep) >= 1

    def test_found_formulas_verified_by_evaluation(self):
        rng = random.Random(4)
        params = GenParams(max_worlds=4, num_props=1, num_named=2,
                           num_hidden=1, max_value=2)
        checked = 0
        for seed in range(80):
            m1 = random_model(replace(params, seed=seed))
            m2 = random_model(replace(params, seed=seed + 5000))
            w1 = rng.choice(m1.worlds)
            w2 = rng.choice(m2.worlds)
            pm1, pm2 = PointedModel(m1, w1), PointedModel(m2, w2)
            f = find_distinguishing_formula(pm1, pm2)
            if f is not None:
                assert evaluate(m1, w1, f) != evaluate(m2, w2, f)
                checked += 1
        assert checked > 20

    def test_matches_bisimilarity_on_random_pairs(self):
        params = GenParams(max_worlds=4, num_props=1, num_named=2,
                           num_hidden=1, max_value=2)
        rng = random.Random(9)
        for seed in range(60):
            m1 = random_model(replace(params, seed=seed))
            if seed % 2:
                m2 = relabeled(m1, "_c")
            else:
                m2 = random_model(replace(params, seed=seed + 7000))
            w1 = rng.choice(m1.worlds)
            w2 = rng.choice(m2.worlds)
            pm1, pm2 = PointedModel(m1, w1), PointedModel(m2, w2)
            depth = len(m1.worlds) * len(m2.worlds)
            formula = find_distinguishing_formula(pm1, pm2, depth)
            assert are_bisimilar(pm1, pm2) == (formula is None)

    def test_negative_depth_rejected(self, witness):
        with pytest.raises(ValueError):
            find_distinguishing_formula(PointedModel(witness, "a"),
                                        PointedModel(witness, "b"), -1)


# ---------------------------------------------------------------------------
# Support restriction completeness
# ---------------------------------------------------------------------------

def test_support_bounded_atoms_decide_all_atoms():
    """If two worlds agree on every dependency atom over the combined family
    supports, they agree on atoms mentioning fresh variables too."""
    params = GenParams(max_worlds=4, num_props=0, num_named=2,
                       num_hidden=1, max_value=2)
    for seed in range(40):
        m1 = random_model(replace(params, seed=seed))
        m2 = random_model(replace(params, seed=seed + 3000))
        for kind in (GLOBAL, LOCAL):
            for w1 in m1.worlds:
                for w2 in m2.worlds:
                    fam1, fam2 = p_family(m1, w1, kind), p_family(m2, w2, kind)
                    support = sorted(fam1.support | fam2.support)
                    bounded = _atoms_agree(fam1, fam2, support)
                    extended = _atoms_agree(fam1, fam2, support + ["fresh"])
                    assert bounded == extended


def _atoms_agree(fam1, fam2, names):
    subsets = [frozenset(c) for size in range(1, len(names) + 1)
               for c in itertools.combinations(names, size)]
    return all(atom_holds_from_family(fam1, x, y) == atom_holds_from_family(fam2, x, y)
               for x in subsets for y in subsets)
