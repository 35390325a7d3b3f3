import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmodal.bisim import _core, find_distinguishing_formula, greatest_bisimulation
from depmodal.dependency import (EvidenceFamily, atom_holds_from_family,
                                 generative_family, p_family)
from depmodal.errors import EvalError
from depmodal.harness import GenParams, random_model
from depmodal.model import load_model
from depmodal.semantics import evaluate
from depmodal.syntax import GLOBAL, LOCAL, DepL, Prop, dep_atom, modal_depth

from oracles import (agree_outside, are_bisimilar, bisimulation_oracle,
                     connected_union_oracle, differs_on, pair_deletion_oracle,
                     random_family, recursive_eval_oracle)


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


def replicated(m, r, q_worlds=None):
    """R(m, r): copy j of world w is ``w_j`` with w's valuation and values,
    and each cell is the union of the copies of one cell of ``m``.  The
    projection to ``m`` is a bisimulation.  With ``q_worlds`` given, a
    proposition ``q`` is declared and is true exactly at those worlds."""
    doc = m.to_dict()
    if q_worlds is not None:
        doc["propositions"].append("q")
    worlds = []
    for entry in doc["worlds"]:
        for j in range(r):
            props = dict(entry["props"])
            if q_worlds is not None:
                props["q"] = int(f"{entry['id']}_{j}" in q_worlds)
            worlds.append({"id": f"{entry['id']}_{j}", "props": props,
                           "vals": entry["vals"]})
    doc["worlds"] = worlds
    for field in ("epistemic_partition", "nomic_partition"):
        doc[field] = [[f"{w}_{j}" for w in cell for j in range(r)]
                      for cell in doc[field]]
    return load_model(doc)


def oracle_holds(m, s, kind, x, y):
    """Dependency-atom truth read pair by pair from the assignment."""
    cls = m.nomic_class(s)
    pairs = ([(u, v) for u in cls for v in cls] if kind == GLOBAL
             else [(t, s) for t in cls])
    return any(differs_on(m, u, v, x) and differs_on(m, u, v, y)
               and agree_outside(m, u, v, x | y) for u, v in pairs)


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
        def gen(w, kind):
            return generative_family(p_family(witness, w, kind))

        assert gen("a", LOCAL) == {vs("x"), vs("x", "y")}
        assert gen("b", LOCAL) == {vs("x"), vs("y")}
        assert gen("a", GLOBAL) == gen("b", GLOBAL)
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


class TestReplication:
    PARAMS = GenParams(min_worlds=3, max_worlds=7, num_props=1, num_named=3,
                       num_hidden=1, max_value=3)

    @pytest.mark.parametrize("seed", range(10))
    def test_copies_bisimilar_exactly_where_base_worlds_are(self, seed):
        base = random_model(replace(self.PARAMS, seed=seed))
        r1, r2 = 1 + seed % 3, 2 + seed % 2
        g = greatest_bisimulation(replicated(base, r1), replicated(base, r2))
        in_base = greatest_bisimulation(base, base)
        for w in base.worlds:
            assert all((f"{w}_{j}", f"{w}_{k}") in g
                       for j in range(r1) for k in range(r2))
        assert g == {(f"{u}_{j}", f"{v}_{k}") for u, v in in_base
                     for j in range(r1) for k in range(r2)}

    @pytest.mark.parametrize("seed", range(10))
    def test_marked_copy_separated(self, seed):
        rng = random.Random(seed)
        base = random_model(replace(self.PARAMS, seed=seed + 100))
        r1, r2 = 1 + seed % 3, 2 + seed % 2
        w = rng.choice(base.worlds)
        j1, j2, sibling = rng.randrange(r1), *rng.sample(range(r2), 2)
        m1 = replicated(base, r1, q_worlds=set())
        m2 = replicated(base, r2, q_worlds={f"{w}_{sibling}"})
        p1, p2 = f"{w}_{j1}", f"{w}_{j2}"
        f = find_distinguishing_formula(m1, p1, m2, p2)
        assert f is not None
        assert (recursive_eval_oracle(m1, p1, f, oracle_holds)
                != recursive_eval_oracle(m2, p2, f, oracle_holds))


@st.composite
def models_with_split_twins(draw):
    """Models in which w0 and w1 share a nomic class and a row, and so a local
    representative, but differ in the proposition p or sit in different
    epistemic cells."""
    named = [f"x{i}" for i in range(draw(st.integers(1, 2)))]
    n = draw(st.integers(2, 6))
    row = st.tuples(*[st.integers(0, 2)] * len(named), st.integers(0, 1))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    props = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    epi = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nomic = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    rows[1], nomic[1] = rows[0], nomic[0]
    if draw(st.booleans()):
        props[1] = 1 - props[0]
    else:
        epi[1] = (epi[0] + 1) % 3
    worlds = [f"w{i}" for i in range(n)]
    return load_model({
        "propositions": ["p"],
        "variables": ([{"name": x, "hidden": False} for x in named]
                      + [{"name": "h", "hidden": True}]),
        "worlds": [{"id": w, "props": {"p": v}, "vals": dict(zip(named + ["h"], r))}
                   for w, v, r in zip(worlds, props, rows)],
        "epistemic_partition": [[w for w, c in zip(worlds, epi) if c == label]
                                for label in sorted(set(epi))],
        "nomic_partition": [[w for w, c in zip(worlds, nomic) if c == label]
                            for label in sorted(set(nomic))]})


@settings(max_examples=150, deadline=None)
@given(m=models_with_split_twins(), other=st.one_of(
    st.sampled_from(["self", "copy"]), models_with_split_twins()))
def test_split_twins_match_pair_deletion(m, other):
    assert m._local_rep["w1"] == "w0"
    if other == "self":
        m2 = m
    elif other == "copy":
        m2 = relabeled(m, "_c")
    else:
        m2 = other
    assert greatest_bisimulation(m, m2) == pair_deletion_oracle(m, m2)


class TestAreBisimilar:
    def test_point_specializations(self, witness):
        copy = relabeled(witness, "_c")
        assert are_bisimilar(witness, "a", copy, "a_c")
        assert not are_bisimilar(witness, "a", witness, "b")

    def test_single_world_prop_difference(self):
        m1, m2 = one_world_model(1), one_world_model(0)
        assert not are_bisimilar(m1, "o", m2, "o")


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------

class TestDistinguishingFormula:
    def test_bisimilar_pair_gives_none_at_every_depth(self, witness):
        # None: no formula of any modal depth separates the points
        copy = relabeled(witness, "_c")
        for w in witness.worlds:
            assert find_distinguishing_formula(witness, w, copy, w + "_c") is None

    def test_witness_yields_local_atom_at_depth_zero(self, witness):
        f = find_distinguishing_formula(witness, "a", witness, "b")
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
        f = find_distinguishing_formula(m1, "o", m2, "o")
        assert f == Prop("p")

    def test_depth_zero_misses_modal_difference(self, experiment_2runs,
                                                experiment_3runs):
        # w1 of the two experiments agrees on every atom (the same level-0
        # cell), so only a formula with a box separates the points
        m1, m2 = experiment_2runs, experiment_3runs
        f = find_distinguishing_formula(m1, "w1", m2, "w1")
        assert not are_bisimilar(m1, "w1", m2, "w1")
        assert modal_depth(f) == 1
        assert evaluate(m1, "w1", f) != evaluate(m2, "w1", f)

    def test_signature_mismatch_rejected(self):
        # never bisimilar, so "no formula separates them" would be wrong
        m1 = one_world_model(1)
        doc = m1.to_dict()
        doc["propositions"].append("q")
        doc["worlds"][0]["props"]["q"] = 0
        m2 = load_model(doc)
        assert not greatest_bisimulation(m1, m2)
        for a, b in ((m1, m2), (m2, m1)):
            with pytest.raises(EvalError, match="proposition signatures differ"):
                find_distinguishing_formula(a, "o", b, "o")
            # the worlds are checked first
            for s, s2 in (("zz", "o"), ("o", "zz")):
                with pytest.raises(EvalError, match="unknown world 'zz'"):
                    find_distinguishing_formula(a, s, b, s2)

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
            f = find_distinguishing_formula(m1, w1, m2, w2)
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
            formula = find_distinguishing_formula(m1, w1, m2, w2)
            assert are_bisimilar(m1, w1, m2, w2) == (formula is None)


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


# ---------------------------------------------------------------------------
# Irreducible cores
# ---------------------------------------------------------------------------

def test_equal_cores_iff_equal_generative_families():
    # even draws add generated sets to p, so the two generative families are
    # equal by construction; odd draws also drop one of p's members, which
    # may change the generative family or not
    rng = random.Random(31)
    outcomes = set()
    for i in range(2000):
        p = random_family(rng, max_support=5, max_members=6)
        gen = sorted(generative_family(p), key=sorted)
        q = set(p) | set(rng.sample(gen, rng.randint(0, min(3, len(gen)))))
        if i % 2:
            q.discard(rng.choice(sorted(p, key=sorted)))
        q = EvidenceFamily(q)
        same = connected_union_oracle(p) == connected_union_oracle(q)
        assert same or i % 2
        assert (_core(p) == _core(q)) == same, (p, q)
        # the core is a sub-family that generates the same sets
        assert _core(p) <= p
        assert connected_union_oracle(EvidenceFamily(_core(p))) == connected_union_oracle(p)
        outcomes.add(same)
    assert outcomes == {False, True}
