import itertools
import random

import pytest

from depmodal.dependency import (EvidenceFamily, dep_holds_by_evidence, family,
                                 generative_family, is_evidence, is_generative,
                                 p_family, sigma)
from depmodal.syntax import GLOBAL, LOCAL

from oracles import (connected_union_oracle, cover_oracle, graph_oracle,
                     lemma_oracle, random_family, split_partition_oracle)

#: the production decision and the two oracles that decide it by other routes
DECISIONS = (is_generative, lemma_oracle, graph_oracle)


def vs(*names):
    return frozenset(names)


def fam(*sets):
    return family(frozenset(s) for s in sets)


# ---------------------------------------------------------------------------
# Evidence predicate
# ---------------------------------------------------------------------------

class TestIsEvidence:
    def test_pinned(self):
        assert is_evidence(vs("bar_a", "bar_c"), vs("bar_a", "bar_b"), vs("bar_c"))
        assert not is_evidence(frozenset(), vs("x"), vs("y"))
        assert not is_evidence(vs("x"), vs("x"), vs("y"))

    def test_weakening(self):
        rng = random.Random(3)
        pool = [f"v{i}" for i in range(5)]
        for _ in range(500):
            w = frozenset(rng.sample(pool, rng.randint(1, 5)))
            x = frozenset(rng.sample(pool, rng.randint(0, 5)))
            y = frozenset(rng.sample(pool, rng.randint(0, 5)))
            wider = x | frozenset(rng.sample(pool, rng.randint(0, 3)))
            if is_evidence(w, x, y):
                assert is_evidence(w, wider, y)

    def test_symmetric_in_arguments(self):
        assert is_evidence(vs("a", "b"), vs("a"), vs("b"))
        assert is_evidence(vs("a", "b"), vs("b"), vs("a"))


# ---------------------------------------------------------------------------
# Families from models
# ---------------------------------------------------------------------------

class TestPFamily:
    def test_judging_case_1(self, judging_case_1):
        local = p_family(judging_case_1, "s", LOCAL)
        total = p_family(judging_case_1, "s", GLOBAL)
        assert local == {vs("bar_a", "bar_b"), vs("bar_a", "bar_c")}
        assert total == {vs("bar_a", "bar_b"), vs("bar_a", "bar_c"),
                                 vs("bar_b", "bar_c")}

    def test_judging_case_2(self, judging_case_2):
        local = p_family(judging_case_2, "s", LOCAL)
        assert local == {vs("bar_a"), vs("bar_a", "bar_b", "bar_c")}

    def test_local_subset_of_global(self, open_door, judging_case_1,
                                    judging_case_2, witness, experiment_2runs):
        for m in (open_door, judging_case_1, judging_case_2,
                  witness, experiment_2runs):
            for w in m.worlds:
                assert p_family(m, w, LOCAL) <= p_family(m, w, GLOBAL)

    def test_singleton_class_gives_empty_families(self):
        from depmodal.model import load_model
        m = load_model({
            "propositions": [],
            "variables": [{"name": "x", "hidden": False}],
            "worlds": [{"id": "a", "props": {}, "vals": {"x": 0}},
                       {"id": "b", "props": {}, "vals": {"x": 1}}],
            "epistemic_partition": [["a", "b"]],
            "nomic_partition": [["a"], ["b"]],
        })
        assert p_family(m, "a", GLOBAL) == family(())
        assert p_family(m, "a", LOCAL) == family(())

    def test_members_nonempty_and_named(self, witness):
        for w in witness.worlds:
            for kind in (GLOBAL, LOCAL):
                for member in p_family(witness, w, kind):
                    assert member
                    assert member <= frozenset(witness.named_variables)

    def test_bad_kind(self, witness):
        with pytest.raises(ValueError):
            p_family(witness, "a", "sideways")


# ---------------------------------------------------------------------------
# Sigma
# ---------------------------------------------------------------------------

class TestSigma:
    def test_pinned(self):
        p = fam({"x"}, {"x", "y"})
        assert sigma(p, vs("x", "y")) == {vs("x"), vs("x", "y")}
        assert sigma(fam({"x"}, {"y", "z"}), vs("x", "y")) == {vs("x")}
        assert sigma(family(()), vs("x")) == frozenset()

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            sigma(family(()), frozenset())


# ---------------------------------------------------------------------------
# Generativity
# ---------------------------------------------------------------------------

class TestIsGenerative:
    def test_disconnected_pair(self):
        assert not is_generative(fam({"x"}, {"y"}), vs("x", "y"))

    def test_member_is_generative(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_family(rng)
            for member in p:
                for decide in DECISIONS:
                    assert decide(p, member), decide.__name__

    def test_chain_through_shared_variable(self):
        p = fam({"x", "y"}, {"y", "z"})
        for decide in DECISIONS:
            assert decide(p, vs("x", "y", "z")), decide.__name__

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            is_generative(family(()), frozenset())

    def test_methods_and_oracle_agree_on_random_families(self):
        rng = random.Random(99)
        for _ in range(120):
            p = random_family(rng)
            support = sorted(p.support)
            pool = support + ["fresh"]
            for size in range(1, len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    w = frozenset(combo)
                    verdicts = {d.__name__: d(p, w) for d in DECISIONS}
                    verdicts["cover_oracle"] = cover_oracle(p, w)
                    assert len(set(verdicts.values())) == 1, (p, w, verdicts)

    def test_partition_route_matches_split_enumeration(self):
        # the enumeration of every two-way split of sigma(p, w) is the
        # partition route's oracle; candidates are the support and a sample
        # of its subsets, so both verdicts occur
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(1000):
            p = random_family(rng, max_support=8, max_members=10)
            support = sorted(p.support)
            candidates = {p.support}
            for _ in range(3):
                candidates.add(frozenset(rng.sample(support, rng.randint(1, len(support)))))
            for w in candidates:
                sig = sigma(p, w)
                expected = frozenset().union(*sig) == w and split_partition_oracle(sig)
                assert is_generative(p, w) == expected, (p, w)
                assert lemma_oracle(p, w) == expected, (p, w)
                verdicts.add(expected)
        assert verdicts == {False, True}

    def test_support_escaping_candidate_is_never_generative(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_family(rng)
            w = p.support | vs("fresh")
            for decide in DECISIONS:
                assert not decide(p, w), decide.__name__


class TestGenerativeFamily:
    def test_pinned(self):
        assert generative_family(fam({"x"}, {"x", "y"})) == \
            {vs("x"), vs("x", "y")}
        assert generative_family(fam({"x"}, {"y"})) == {vs("x"), vs("y")}
        assert generative_family(family(())) == frozenset()

    def test_equals_connected_union_oracle(self):
        rng = random.Random(42)
        for _ in range(100):
            p = random_family(rng, max_support=5)
            assert generative_family(p) == connected_union_oracle(p)

    @pytest.mark.parametrize("k", range(3, 15))
    def test_ring_of_pairs(self, k):
        # the connected sub-collections of a k-cycle are its arcs: k unions of
        # each size 2..k-1, plus the whole support
        names = [f"v{i}" for i in range(k)]
        p = family(frozenset((names[i], names[(i + 1) % k])) for i in range(k))
        g = generative_family(p)
        assert len(g) == k * (k - 2) + 1
        if k <= 8:
            assert g == connected_union_oracle(p)

    def test_contains_family_and_closure(self):
        rng = random.Random(17)
        for _ in range(60):
            p = random_family(rng, max_support=5)
            g = generative_family(p)
            assert p <= g
            # recomputing from the generative family yields it again
            assert generative_family(g) == g

    def test_local_generative_family_inside_global(self, witness, judging_case_1):
        for m in (witness, judging_case_1):
            for w in m.worlds:
                gl = generative_family(p_family(m, w, LOCAL))
                gg = generative_family(p_family(m, w, GLOBAL))
                assert gl <= gg


# ---------------------------------------------------------------------------
# Atom evaluation through families
# ---------------------------------------------------------------------------

class TestDepHoldsByEvidence:
    def test_judging_case_2_pinned(self, judging_case_2):
        m = judging_case_2
        assert not dep_holds_by_evidence(m, "s", LOCAL, vs("bar_a"), vs("bar_c"))
        assert dep_holds_by_evidence(m, "s", LOCAL, vs("bar_a", "bar_b"), vs("bar_c"))

    def test_empty_side_always_false(self, judging_case_1):
        m = judging_case_1
        for w in m.worlds:
            for kind in (GLOBAL, LOCAL):
                assert not dep_holds_by_evidence(m, w, kind, frozenset(), vs("bar_a"))
                assert not dep_holds_by_evidence(m, w, kind, vs("bar_a"), frozenset())


# ---------------------------------------------------------------------------
# Two-pointed-model agreement (equivalence through generative families)
# ---------------------------------------------------------------------------

def all_atom_pairs(support):
    subsets = [frozenset(c) for size in range(1, len(support) + 1)
               for c in itertools.combinations(sorted(support), size)]
    return [(x, y) for x in subsets for y in subsets]


def test_atom_agreement_iff_generative_families_match(witness, judging_case_1):
    """Worlds satisfy the same dependency atoms over the combined support
    exactly when their generative families coincide, and exactly when each
    difference family is pointwise generative from the other.  Atom truth is
    taken from the families so that atoms may mention names only one of the
    models declares (they never vary in the other)."""
    from depmodal.dependency import atom_holds_from_family

    models = [(witness, w) for w in witness.worlds] + \
             [(judging_case_1, w) for w in judging_case_1.worlds]
    for kind in (GLOBAL, LOCAL):
        for (m1, w1) in models:
            for (m2, w2) in models:
                fam1 = p_family(m1, w1, kind)
                fam2 = p_family(m2, w2, kind)
                support = fam1.support | fam2.support
                agree = all(
                    atom_holds_from_family(fam1, x, y)
                    == atom_holds_from_family(fam2, x, y)
                    for x, y in all_atom_pairs(support)) if support else True
                same_g = generative_family(fam1) == generative_family(fam2)
                zigzag = (all(is_generative(fam2, w) for w in fam1)
                          and all(is_generative(fam1, w) for w in fam2))
                assert agree == same_g == zigzag, (w1, w2, kind)


def test_family_type_rejects_empty_members():
    with pytest.raises(ValueError):
        EvidenceFamily(frozenset({frozenset()}))


def test_family_support():
    p = fam({"a"}, {"b", "c"})
    assert p.support == vs("a", "b", "c")
    assert len(p) == 2
    assert vs("a") in p


def test_family_contract(judging_case_1):
    """A family is a plain frozenset of nonempty variable sets with a
    ``support``: what the tracer and every family reader rely on."""
    members = [vs("x"), vs("x", "y"), vs("z")]
    m = judging_case_1
    w = m.worlds[0]
    local, total = p_family(m, w, LOCAL), p_family(m, w, GLOBAL)
    for p in (family(members), local, total, generative_family(total)):
        assert type(p) is EvidenceFamily
        assert isinstance(p, frozenset)
        assert p == frozenset(p) and hash(p) == hash(frozenset(p))
        assert p.support == frozenset().union(*p)
        assert not hasattr(p, "__dict__")
    assert family(members) == frozenset(members)
    with pytest.raises(ValueError):
        family([frozenset()])
