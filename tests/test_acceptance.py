"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they complete.
"""

import hashlib
import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import replace

from depmodal import fixtures, semantics
from depmodal.bisim import find_distinguishing_formula, greatest_bisimulation
from depmodal.cli import main
from depmodal.dependency import (dep_holds_by_evidence, generative_family,
                                 is_generative, p_family)
from depmodal.harness import GenParams, random_model, soundness_suite, ROUTE_CHECK
from depmodal.model import load_model
from depmodal.semantics import evaluate
from depmodal.syntax import (GLOBAL, LOCAL, DepL, dep_atom, modal_depth,
                             parse_formula, render_formula)

from oracles import (are_bisimilar, cover_oracle, differs_on, graph_oracle,
                     lemma_oracle, pair_deletion_oracle, random_family,
                     recursive_eval_oracle)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"\nACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, "
          f"budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its budget"


def all_subsets(names):
    return [frozenset(c) for size in range(len(names) + 1)
            for c in itertools.combinations(sorted(names), size)]


# ---------------------------------------------------------------------------
# 1. Documented example reproduction (exact, no tolerance)
# ---------------------------------------------------------------------------

def test_criterion_1_example_reproduction():
    with criterion(1, "example-reproduction", 1.0):
        for name in fixtures.fixture_names():
            m = fixtures.load_fixture(name)
            for claim in fixtures.fixture_claims(name):
                f = parse_formula(claim.formula)
                worlds = [claim.world] if claim.world is not None else m.worlds
                for w in worlds:
                    got = evaluate(m, w, f)
                    assert got == recursive_eval_oracle(
                        m, w, f, dep_holds_by_evidence), (name, w)
                    assert got == claim.expect, (name, w, claim.formula)


# ---------------------------------------------------------------------------
# 2. Route-equivalence oracle
# ---------------------------------------------------------------------------

def test_criterion_2_route_equivalence():
    params = GenParams(min_worlds=1, max_worlds=8, num_props=1,
                       num_named=4, num_hidden=1, max_value=3)
    with criterion(2, "route-equivalence", 60.0):
        disagreements = []
        for seed in range(1000):
            m = random_model(replace(params, seed=seed))
            subsets = all_subsets(m.named_variables)
            for kind in (GLOBAL, LOCAL):
                for x in subsets:
                    for y in subsets:
                        for s in m.worlds:
                            direct = semantics.dep_holds_direct(m, s, kind, x, y)
                            routed = dep_holds_by_evidence(m, s, kind, x, y)
                            if direct != routed:
                                disagreements.append((seed, kind, x, y, s))
        assert disagreements == []


# ---------------------------------------------------------------------------
# 3. Axiom soundness, with a mutation run proving suite sensitivity
# ---------------------------------------------------------------------------

def test_criterion_3_axiom_soundness(monkeypatch):
    with criterion(3, "axiom-soundness", 120.0):
        report = soundness_suite(GenParams(seed=0), trials=1000)
        assert not report.counterexamples, report.summary()
        assert report.trials == 1000

        def without_agreement_conjunct(m, s, kind, x, y):
            m._check_named(x)
            m._check_named(y)
            cls = m.nomic_class(s)
            if kind == GLOBAL:
                pairs = ((u, v) for u in cls for v in cls)
            else:
                pairs = ((t, s) for t in cls)
            return any(differs_on(m, u, v, x) and differs_on(m, u, v, y)
                       for u, v in pairs)

        with monkeypatch.context() as mp:
            mp.setattr(semantics, "dep_holds_direct", without_agreement_conjunct)
            mutated = soundness_suite(GenParams(seed=0), trials=60)
        assert len(mutated.counterexamples) >= 1
        assert any(ce.schema == ROUTE_CHECK for ce in mutated.counterexamples)


# ---------------------------------------------------------------------------
# 4. Generative machinery
# ---------------------------------------------------------------------------

def test_criterion_4_generative_machinery():
    rng = random.Random(2024)
    with criterion(4, "generative-machinery", 60.0):
        for _ in range(500):
            p = random_family(rng, max_support=6)
            support = sorted(p.support)
            pool = support + ["fresh"]
            generative = set()
            for size in range(1, len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    w = frozenset(combo)
                    oracle = cover_oracle(p, w)
                    verdicts = [is_generative(p, w), lemma_oracle(p, w),
                                graph_oracle(p, w)]
                    assert verdicts == [oracle] * 3, (p, w)
                    if oracle and w <= p.support:
                        generative.add(w)
            assert generative_family(p) == frozenset(generative)
            for member in p:
                assert is_generative(p, member)


# ---------------------------------------------------------------------------
# 5. Finite modal-equivalence / bisimilarity correspondence
# ---------------------------------------------------------------------------

def _relabeled(m, tag):
    doc = m.to_dict()
    rename = {w["id"]: w["id"] + tag for w in doc["worlds"]}
    for w in doc["worlds"]:
        w["id"] = rename[w["id"]]
    for field in ("epistemic_partition", "nomic_partition"):
        doc[field] = [[rename[w] for w in cell] for cell in doc[field]]
    return load_model(doc)


def _pointed_pairs():
    """Criterion 5's 200 seeded pairs of pointed models ``(i, m1, w1, m2,
    w2)``: odd ``i`` pairs a model with a relabeled copy of itself."""
    params = GenParams(min_worlds=1, max_worlds=5, num_props=1,
                       num_named=3, num_hidden=1, max_value=3)
    rng = random.Random(77)
    for i in range(200):
        m1 = random_model(replace(params, seed=i))
        if i % 2:
            m2 = _relabeled(m1, "_c")
        else:
            m2 = random_model(replace(params, seed=10_000 + i))
        w1 = rng.choice(m1.worlds)
        w2 = (w1 + "_c") if i % 2 else rng.choice(m2.worlds)
        yield i, m1, w1, m2, w2


def test_criterion_5_finite_hennessy_milner():
    with criterion(5, "finite-hennessy-milner", 120.0):
        verdicts = set()
        for i, m1, w1, m2, w2 in _pointed_pairs():
            depth = len(m1.worlds) * len(m2.worlds)
            bisimilar = are_bisimilar(m1, w1, m2, w2)
            formula = find_distinguishing_formula(m1, w1, m2, w2)
            assert bisimilar == (formula is None), (i, w1, w2)
            assert (greatest_bisimulation(m1, m2)
                    == pair_deletion_oracle(m1, m2)), i
            verdicts.add(bisimilar)
            if formula is not None:
                assert modal_depth(formula) <= depth
                assert evaluate(m1, w1, formula) != evaluate(m2, w2, formula)
        assert verdicts == {True, False}

        # the bundled strictness witness: a local atom separates a and b
        m = fixtures.load_fixture("dl_strictness_witness")
        assert not are_bisimilar(m, "a", m, "b")
        f = find_distinguishing_formula(m, "a", m, "b")
        assert modal_depth(f) == 0
        assert isinstance(f, DepL)
        assert evaluate(m, "a", f) != evaluate(m, "b", f)
        support = sorted(p_family(m, "a", GLOBAL).support
                         | p_family(m, "b", GLOBAL).support)
        for x in all_subsets(support):
            for y in all_subsets(support):
                if x and y:
                    atom = dep_atom(GLOBAL, x, y)
                    assert evaluate(m, "a", atom) == evaluate(m, "b", atom)


def test_distinguishing_formulas_are_pinned():
    # the rendered formulas of criterion 5's pairs, "-" for a bisimilar pair;
    # the atom that separates two points at level 0 is the first one found,
    # so any change to the order of a block's split atoms shows here
    h = hashlib.sha256()
    for _, m1, w1, m2, w2 in _pointed_pairs():
        f = find_distinguishing_formula(m1, w1, m2, w2)
        h.update(("-" if f is None else render_formula(f)).encode() + b"\n")
    assert h.hexdigest() == (
        "120ecccd48978343a044218307c90e7f0478bfb252f0f7ff18aa54b7d45c8aa5")


# ---------------------------------------------------------------------------
# 6. Validation diagnostics
# ---------------------------------------------------------------------------

def test_criterion_6_validation(capsys):
    with criterion(6, "validation-diagnostics", 30.0):
        for name in fixtures.fixture_names():
            assert main(["validate", fixtures.fixture_path(name)]) == 0
        expectations = {
            "broken_partition": "not covered",
            "missing_assignment": "missing value",
            "mirror_violation": "mirror violation",
        }
        capsys.readouterr()
        for name, needle in expectations.items():
            code = main(["validate", fixtures.fixture_path(name)])
            captured = capsys.readouterr()
            assert code == 3, name
            assert needle in captured.err, name
