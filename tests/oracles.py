"""Brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the production code paths they are checking:
generativity is decided straight from its defining quantification over
argument-set covers, or by enumerating every two-way split of the members
inside the candidate, generative families are recomputed by enumerating
connected sub-collections of the family, a relation is checked to be a
bisimulation pair by pair from the definition, the greatest bisimulation is
recomputed by deleting pairs until every survivor transfers, and formulas are
evaluated by plain recursion with no memo of box values, reading each
world's cells off the public partitions.  Difference sets and the agreement
conditions of the dependency clauses are read pair by pair from the model's
assignment.  ``pair_search_oracle`` answers a dependency atom by testing
the three conditions of its clause on every candidate pair of rows, with no
grouping by the values outside the argument sets.  ``are_bisimilar`` reads
one pair off the greatest bisimulation.  ``soundness_oracle`` is the
soundness suite's per-world loop: it asks both dependency routes at every
world through their memoized entry points and evaluates each instance with
``extension``.
"""

import itertools
import random
import time
from dataclasses import replace

from depmodal import dependency, semantics
from depmodal.bisim import greatest_bisimulation
from depmodal.dependency import (EvidenceFamily, generative_family, is_evidence,
                                 p_family)
from depmodal.errors import EvalError
from depmodal.harness import (ROUTE_CHECK, Counterexample, SoundnessReport,
                              draw_instances, instantiate, random_model,
                              schema_names)
from depmodal.syntax import (GLOBAL, LOCAL, All, And, DepG, DepL, Know, Not,
                             Prop, Top, VarSet, collect_dep_atoms, dep_atom,
                             render_formula)


def cover_oracle(p: EvidenceFamily, w: frozenset) -> bool:
    """Generativity by definition, restricted to covers: for every way of
    writing w as a union of two nonempty sets X, Y (each element going to X,
    to Y, or to both), some family member must be an evidence of (X, Y).
    Restricting to X | Y == w is sound because evidence-hood of any subset of
    w depends only on the intersections with w."""
    names = sorted(w)
    members = list(p)
    for split in itertools.product((0, 1, 2), repeat=len(names)):
        x = frozenset(n for n, side in zip(names, split) if side in (0, 2))
        y = frozenset(n for n, side in zip(names, split) if side in (1, 2))
        if not x or not y:
            continue
        if not any(is_evidence(m, x, y) for m in members):
            return False
    return True


def split_partition_oracle(sig) -> bool:
    """The partition route by enumeration: every way of splitting ``sig`` in
    two leaves the unions of the halves overlapping.  The caller checks that
    ``sig`` covers the candidate."""
    members = sorted(sig, key=lambda m: (len(m), sorted(m)))
    n = len(members)
    for mask in range(1, (1 << n) - 1):
        left: set[str] = set()
        right: set[str] = set()
        for i in range(n):
            (left if mask >> i & 1 else right).update(members[i])
        if not left & right:
            return False
    return True


def connected_union_oracle(p: EvidenceFamily) -> frozenset:
    """All unions of nonempty sub-collections whose intersection graph is
    connected; brute force over the power set of the family."""
    members = sorted(p, key=lambda s: (len(s), sorted(s)))
    out = set()
    for size in range(1, len(members) + 1):
        for group in itertools.combinations(members, size):
            if _connected(group):
                out.add(frozenset().union(*group))
    return frozenset(out)


def _connected(group) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(group)):
            if j not in seen and group[i] & group[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(group)


def random_family(rng: random.Random, max_support: int = 6,
                  max_members: int = 6) -> EvidenceFamily:
    support = [f"v{i}" for i in range(rng.randint(1, max_support))]
    members = set()
    for _ in range(rng.randint(1, max_members)):
        size = rng.randint(1, len(support))
        members.add(frozenset(rng.sample(support, size)))
    return EvidenceFamily(members)


def are_bisimilar(m, s, m2, s2) -> bool:
    """Whether some bisimulation links ``s`` in ``m`` with ``s2`` in ``m2``."""
    return (s, s2) in greatest_bisimulation(m, m2)


def bisimulation_oracle(m, m2, pairs) -> bool:
    """Whether ``pairs`` is a bisimulation between ``m`` and ``m2``: nonempty,
    a shared proposition signature, and every pair meets the base conditions
    and transfers along both relations."""
    pairs = set(pairs)
    return (bool(pairs) and set(m.propositions) == set(m2.propositions)
            and all(_base_match(m, m2, s, s2) and _transfers(m, m2, pairs, s, s2)
                    for s, s2 in pairs))


def pair_deletion_oracle(m, m2) -> frozenset:
    """The pairs of the greatest bisimulation between two models: start from
    all pairs passing the base conditions, then delete pairs whose zig or zag
    transfer fails until nothing changes."""
    if set(m.propositions) != set(m2.propositions):
        return frozenset()
    pairs = {(s, s2)
             for s in m.worlds for s2 in m2.worlds
             if _base_match(m, m2, s, s2)}
    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            if not _transfers(m, m2, pairs, *pair):
                pairs.discard(pair)
                changed = True
    return frozenset(pairs)


def _base_match(m, m2, s, s2) -> bool:
    # proposition agreement presumes an identical declared signature
    return (all(m.valuation[s][p] == m2.valuation[s2][p] for p in m.propositions)
            and all(generative_family(p_family(m, s, kind))
                    == generative_family(p_family(m2, s2, kind))
                    for kind in (GLOBAL, LOCAL)))


def _transfers(m, m2, pairs, s, s2) -> bool:
    for partition, partition2 in ((m.epistemic_partition, m2.epistemic_partition),
                                  (m.nomic_partition, m2.nomic_partition)):
        cls, cls2 = _cell(partition, s), _cell(partition2, s2)
        for t in cls:                      # zig
            if not any((t, t2) in pairs for t2 in cls2):
                return False
        for t2 in cls2:                    # zag
            if not any((t, t2) in pairs for t in cls):
                return False
    return True


def _cell(partition, w) -> frozenset:
    """The cell of ``partition`` that holds ``w``, found by scanning the
    public partition rather than the model's lookup tables."""
    for cell in partition:
        if w in cell:
            return cell
    raise EvalError(f"unknown world {w!r}")


def _values(m, w) -> dict:
    if w not in m.assignment:
        raise EvalError(f"unknown world {w!r}")
    return m.assignment[w]


def _declared(m, xs) -> None:
    bad = sorted(set(xs) - set(m.named_variables))
    if bad:
        raise EvalError(f"undeclared variable {bad[0]!r}")


def delta(m, u, v) -> frozenset:
    """Named variables on which ``u`` and ``v`` differ, provided they agree on
    every hidden variable; the empty set otherwise."""
    au, av = _values(m, u), _values(m, v)
    if any(au[h] != av[h] for h in m.hidden_variables):
        return frozenset()
    return frozenset(x for x in m.named_variables if au[x] != av[x])


def differs_on(m, u, v, xs) -> bool:
    """True iff some member of ``xs`` takes different values at ``u`` and
    ``v``; false for the empty set."""
    _declared(m, xs)
    au, av = _values(m, u), _values(m, v)
    return any(au[x] != av[x] for x in xs)


def agree_outside(m, u, v, xy) -> bool:
    """True iff every variable (named or hidden) outside ``xy`` takes the
    same value at ``u`` and ``v``."""
    _declared(m, xy)
    au, av = _values(m, u), _values(m, v)
    return all(au[x] == av[x] for x in m.named_variables + m.hidden_variables
               if x not in xy)


def pair_search_oracle(m, s, kind, x, y) -> bool:
    """Dependency-atom truth at ``s`` by testing every candidate pair of rows
    of the nomic class: each unordered pair for the global kind, each row
    against the row of ``s`` for the local kind."""
    cls = m.nomic_class(s)
    if not (x and y) or len(cls) < 2:
        # an empty side never differs, and a lone world has no partner
        return False
    on_x, on_y, off_xy = semantics._projections(m, x, y)
    rows = [m._row[t] for t in cls]
    if kind == GLOBAL:
        # the conditions are symmetric in (u, v) and fail on (u, u)
        pairs = itertools.combinations(rows, 2)
    else:
        own = m._row[s]
        pairs = ((t, own) for t in rows)
    for u, v in pairs:
        # differ somewhere in x, somewhere in y, and agree outside x | y
        if on_x(u) != on_x(v) and on_y(u) != on_y(v) and off_xy(u) == off_xy(v):
            return True
    return False


def recursive_eval_oracle(m, s, f, holds) -> bool:
    """Truth of ``f`` at ``s``, dependency atoms answered by
    ``holds(m, s, kind, x, y)``; every box is re-evaluated at every world it
    is asked about."""
    match f:
        case Top():
            return True
        case Prop(name):
            return m.valuation[s][name] == 1
        case Not(g):
            return not recursive_eval_oracle(m, s, g, holds)
        case And(l, r):
            return (recursive_eval_oracle(m, s, l, holds)
                    and recursive_eval_oracle(m, s, r, holds))
        case Know(g):
            return all(recursive_eval_oracle(m, t, g, holds)
                       for t in _cell(m.epistemic_partition, s))
        case All(g):
            return all(recursive_eval_oracle(m, t, g, holds)
                       for t in _cell(m.nomic_partition, s))
        case DepG(x, y):
            return holds(m, s, GLOBAL, x, y)
        case DepL(x, y):
            return holds(m, s, LOCAL, x, y)
    raise TypeError(f"not a formula: {f!r}")


def soundness_oracle(params, trials: int) -> SoundnessReport:
    """``harness.soundness_suite`` as a loop over worlds: each instance is
    checked with ``semantics.extension``, and both routes are asked for every
    atom at every world."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    report = SoundnessReport(trials=trials, schema_count=len(schema_names()),
                             atoms_checked=0)
    for i in range(trials):
        seed = params.seed + i
        m = random_model(replace(params, seed=seed))
        rng = random.Random(seed ^ 0x9E3779B9)
        atoms: set[tuple[str, VarSet, VarSet]] = set()
        for inst in draw_instances(rng, m):
            f = instantiate(inst)
            atoms |= collect_dep_atoms(f)
            ext = semantics.extension(m, f)
            bad = next((s for s in m.worlds if s not in ext), None)
            if bad is not None:
                report.counterexamples.append(
                    Counterexample(seed, inst.label(), render_formula(f), bad))
        for kind, x, y in sorted(atoms, key=lambda a: (a[0], sorted(a[1]), sorted(a[2]))):
            for s in m.worlds:
                report.atoms_checked += 1
                direct = semantics.dep_holds_direct(m, s, kind, x, y)
                routed = dependency.dep_holds_by_evidence(m, s, kind, x, y)
                if direct != routed:
                    atom_text = render_formula(dep_atom(kind, x, y))
                    report.counterexamples.append(
                        Counterexample(seed, ROUTE_CHECK,
                                       f"{atom_text} direct={direct} evidence={routed}",
                                       s))
    report.elapsed = time.perf_counter() - t0
    return report
