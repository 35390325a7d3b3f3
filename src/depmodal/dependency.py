"""Evidence families and generative sets.

A world's difference family collects, for every admissible pair of lawlike
alternatives, the set of named variables on which the pair disagrees.  A
variable set is an *evidence* for an atom when it meets both argument sets
and stays inside their union; dependency atoms hold exactly when some family
member is an evidence for them.  A set ``w`` is *generative* from a family
when every evidence role ``w`` could play is already covered by a family
member; the family of all generative sets is the model-theoretic fingerprint
that determines every dependency atom at a world.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .model import KripkeModel
from .syntax import GLOBAL, VarSet

METHODS = ("lemma", "partition", "graph")


@dataclass(frozen=True)
class EvidenceFamily:
    """A finite family of nonempty variable sets."""

    members: frozenset[VarSet]

    def __post_init__(self):
        for m in self.members:
            if not m:
                raise ValueError("evidence family members must be nonempty")

    @property
    def support(self) -> VarSet:
        """Union of all members."""
        out: set[str] = set()
        for m in self.members:
            out |= m
        return frozenset(out)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: VarSet) -> bool:
        return w in self.members


def family(members: Iterable[VarSet]) -> EvidenceFamily:
    return EvidenceFamily(frozenset(members))


EMPTY_FAMILY = EvidenceFamily(frozenset())


def is_evidence(w: VarSet, x: VarSet, y: VarSet) -> bool:
    """True iff ``w`` meets ``x``, meets ``y``, and lies inside their union."""
    return bool(w & x) and bool(w & y) and w <= (x | y)


def p_family(m: KripkeModel, s: str, kind: str) -> EvidenceFamily:
    """The nonempty difference sets over the admissible world pairs at ``s``:
    all pairs inside s's nomic class for the global kind, pairs anchored at
    ``s`` itself for the local kind.  The local family is always a subset of
    the global one."""
    def compute() -> EvidenceFamily:
        cls = m.nomic_class(s)
        if kind == GLOBAL:
            members = {m.delta(u, v) for u in cls for v in cls}
        else:
            members = {m.delta(t, s) for t in cls}
        members.discard(frozenset())
        return EvidenceFamily(frozenset(members))
    return m._memo(("family", kind, m._anchor(s, kind)), compute)


def atom_holds_from_family(fam: EvidenceFamily, x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth given a difference family.  Purely set-theoretic,
    so it also answers atoms over names a particular model never declares
    (such names simply never vary there)."""
    return any(is_evidence(w, x, y) for w in fam)


def dep_holds_by_evidence(m: KripkeModel, s: str, kind: str,
                          x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth via the evidence route: search the world's
    difference family for an evidence of the pair."""
    m._check_named(x)
    m._check_named(y)
    return m._memo(("evidence", kind, x, y, m._anchor(s, kind)),
                   lambda: atom_holds_from_family(p_family(m, s, kind), x, y))


def sigma(p: EvidenceFamily, w: VarSet) -> frozenset[VarSet]:
    """Members of ``p`` included in ``w``."""
    if not w:
        raise ValueError("w must be nonempty")
    return frozenset(m for m in p.members if m <= w)


def is_generative(p: EvidenceFamily, w: VarSet, method: str = "lemma") -> bool:
    """Whether every evidence role of ``w`` is covered by a member of ``p``.

    Three equivalent decision routes are provided and tested against each
    other: ``lemma`` (singletons must be members; otherwise every two-block
    split of ``w`` needs an evidence in ``p``), ``partition`` (the members
    inside ``w`` must cover it, and every way of splitting that sub-family in
    two leaves the halves overlapping), and ``graph`` (the members inside
    ``w`` cover it and their intersection graph is connected).
    """
    if not w:
        raise ValueError("w must be nonempty")
    if method == "lemma":
        return _generative_lemma(p, w)
    if method == "partition":
        return _generative_partition(p, w)
    if method == "graph":
        return _generative_graph(p, w)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _generative_lemma(p: EvidenceFamily, w: VarSet) -> bool:
    if len(w) == 1:
        return w in p.members
    members = p.members
    names = sorted(w)
    for size in range(1, len(names)):
        for combo in itertools.combinations(names, size):
            z = frozenset(combo)
            rest = w - z
            if not any(is_evidence(m, z, rest) for m in members):
                return False
    return True


def _generative_partition(p: EvidenceFamily, w: VarSet) -> bool:
    sig = sorted(sigma(p, w), key=lambda m: (len(m), sorted(m)))
    union: set[str] = set()
    for m in sig:
        union |= m
    if union != w:
        return False
    n = len(sig)
    for mask in range(1, (1 << n) - 1):
        left: set[str] = set()
        right: set[str] = set()
        for i in range(n):
            (left if mask >> i & 1 else right).update(sig[i])
        if not left & right:
            return False
    return True


def _generative_graph(p: EvidenceFamily, w: VarSet) -> bool:
    sig = list(sigma(p, w))
    union: set[str] = set()
    for m in sig:
        union |= m
    if union != w:
        return False
    # BFS over the intersection graph
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(sig)):
            if j not in seen and sig[i] & sig[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(sig)


def generative_family(p: EvidenceFamily) -> EvidenceFamily:
    """All generative sets from ``p``: exactly the unions of nonempty
    sub-collections of ``p`` whose intersection graph is connected, and always
    a superset of ``p`` itself.  Computed as the closure of ``p`` under
    ``g | m`` for overlapping members ``m``, which is complete because a
    connected sub-collection can be ordered so that each member meets the
    union of those before it."""
    out = set(p.members)
    work = list(out)
    while work:
        g = work.pop()
        grown = {g | m for m in p.members if g & m} - out
        out |= grown
        work.extend(grown)
    return EvidenceFamily(frozenset(out))


def generative_sets(m: KripkeModel, s: str, kind: str) -> EvidenceFamily:
    """The generative family of a world's difference family, cached per model."""
    return m._memo(("generative", kind, m._anchor(s, kind)),
                   lambda: generative_family(p_family(m, s, kind)))
