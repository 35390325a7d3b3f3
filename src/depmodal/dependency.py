"""Evidence families and generative sets.

A family is a frozenset of nonempty variable sets (``EvidenceFamily``
subclasses ``frozenset`` and rejects the empty set).  A world's difference
family collects, for every admissible pair of lawlike alternatives, the set
of named variables on which the pair disagrees.  A variable set is an
*evidence* for an atom when it meets both argument sets and stays inside
their union; dependency atoms hold exactly when some family member is an
evidence for them.  A set ``w`` is *generative* from a family when every
evidence role ``w`` could play is already covered by a family member; the
family of all generative sets is the model-theoretic fingerprint that
determines every dependency atom at a world.  ``is_generative`` is the one
decision procedure for a single set; the test oracles keep the other routes.

Each nomic class has one table of difference families, keyed by anchor:
the global family under the class, and each distinct row's local family
under the row's representative.  The class's distinct rows are found once
and bucketed by their hidden values (rows that differ on a hidden variable
make no admissible pair).  A family is built on its first request: a local
one from the rows of its row's bucket, the global one from each unordered
pair of rows in a bucket, visited once.  A check at one world reads only a
few anchors of a class, so the table is not filled eagerly.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable

from .model import KripkeModel
from .syntax import GLOBAL, VarSet


class EvidenceFamily(frozenset):
    """A finite family of nonempty variable sets: a frozenset of them."""

    __slots__ = ()

    def __new__(cls, members: Iterable[VarSet]):
        self = super().__new__(cls, members)
        if frozenset() in self:
            raise ValueError("evidence family members must be nonempty")
        return self

    @property
    def support(self) -> VarSet:
        """Union of all members."""
        return frozenset().union(*self)


family = EvidenceFamily


def is_evidence(w: VarSet, x: VarSet, y: VarSet) -> bool:
    """True iff ``w`` meets ``x``, meets ``y``, and lies inside their union."""
    return bool(w & x) and bool(w & y) and w <= (x | y)


def p_family(m: KripkeModel, s: str, kind: str) -> EvidenceFamily:
    """The nonempty difference sets over the admissible world pairs at ``s``:
    all pairs inside s's nomic class for the global kind, pairs anchored at
    ``s`` itself for the local kind.  The local family is always a subset of
    the global one."""
    anchor = m._anchor(s, kind)
    key = ("families", m._nomic_cell[s])
    buckets, table = (m._memo_table.get(key)
                      or m._memo_table.setdefault(key, _class_rows(m, key[1])))
    fam = table.get(anchor)
    if fam is not None:
        return fam
    named = m.named_variables
    if kind == GLOBAL:
        members = {_diff(named, u, v) for bucket in buckets.values()
                   for u, v in itertools.combinations(bucket, 2)}
    else:
        own = m._row[s]
        members = {_diff(named, u, own) for u in buckets[own[len(named):]] if u != own}
    return table.setdefault(anchor, EvidenceFamily(members))


def _class_rows(m: KripkeModel, cell: frozenset[str]) -> tuple[dict, dict]:
    """A nomic class's distinct rows, bucketed by their hidden values, and
    its table of difference families, empty until ``p_family`` fills it."""
    # worlds with equal rows differ nowhere, so distinct rows suffice; rows
    # that differ on a hidden variable make no admissible pair, so rows are
    # paired only inside a bucket, where two distinct rows differ on some
    # named variable
    first_hidden = len(m.named_variables)
    buckets: dict[tuple, list[tuple]] = {}
    for row in set(map(m._row.__getitem__, cell)):
        buckets.setdefault(row[first_hidden:], []).append(row)
    return buckets, {}


def _diff(named: tuple[str, ...], u: tuple, v: tuple) -> VarSet:
    """The named variables on which rows ``u`` and ``v`` differ; rows list
    the named variables first."""
    return frozenset(itertools.compress(named, map(operator.ne, u, v)))


def atom_holds_from_family(fam: EvidenceFamily, x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth given a difference family.  Purely set-theoretic,
    so it also answers atoms over names a particular model never declares
    (such names simply never vary there)."""
    for w in fam:
        if is_evidence(w, x, y):
            return True
    return False


def dep_holds_by_evidence(m: KripkeModel, s: str, kind: str,
                          x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth via the evidence route: search the world's
    difference family for an evidence of the pair."""
    key = ("evidence", kind, x, y, m._anchor(s, kind))
    value = m._memo_table.get(key)
    if value is None:
        # a stored entry implies its names passed: x and y are in its key
        m._check_named(x)
        m._check_named(y)
        value = m._memo_table.setdefault(
            key, atom_holds_from_family(p_family(m, s, kind), x, y))
    return value


def sigma(p: EvidenceFamily, w: VarSet) -> frozenset[VarSet]:
    """Members of ``p`` included in ``w``."""
    if not w:
        raise ValueError("w must be nonempty")
    return frozenset(m for m in p if m <= w)


def is_generative(p: EvidenceFamily, w: VarSet) -> bool:
    """Whether every evidence role of ``w`` is covered by a member of ``p``:
    the members inside ``w`` cover it, and joining the variables each of
    them holds leaves one block."""
    sig = sigma(p, w)
    if frozenset().union(*sig) != w:
        return False
    # join each member with every block of variables it meets
    blocks: list[VarSet] = []
    for m in sig:
        met = [b for b in blocks if b & m]
        blocks = [b for b in blocks if not b & m] + [m.union(*met)]
    return len(blocks) == 1


def generative_family(p: EvidenceFamily) -> EvidenceFamily:
    """All generative sets from ``p``: exactly the unions of nonempty
    sub-collections of ``p`` whose intersection graph is connected, and always
    a superset of ``p`` itself.  Computed as the closure of ``p`` under
    ``g | m`` for overlapping members ``m``, which is complete because a
    connected sub-collection can be ordered so that each member meets the
    union of those before it."""
    out = set(p)
    work = list(out)
    while work:
        g = work.pop()
        grown = {g | m for m in p if g & m} - out
        out |= grown
        work.extend(grown)
    return EvidenceFamily(out)
