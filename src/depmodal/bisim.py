"""Bisimilarity between finite pointed models, and distinguishing formulas.

A bisimulation pairs worlds that agree on all propositions and on both
generative families, and transfers along both relations in both directions
(zig and zag for the epistemic and the nomic relation).  On finite models
bisimilarity coincides with agreement on all formulas, so one partition
refinement (Kanellakis-Smolka) of the disjoint union of the two models
answers every question: two worlds are bisimilar iff they share a stable
cell, and the level at which two worlds split is the modal depth of the
distinguishing formula synthesized from the refinement.  The refinement runs
on integer node ids and does each piece of work once per distinct input.

Worlds of models that declare different proposition sets are never
bisimilar: their greatest bisimulation is empty, and
``find_distinguishing_formula`` rejects such points with ``EvalError``.
"""

from __future__ import annotations

import itertools
import operator

from .dependency import EvidenceFamily, atom_holds_from_family, is_generative, p_family
from .errors import EvalError
from .model import KripkeModel
from .syntax import (GLOBAL, LOCAL, All, DepG, DepL, Formula, Know, Not, Prop,
                     conj_all, split_atoms)

Pair = tuple[str, str]


def greatest_bisimulation(m: KripkeModel, m2: KripkeModel) -> frozenset[Pair]:
    """The largest bisimulation between the two models, as the set of
    cross-model world pairs ``(s, s2)`` that share a cell of the stable
    partition; empty when no pair is bisimilar."""
    if set(m.propositions) != set(m2.propositions):
        return frozenset()
    stable = _Refiner(m, m2).levels[-1]
    return frozenset((s, s2) for s, c in zip(m.worlds, stable)
                     for s2, c2 in zip(m2.worlds, stable[len(m.worlds):]) if c == c2)


# ---------------------------------------------------------------------------
# Partition refinement and distinguishing formulas
# ---------------------------------------------------------------------------

def _number(profiles: list) -> list[int]:
    """Cells of equal profile, numbered by first appearance in node order."""
    ids = dict(zip(dict.fromkeys(profiles), itertools.count()))
    return list(map(ids.__getitem__, profiles))


class _Refiner:
    """Modal-equivalence partitions of the disjoint union of two models, with
    formula synthesis for split pairs.

    Nodes are integers: model 0's worlds in model order, then model 1's.
    Each epistemic and nomic class is a cell, a tuple of node ids sorted by
    world name; ``epi[v]`` and ``nomic[v]`` index node v's cells.  The two
    models declare the same propositions.  Level 0 groups nodes by the values
    of the propositions and both generative families.  The difference
    families are read once per anchor, from each nomic class's table (the
    global family and one local family per distinct row); each distinct
    difference family's core is found once for both models, and each
    distinct core, which stands for one generative family, gets a small int.
    A node's level-0 profile is ``(proposition values, global id, local
    id)``, so numbering it hashes ints.
    ``levels[j]`` splits each cell of level j-1 by the cells its members'
    epistemic and nomic classes reach.  The last level is stable, so its
    cells are the bisimilarity classes."""

    def __init__(self, m: KripkeModel, m2: KripkeModel):
        self.models = (m, m2)
        self.props = sorted(m.propositions)
        self.names = m.worlds + m2.worlds
        self.cells: list[tuple[int, ...]] = []
        self.epi: list[int] = []
        self.nomic: list[int] = []
        # distinct cores -> their ids
        core_ids: dict[frozenset, int] = {}
        # difference family -> the id of its core
        cored: dict[EvidenceFamily, int] = {}
        values = operator.itemgetter(*self.props) if self.props else (lambda pv: ())
        self.profiles: list[tuple] = []
        for mdl, offset in ((m, 0), (m2, len(m.worlds))):
            for partition, table, cell_of in (
                    (mdl.epistemic_partition, mdl._epi_cell, self.epi),
                    (mdl.nomic_partition, mdl._nomic_cell, self.nomic)):
                index = {}
                for cls in partition:
                    index[cls] = len(self.cells)
                    self.cells.append(tuple(map(offset.__add__,
                                                map(mdl._widx.__getitem__, sorted(cls)))))
                cell_of += map(index.__getitem__, map(table.__getitem__, mdl.worlds))
            # each anchor's core id: the nomic class's for the global
            # family, the row representative's for the local one; any world
            # of a class reads its global family
            gen_of: dict = {}
            anchored = [(GLOBAL, cls, next(iter(cls))) for cls in mdl.nomic_partition]
            anchored += [(LOCAL, rep, rep) for rep in dict.fromkeys(mdl._local_rep.values())]
            for kind, anchor, w in anchored:
                fam = p_family(mdl, w, kind)
                gid = cored.get(fam)
                if gid is None:
                    gid = cored[fam] = core_ids.setdefault(_core(fam), len(core_ids))
                gen_of[anchor] = gid
            self.profiles += zip(
                map(values, map(mdl.valuation.__getitem__, mdl.worlds)),
                map(gen_of.__getitem__, map(mdl._nomic_cell.__getitem__, mdl.worlds)),
                map(gen_of.__getitem__, map(mdl._local_rep.__getitem__, mdl.worlds)))
        self.levels: list[list[int]] = [_number(self.profiles)]
        while True:
            prev = self.levels[-1]
            reach = [frozenset(map(prev.__getitem__, cell)) for cell in self.cells]
            cur = _number(list(zip(prev, map(reach.__getitem__, self.epi),
                                   map(reach.__getitem__, self.nomic))))
            # numbering is canonical, so an unchanged partition compares equal
            if cur == prev:
                break
            self.levels.append(cur)

    def world(self, v: int) -> tuple[KripkeModel, str]:
        return self.models[v >= len(self.models[0].worlds)], self.names[v]

    def split_level(self, a: int, b: int) -> int | None:
        """Smallest level at which the two nodes sit in different cells, or
        None if they are bisimilar."""
        for j, cells in enumerate(self.levels):
            if cells[a] != cells[b]:
                return j
        return None

    # -- synthesis ------------------------------------------------------

    def _atom_true_at(self, v: int, atom: Formula) -> bool:
        # family-route truth: total even for names the model never declares
        mdl, w = self.world(v)
        match atom:
            case Prop(name):
                return mdl.valuation[w][name] == 1
            case DepG(x, y):
                return atom_holds_from_family(p_family(mdl, w, GLOBAL), x, y)
            case DepL(x, y):
                return atom_holds_from_family(p_family(mdl, w, LOCAL), x, y)
        raise AssertionError(f"not an atom: {atom!r}")

    def split_atom(self, a: int, b: int) -> Formula:
        """A proposition or dependency atom with different truth values at the
        two nodes; the nodes must sit in different level-0 cells.  Each family
        member, least first, offers its ``split_atoms`` in order."""
        (ma, wa), (mb, wb) = self.world(a), self.world(b)
        for p in self.props:
            if ma.valuation[wa][p] != mb.valuation[wb][p]:
                return Prop(p)
        # the least set the generative families disagree on is a member, and
        # the members before it lie in both, so none of their atoms separates
        for kind, i in ((GLOBAL, 1), (LOCAL, 2)):
            if self.profiles[a][i] == self.profiles[b][i]:
                continue
            members = p_family(ma, wa, kind) | p_family(mb, wb, kind)
            for w in sorted(members, key=lambda s: (len(s), sorted(s))):
                for atom in split_atoms(kind, w):
                    if self._atom_true_at(a, atom) != self._atom_true_at(b, atom):
                        return atom
        raise AssertionError("level-0 split without a distinguishing atom")

    def distinguish(self, a: int, b: int) -> Formula:
        """A formula true at ``a`` and false at ``b`` whose modal depth is
        their split level; the nodes must not be bisimilar."""
        j = self.split_level(a, b)
        if j is None:
            raise AssertionError("distinguish called on bisimilar nodes")
        if j == 0:
            atom = self.split_atom(a, b)
            return atom if self._atom_true_at(a, atom) else Not(atom)
        prev = self.levels[j - 1]
        for cell_of, box in ((self.epi, Know), (self.nomic, All)):
            img_a = {prev[t]: t for t in self.cells[cell_of[a]]}
            img_b = {prev[t]: t for t in self.cells[cell_of[b]]}
            if set(img_a) != set(img_b):
                if set(img_a) - set(img_b):
                    # a sees a cell b never reaches: diamond over a's witness
                    t = img_a[min(set(img_a) - set(img_b))]
                    body = conj_all(self.distinguish(t, img_b[c])
                                    for c in sorted(img_b))
                    return Not(box(Not(body)))
                # b sees a cell a never reaches: box formula over a's successors
                t = img_b[min(set(img_b) - set(img_a))]
                body = conj_all(self.distinguish(t, img_a[c])
                                for c in sorted(img_a))
                return box(Not(body))
        raise AssertionError("split level with equal successor images")


def _core(p: EvidenceFamily) -> frozenset:
    """The members of ``p`` its strictly smaller members do not generate;
    families with equal cores have equal generative families."""
    return frozenset(w for w in p
                     if not is_generative(frozenset(m for m in p if m < w), w))


def find_distinguishing_formula(m: KripkeModel, s: str, m2: KripkeModel,
                                s2: str) -> Formula | None:
    """A formula over the propositions and support-bounded dependency atoms
    that separates ``s`` in ``m`` from ``s2`` in ``m2``, of modal depth equal
    to the level at which the refinement splits them (at most n1 + n2 - 1),
    or None when the points are bisimilar.  ``EvalError`` for an unknown
    world, and then for models that declare different propositions."""
    a = m._world_index(s)
    b = len(m.worlds) + m2._world_index(s2)
    if set(m.propositions) != set(m2.propositions):
        raise EvalError("proposition signatures differ; models are not comparable")
    ref = _Refiner(m, m2)
    split = ref.split_level(a, b)
    if split is None:
        return None
    if split == 0:
        return ref.split_atom(a, b)
    return ref.distinguish(a, b)
