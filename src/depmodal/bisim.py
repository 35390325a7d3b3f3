"""Bisimilarity between finite pointed models, and distinguishing formulas.

A bisimulation pairs worlds that agree on all propositions and on both
generative families, and transfers along both relations in both directions
(zig and zag for the epistemic and the nomic relation).  On finite models
bisimilarity coincides with agreement on all formulas, so one partition
refinement (Kanellakis-Smolka) of the disjoint union of the two models
answers every question: two worlds are bisimilar iff they share a stable
cell, and the level at which two worlds split is the modal depth of the
distinguishing formula synthesized from the refinement.

Cross-model comparison requires a shared proposition signature: a pair of
worlds from models declaring different proposition sets is never bisimilar.
"""

from __future__ import annotations

from typing import Iterable

from .dependency import atom_holds_from_family, generative_sets, p_family
from .model import KripkeModel, PointedModel
from .syntax import (GLOBAL, LOCAL, All, DepG, DepL, Formula, Know, Not, Prop,
                     conj_all, dep_atom, mutual_dependence, proper_subsets)

Pair = tuple[str, str]


def _base_profile(m: KripkeModel, w: str, props: Iterable[str]) -> tuple:
    """What a bisimulation must preserve at a single world: the values of
    ``props`` and both generative families."""
    return (tuple(m.valuation[w][p] for p in props),
            generative_sets(m, w, GLOBAL), generative_sets(m, w, LOCAL))


def greatest_bisimulation(m: KripkeModel, m2: KripkeModel) -> frozenset[Pair]:
    """The largest bisimulation between the two models, as the set of
    cross-model world pairs ``(s, s2)`` that share a cell of the stable
    partition; empty when no pair is bisimilar."""
    if set(m.propositions) != set(m2.propositions):
        return frozenset()
    stable = _Refiner(m, m2).levels[-1]
    return frozenset((s, s2) for s in m.worlds for s2 in m2.worlds
                     if stable[0, s] == stable[1, s2])


# ---------------------------------------------------------------------------
# Partition refinement and distinguishing formulas
# ---------------------------------------------------------------------------

Node = tuple[int, str]


def _number(profiles: dict[Node, object]) -> dict[Node, int]:
    """Cells of equal profile, numbered by first appearance in node order."""
    ids: dict = {}
    return {node: ids.setdefault(prof, len(ids)) for node, prof in profiles.items()}


class _Refiner:
    """Modal-equivalence partitions of the disjoint union of two models, with
    formula synthesis for split pairs.  Level 0 groups nodes by base profile;
    ``levels[j]`` splits each cell of level j-1 by the cells its members'
    epistemic and nomic classes reach.  The last level is stable, so its
    cells are the bisimilarity classes."""

    def __init__(self, m: KripkeModel, m2: KripkeModel):
        self.models = (m, m2)
        self.shared_props = sorted(set(m.propositions) & set(m2.propositions))
        self.nodes: list[Node] = ([(0, w) for w in m.worlds]
                                  + [(1, w) for w in m2.worlds])
        self.levels: list[dict[Node, int]] = [_number(
            {node: _base_profile(self.model_of(node), node[1], self.shared_props)
             for node in self.nodes})]
        # numbering is canonical, so an unchanged partition compares equal
        while (cells := self._refine(self.levels[-1])) != self.levels[-1]:
            self.levels.append(cells)

    def model_of(self, node: Node) -> KripkeModel:
        return self.models[node[0]]

    def _class(self, node: Node, relation: str) -> frozenset[str]:
        mdl, w = self.model_of(node), node[1]
        return mdl.epistemic_class(w) if relation == "epi" else mdl.nomic_class(w)

    def _succ(self, node: Node, relation: str) -> list[Node]:
        return [(node[0], t) for t in sorted(self._class(node, relation))]

    def _refine(self, prev: dict[Node, int]) -> dict[Node, int]:
        reach = {(i, cls): frozenset(prev[i, t] for t in cls)
                 for i, mdl in enumerate(self.models)
                 for cls in mdl.epistemic_partition + mdl.nomic_partition}
        return _number({node: (prev[node], reach[node[0], self._class(node, "epi")],
                               reach[node[0], self._class(node, "nomic")])
                        for node in self.nodes})

    def split_level(self, a: Node, b: Node) -> int | None:
        """Smallest level at which the two nodes sit in different cells, or
        None if they are bisimilar."""
        for j, cells in enumerate(self.levels):
            if cells[a] != cells[b]:
                return j
        return None

    # -- synthesis ------------------------------------------------------

    def _atom_true_at(self, node: Node, atom: Formula) -> bool:
        # family-route truth: total even for names the model never declares
        mdl, w = self.model_of(node), node[1]
        match atom:
            case Prop(name):
                return mdl.valuation[w][name] == 1
            case DepG(x, y):
                return atom_holds_from_family(p_family(mdl, w, GLOBAL), x, y)
            case DepL(x, y):
                return atom_holds_from_family(p_family(mdl, w, LOCAL), x, y)
        raise AssertionError(f"not an atom: {atom!r}")

    def split_atom(self, a: Node, b: Node) -> Formula:
        """A proposition or dependency atom with different truth values at the
        two nodes; the nodes must sit in different level-0 cells."""
        ma, wa = self.model_of(a), a[1]
        mb, wb = self.model_of(b), b[1]
        for p in self.shared_props:
            if ma.valuation[wa][p] != mb.valuation[wb][p]:
                return Prop(p)
        for kind in (GLOBAL, LOCAL):
            ga = generative_sets(ma, wa, kind)
            gb = generative_sets(mb, wb, kind)
            diff = sorted(ga.members ^ gb.members, key=lambda s: (len(s), sorted(s)))
            for w in diff:
                for atom in _block_atoms(kind, w):
                    if self._atom_true_at(a, atom) != self._atom_true_at(b, atom):
                        return atom
        raise AssertionError("level-0 split without a distinguishing atom")

    def distinguish(self, a: Node, b: Node) -> Formula:
        """A formula true at ``a`` and false at ``b`` whose modal depth is
        their split level; the nodes must not be bisimilar."""
        j = self.split_level(a, b)
        if j is None:
            raise AssertionError("distinguish called on bisimilar nodes")
        if j == 0:
            atom = self.split_atom(a, b)
            return atom if self._atom_true_at(a, atom) else Not(atom)
        for relation, box in (("epi", Know), ("nomic", All)):
            img_a = {self.levels[j - 1][t]: t for t in self._succ(a, relation)}
            img_b = {self.levels[j - 1][t]: t for t in self._succ(b, relation)}
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


def _block_atoms(kind: str, w: frozenset[str]):
    """The atoms whose conjunction asserts that ``w`` is one interdependent
    block; one of them must separate two worlds whose generative families
    disagree on ``w``."""
    if len(w) == 1:
        yield mutual_dependence(kind, w)
        return
    for z in proper_subsets(w):
        yield dep_atom(kind, z, w - z)


def find_distinguishing_formula(pm: PointedModel, pm2: PointedModel,
                                depth: int | None = None) -> Formula | None:
    """Some formula of modal depth <= depth over the shared propositions and
    support-bounded dependency atoms that separates the two points, or None
    when every such formula agrees on them.  ``depth`` None means unbounded;
    any depth of at least n1 + n2 - 1 is the same, since the refinement is
    stable after that many rounds."""
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    ref = _Refiner(pm.model, pm2.model)
    a, b = (0, pm.point), (1, pm2.point)
    split = ref.split_level(a, b)
    if split is None or (depth is not None and split > depth):
        return None
    if split == 0:
        return ref.split_atom(a, b)
    return ref.distinguish(a, b)
