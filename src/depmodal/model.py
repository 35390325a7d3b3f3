"""Finite two-relation Kripke models with integer-valued variables.

A model carries a proposition valuation, a variable assignment (named
variables are the ones formulas may mention; hidden ones exist only inside
the model), and two equivalence relations stored as partitions: the
epistemic partition (what the agent cannot distinguish) and the nomic
partition (worlds sharing the same laws).  Storing relations as partitions
makes equivalence hold by construction.

Model documents are JSON objects:

    {
      "comment": "optional free text",
      "propositions": ["p", ...],
      "variables": [{"name": "x", "hidden": false}, ...],
      "worlds": [{"id": "w1", "props": {"p": 1}, "vals": {"x": 3}}, ...],
      "epistemic_partition": [["w1", ...], ...],
      "nomic_partition": [["w1", ...], ...],
      "mirrors": {"p": "bar_p"}          // optional
    }

``mirrors`` pins a variable to a proposition: at every world the variable's
value must equal the proposition's truth value.  Models are immutable after
construction; read-only sharing across threads is safe.  Derived answers
(dependency atoms, difference and generative families) are cached per model
by their anchor, and computed outside the cache lock because computations
nest.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EvalError, ModelError
from .syntax import GLOBAL, KINDS, LOCAL, RESERVED, VarSet

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: object, role: str) -> str:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ModelError(f"{role} {name!r} is not a valid identifier")
    if name in RESERVED:
        raise ModelError(f"{role} {name!r} is a reserved word")
    return name


def _check_value(value: object, world: str, name: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ModelError(
            f"world {world!r}: value for variable {name!r} must be a "
            f"non-negative integer, got {value!r}")
    return value


class KripkeModel:
    """Validated finite model; all structural invariants hold after __init__."""

    def __init__(self,
                 worlds: Iterable[str],
                 propositions: Iterable[str],
                 variables: Iterable[tuple[str, bool]],
                 valuation: Mapping[str, Mapping[str, int]],
                 assignment: Mapping[str, Mapping[str, int]],
                 epistemic_partition: Iterable[Iterable[str]],
                 nomic_partition: Iterable[Iterable[str]],
                 mirrors: Mapping[str, str] | None = None,
                 comment: str = ""):
        self.worlds: tuple[str, ...] = tuple(worlds)
        if not self.worlds:
            raise ModelError("model must have at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world identifiers")
        for w in self.worlds:
            if not isinstance(w, str) or not w:
                raise ModelError(f"world identifier {w!r} must be a non-empty string")
        self._widx = {w: i for i, w in enumerate(self.worlds)}

        self.propositions: tuple[str, ...] = tuple(propositions)
        for p in self.propositions:
            _check_name(p, "proposition")
        if len(set(self.propositions)) != len(self.propositions):
            raise ModelError("duplicate proposition names")

        var_list = [(str(n), bool(h)) for n, h in variables]
        for n, _ in var_list:
            _check_name(n, "variable")
        names = [n for n, _ in var_list]
        if len(set(names)) != len(names):
            raise ModelError("duplicate variable names")
        self.named_variables: tuple[str, ...] = tuple(n for n, h in var_list if not h)
        self.hidden_variables: tuple[str, ...] = tuple(n for n, h in var_list if h)

        self.mirrors: dict[str, str] = dict(mirrors or {})
        self.comment = comment

        prop_set = set(self.propositions)
        named_set = set(self.named_variables)
        for name in prop_set & set(names):
            if self.mirrors.get(name) != name:
                raise ModelError(
                    f"name {name!r} is declared as both a proposition and a "
                    f"variable but is not its own mirror")

        # totality of the valuation and the assignment
        self.valuation: dict[str, dict[str, int]] = {}
        self.assignment: dict[str, dict[str, int]] = {}
        all_vars = self.named_variables + self.hidden_variables
        for w in self.worlds:
            if w not in valuation:
                raise ModelError(f"world {w!r}: no proposition valuation given")
            if w not in assignment:
                raise ModelError(f"world {w!r}: no variable assignment given")
            pv = dict(valuation[w])
            for p in pv:
                if p not in prop_set:
                    raise ModelError(f"world {w!r}: undeclared proposition {p!r}")
            for p in self.propositions:
                if p not in pv:
                    raise ModelError(f"world {w!r}: missing valuation for proposition {p!r}")
                if type(pv[p]) is not int or pv[p] not in (0, 1):
                    raise ModelError(
                        f"world {w!r}: proposition {p!r} must be 0 or 1, got {pv[p]!r}")
            av = dict(assignment[w])
            for x in av:
                if x not in names:
                    raise ModelError(f"world {w!r}: undeclared variable {x!r}")
            for x in all_vars:
                if x not in av:
                    raise ModelError(f"world {w!r}: missing value for variable {x!r}")
                _check_value(av[x], w, x)
            self.valuation[w] = pv
            self.assignment[w] = av

        self.epistemic_partition = self._check_partition(epistemic_partition, "epistemic")
        self.nomic_partition = self._check_partition(nomic_partition, "nomic")

        for p, x in self.mirrors.items():
            if p not in prop_set:
                raise ModelError(f"mirror declares undeclared proposition {p!r}")
            if x not in named_set:
                raise ModelError(f"mirror target {x!r} is not a named variable")
            for w in self.worlds:
                t, u = self.valuation[w][p], self.assignment[w][x]
                if t != u:
                    raise ModelError(
                        f"mirror violation at world {w!r}: proposition {p!r} is "
                        f"{t} but variable {x!r} is {u}")

        # internal lookup structures for the evaluation hot path
        order = all_vars
        self._var_pos = {x: i for i, x in enumerate(order)}
        self._vals = tuple(tuple(self.assignment[w][x] for x in order) for w in self.worlds)
        self._var_enum = tuple(enumerate(order))
        self._named_set = frozenset(self.named_variables)
        self._named_enum = tuple((self._var_pos[x], x) for x in self.named_variables)
        self._hidden_idx = tuple(self._var_pos[x] for x in self.hidden_variables)
        self._epi_cell = {w: cell for cell in self.epistemic_partition for w in cell}
        self._nomic_cell = {w: cell for cell in self.nomic_partition for w in cell}

        self._cache_lock = threading.Lock()
        self._memo_table: dict = {}

    def _check_partition(self, cells: Iterable[Iterable[str]],
                         label: str) -> tuple[frozenset[str], ...]:
        seen: set[str] = set()
        out = []
        for cell in cells:
            members = tuple(cell)
            if not members:
                raise ModelError(f"{label} partition contains an empty cell")
            for w in members:
                if w not in self._widx:
                    raise ModelError(f"{label} partition references unknown world {w!r}")
                if w in seen:
                    raise ModelError(
                        f"world {w!r} appears in more than one cell of the {label} partition")
                seen.add(w)
            out.append(frozenset(members))
        for w in self.worlds:
            if w not in seen:
                raise ModelError(f"world {w!r} not covered by the {label} partition")
        return tuple(out)

    def __repr__(self) -> str:
        return (f"KripkeModel({len(self.worlds)} worlds, "
                f"{len(self.propositions)} propositions, "
                f"{len(self.named_variables)}+{len(self.hidden_variables)} variables)")

    # -- queries ----------------------------------------------------------

    def _world_index(self, w: str) -> int:
        try:
            return self._widx[w]
        except KeyError:
            raise EvalError(f"unknown world {w!r}") from None

    def _check_named(self, xs: VarSet) -> None:
        bad = xs - self._named_set
        if bad:
            raise EvalError(f"undeclared variable {sorted(bad)[0]!r}")

    def _anchor(self, s: str, kind: str) -> frozenset[str] | str:
        """What an answer of ``kind`` at ``s`` depends on: the nomic class for
        the global kind, the world itself for the local kind."""
        if kind == GLOBAL:
            return self.nomic_class(s)
        if kind == LOCAL:
            self._world_index(s)
            return s
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    def _memo(self, key: tuple, compute):
        """The cached ``compute()`` for ``key``.  Computed outside the lock,
        since one computation may ask for another; concurrent callers all get
        the first value stored."""
        cached = self._memo_table.get(key)
        if cached is not None:
            return cached
        value = compute()
        with self._cache_lock:
            return self._memo_table.setdefault(key, value)

    def prop_value(self, w: str, p: str) -> int:
        self._world_index(w)
        if p not in self.valuation[w]:
            raise EvalError(f"undeclared proposition {p!r}")
        return self.valuation[w][p]

    def value(self, w: str, x: str) -> int:
        i = self._world_index(w)
        if x not in self._var_pos:
            raise EvalError(f"undeclared variable {x!r}")
        return self._vals[i][self._var_pos[x]]

    def epistemic_class(self, w: str) -> frozenset[str]:
        """The epistemic partition cell containing ``w``."""
        self._world_index(w)
        return self._epi_cell[w]

    def nomic_class(self, w: str) -> frozenset[str]:
        """The nomic partition cell containing ``w``."""
        self._world_index(w)
        return self._nomic_cell[w]

    def agree_outside(self, u: str, v: str, xy: VarSet) -> bool:
        """True iff every variable (named or hidden) outside ``xy`` takes the
        same value at ``u`` and ``v``."""
        self._check_named(xy)
        vu = self._vals[self._world_index(u)]
        vv = self._vals[self._world_index(v)]
        for i, name in self._var_enum:
            if vu[i] != vv[i] and name not in xy:
                return False
        return True

    def differs_on(self, u: str, v: str, xs: VarSet) -> bool:
        """True iff some member of ``xs`` takes different values at ``u`` and
        ``v``; false for the empty set."""
        self._check_named(xs)
        vu = self._vals[self._world_index(u)]
        vv = self._vals[self._world_index(v)]
        pos = self._var_pos
        for x in xs:
            if vu[pos[x]] != vv[pos[x]]:
                return True
        return False

    def delta(self, u: str, v: str) -> VarSet:
        """Named variables on which ``u`` and ``v`` differ, provided they agree
        on every hidden variable; the empty set otherwise."""
        vu = self._vals[self._world_index(u)]
        vv = self._vals[self._world_index(v)]
        for i in self._hidden_idx:
            if vu[i] != vv[i]:
                return frozenset()
        return frozenset(x for i, x in self._named_enum if vu[i] != vv[i])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Document form of the model, suitable for ``load_model``."""
        doc: dict = {
            "propositions": list(self.propositions),
            "variables": ([{"name": x, "hidden": False} for x in self.named_variables]
                          + [{"name": x, "hidden": True} for x in self.hidden_variables]),
            "worlds": [{"id": w,
                        "props": dict(self.valuation[w]),
                        "vals": dict(self.assignment[w])}
                       for w in self.worlds],
            "epistemic_partition": [sorted(c) for c in self.epistemic_partition],
            "nomic_partition": [sorted(c) for c in self.nomic_partition],
        }
        if self.mirrors:
            doc["mirrors"] = dict(self.mirrors)
        if self.comment:
            doc["comment"] = self.comment
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class PointedModel:
    """A model together with a distinguished world."""

    model: KripkeModel
    point: str

    def __post_init__(self):
        self.model._world_index(self.point)


_DOC_FIELDS = {"propositions", "variables", "worlds", "epistemic_partition",
               "nomic_partition", "mirrors", "comment"}
_WORLD_FIELDS = {"id", "props", "vals"}


def load_model(doc: str | dict) -> KripkeModel:
    """Build a validated model from a JSON string or an already-parsed dict."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ModelError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise ModelError(f"unknown field {sorted(unknown)[0]!r} in model document")
    for field in ("propositions", "variables", "worlds",
                  "epistemic_partition", "nomic_partition"):
        if field not in doc:
            raise ModelError(f"model document missing field {field!r}")
        if not isinstance(doc[field], list):
            raise ModelError(f"field {field!r} must be a list")

    variables = []
    for entry in doc["variables"]:
        if not isinstance(entry, dict) or set(entry) != {"name", "hidden"}:
            raise ModelError(f"variable entry {entry!r} must be "
                             f'{{"name": ..., "hidden": ...}}')
        if not isinstance(entry["hidden"], bool):
            raise ModelError(f"variable {entry['name']!r}: 'hidden' must be a boolean")
        variables.append((entry["name"], entry["hidden"]))

    worlds, valuation, assignment = [], {}, {}
    for entry in doc["worlds"]:
        if not isinstance(entry, dict) or set(entry) != _WORLD_FIELDS:
            raise ModelError(f'world entry must be {{"id", "props", "vals"}}, '
                             f"got {entry!r}")
        w = entry["id"]
        if not (isinstance(w, str) and isinstance(entry["props"], dict)
                and isinstance(entry["vals"], dict)):
            raise ModelError(f'world entry {entry!r}: "id" must be a string, '
                             f'"props" and "vals" objects')
        worlds.append(w)
        valuation[w] = entry["props"]
        assignment[w] = entry["vals"]
    for field in ("epistemic_partition", "nomic_partition"):
        for cell in doc[field]:
            if not (isinstance(cell, list) and all(isinstance(w, str) for w in cell)):
                raise ModelError(f"field {field!r}: cell {cell!r} must be a list "
                                 f"of world identifiers")

    mirrors = doc.get("mirrors", {})
    if not (isinstance(mirrors, dict)
            and all(isinstance(x, str) for x in mirrors.values())):
        raise ModelError("field 'mirrors' must be an object of variable names")
    comment = doc.get("comment", "")
    if not isinstance(comment, str):
        raise ModelError("field 'comment' must be a string")

    return KripkeModel(worlds=worlds,
                       propositions=doc["propositions"],
                       variables=variables,
                       valuation=valuation,
                       assignment=assignment,
                       epistemic_partition=doc["epistemic_partition"],
                       nomic_partition=doc["nomic_partition"],
                       mirrors=mirrors,
                       comment=comment)


def load_model_path(path) -> KripkeModel:
    """Load a model document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelError(f"cannot read model file: {e}") from None
    return load_model(text)
