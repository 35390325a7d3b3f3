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
construction; read-only sharing across threads is safe.

``KripkeModel(doc)`` is the one constructor: it checks the document once
and raises ``ModelError`` at the first fault (``load_model`` decodes JSON
text first).  It checks the shape first (fields, variable and world
entries, cell types, ``mirrors``, ``comment``), then the world ids, names,
values, partitions and mirrors, and it copies what it keeps.  The values,
the cell types and each partition start with a pass over the whole model
(value types, least value and key counts, which also build each world's
row of values; member types; cell sizes and one union).  Only when a pass
fails does the entry-by-entry loop run, to name the first offending entry
in document order.  These rules keep a pass because it beats their loops:
values are most of a document, and a partition's sizes and union replace a
lookup per member.  World ids and world entries are checked by their loops
alone, since a pass there measured no faster than the loop.

Derived answers are cached per model, in one dict, ``_memo_table``.  Each
reader looks its key up there itself, so a hit calls and builds nothing.  A
miss computes its value first, because computations nest, and stores it
with one ``dict.setdefault``, which is atomic for the cache's keys
(strings, frozensets and tuples of them), so concurrent callers all get the
first value stored.  A global answer is anchored at the world's nomic
class.  A local answer reads only the world's nomic class and its row of
variable values, so it is anchored at the world's representative: the
first world in model order with the same nomic class and the same row.
Worlds with equal rows in one class share every local answer.  The cache
holds four kinds of entry.  Dependency atoms are cached by their anchor, one
kind of entry per route (``"direct"`` and ``"evidence"``).  Difference
families sit in one table per nomic class (``"families"``), which holds the
global family and the local family of each distinct row, keyed by their
anchors and filled as they are asked for.  The direct route's row getters
for a pair of argument sets (``"projections"``) depend only on the model's
variables, so one entry serves every anchor and both kinds.  Generative
families are not cached here: only the ``generative`` command builds one,
and bisimulation compares difference families by their cores.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .errors import EvalError, ModelError
from .syntax import GLOBAL, IDENT_RE, KINDS, LOCAL, RESERVED, VarSet


def _check_name(name: object, role: str) -> str:
    if not isinstance(name, str) or not IDENT_RE.fullmatch(name):
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


def _rows(dicts: list[dict], names: tuple[str, ...]) -> list[tuple]:
    """Each dict's values at ``names``, as a tuple; ``KeyError`` for a
    missing name."""
    if len(names) > 1:
        return list(map(itemgetter(*names), dicts))
    # itemgetter returns a bare value for one name and needs at least one
    return list(zip(map(itemgetter(*names), dicts))) if names else [()] * len(dicts)


def _cell_table(partition: tuple[frozenset[str], ...]) -> dict[str, frozenset[str]]:
    """Each world's cell of ``partition``."""
    table: dict[str, frozenset[str]] = {}
    for cell in partition:
        table.update(dict.fromkeys(cell, cell))
    return table


_DOC_FIELDS = {"propositions", "variables", "worlds", "epistemic_partition",
               "nomic_partition", "mirrors", "comment"}
_WORLD_FIELDS = {"id", "props", "vals"}


def _check_shape(doc: object) -> None:
    """Raise for the first field, entry or cell of ``doc`` of the wrong JSON
    type or with the wrong keys, in document order."""
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
    for entry in doc["variables"]:
        if not isinstance(entry, dict) or set(entry) != {"name", "hidden"}:
            raise ModelError(f"variable entry {entry!r} must be "
                             f'{{"name": ..., "hidden": ...}}')
    for entry in doc["worlds"]:
        if not isinstance(entry, dict) or set(entry) != _WORLD_FIELDS:
            raise ModelError(f'world entry must be {{"id", "props", "vals"}}, '
                             f"got {entry!r}")
        if not (isinstance(entry["id"], str) and isinstance(entry["props"], dict)
                and isinstance(entry["vals"], dict)):
            raise ModelError(f'world entry {entry!r}: "id" must be a string, '
                             f'"props" and "vals" objects')
    for field in ("epistemic_partition", "nomic_partition"):
        cells = doc[field]
        if not (set(map(type, cells)) <= {list}
                and set(map(type, chain.from_iterable(cells))) <= {str}):
            for cell in cells:
                if not (isinstance(cell, list) and all(isinstance(w, str) for w in cell)):
                    raise ModelError(f"field {field!r}: cell {cell!r} must be a list "
                                     f"of world identifiers")
    mirrors = doc.get("mirrors", {})
    if not (isinstance(mirrors, dict)
            and all(isinstance(x, str) for x in mirrors.values())):
        raise ModelError("field 'mirrors' must be an object of variable names")
    if not isinstance(doc.get("comment", ""), str):
        raise ModelError("field 'comment' must be a string")


class KripkeModel:
    """Validated finite model, built from its document; all structural
    invariants hold after __init__."""

    def __init__(self, doc: dict):
        _check_shape(doc)
        entries = doc["worlds"]
        self.worlds: tuple[str, ...] = tuple(e["id"] for e in entries)
        if not self.worlds:
            raise ModelError("model must have at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world identifiers")
        self._widx = {w: i for i, w in enumerate(self.worlds)}
        if "" in self._widx:
            raise ModelError("world identifier '' must be a non-empty string")

        self.propositions: tuple[str, ...] = tuple(doc["propositions"])
        for p in self.propositions:
            _check_name(p, "proposition")
        if len(set(self.propositions)) != len(self.propositions):
            raise ModelError("duplicate proposition names")

        var_list = [(e["name"], e["hidden"]) for e in doc["variables"]]
        for n, h in var_list:
            _check_name(n, "variable")
            if not isinstance(h, bool):
                raise ModelError(f"variable {n!r}: 'hidden' must be a boolean")
        names = [n for n, _ in var_list]
        if len(set(names)) != len(names):
            raise ModelError("duplicate variable names")
        self.named_variables: tuple[str, ...] = tuple(n for n, h in var_list if not h)
        self.hidden_variables: tuple[str, ...] = tuple(n for n, h in var_list if h)

        self.mirrors: dict[str, str] = dict(doc.get("mirrors", {}))
        self.comment: str = doc.get("comment", "")

        prop_set = set(self.propositions)
        named_set = set(self.named_variables)
        for name in prop_set & set(names):
            if self.mirrors.get(name) != name:
                raise ModelError(
                    f"name {name!r} is declared as both a proposition and a "
                    f"variable but is not its own mirror")

        # totality of the valuation and the assignment
        all_vars = self.named_variables + self.hidden_variables
        pvs, avs, rows = self._value_tables(entries, all_vars)
        self.valuation: dict[str, dict[str, int]] = dict(zip(self.worlds, pvs))
        self.assignment: dict[str, dict[str, int]] = dict(zip(self.worlds, avs))

        self.epistemic_partition = self._check_partition(
            doc["epistemic_partition"], "epistemic")
        self.nomic_partition = self._check_partition(doc["nomic_partition"], "nomic")

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

        # internal lookup structures for the evaluation hot path: each
        # world's row of values, in ``_var_pos`` order
        self._var_pos = {x: i for i, x in enumerate(all_vars)}
        self._row = dict(zip(self.worlds, rows))
        self._named_set = frozenset(self.named_variables)
        self._epi_cell = _cell_table(self.epistemic_partition)
        self._nomic_cell = _cell_table(self.nomic_partition)
        # ``first`` maps (nomic class, row) to the first world that has them
        first: dict = {}
        reps = map(first.setdefault,
                   zip(map(self._nomic_cell.__getitem__, self.worlds), rows), self.worlds)
        self._local_rep = dict(zip(self.worlds, reps))
        # ``_anchor``'s per-world table for each kind
        self._anchor_table = {GLOBAL: self._nomic_cell, LOCAL: self._local_rep}

        self._memo_table: dict = {}

    def _value_tables(self, entries: list[dict],
                      all_vars: tuple[str, ...]) -> tuple[list, list, list]:
        """Each world's proposition values and variable values, as fresh
        dicts in model order, and its row of variable values in ``all_vars``
        order.  The checks run as passes over the whole model; only when one
        fails does the per-world loop run, to report the first offending
        entry."""
        pvs = [dict(e["props"]) for e in entries]
        avs = [dict(e["vals"]) for e in entries]
        try:
            truth = list(chain.from_iterable(_rows(pvs, self.propositions)))
            rows = _rows(avs, all_vars)
            values = list(chain.from_iterable(rows))
            # a dict that has every declared name and no more entries has no
            # other name; bool is an int subclass, so the type test rejects it
            valid = (set(map(len, pvs)) <= {len(self.propositions)}
                     and set(map(len, avs)) <= {len(all_vars)}
                     and set(map(type, chain(truth, values))) <= {int}
                     and set(truth) <= {0, 1}
                     and min(values, default=0) >= 0)
        except KeyError:
            # a missing name: the per-world loop reports it
            valid = False
        if not valid:
            self._check_each_world(pvs, avs, all_vars)
            rows = _rows(avs, all_vars)
        return pvs, avs, rows

    def _check_each_world(self, pvs: list[dict], avs: list[dict],
                          all_vars: tuple[str, ...]) -> None:
        """``_value_tables``'s checks, world by world; raises for the first
        offending entry in model order."""
        prop_set, var_set = set(self.propositions), set(all_vars)
        for w, pv, av in zip(self.worlds, pvs, avs):
            for p in pv:
                if p not in prop_set:
                    raise ModelError(f"world {w!r}: undeclared proposition {p!r}")
            for p in self.propositions:
                if p not in pv:
                    raise ModelError(f"world {w!r}: missing valuation for proposition {p!r}")
                if type(pv[p]) is not int or pv[p] not in (0, 1):
                    raise ModelError(
                        f"world {w!r}: proposition {p!r} must be 0 or 1, got {pv[p]!r}")
            for x in av:
                if x not in var_set:
                    raise ModelError(f"world {w!r}: undeclared variable {x!r}")
            for x in all_vars:
                if x not in av:
                    raise ModelError(f"world {w!r}: missing value for variable {x!r}")
                _check_value(av[x], w, x)

    def _check_partition(self, cells: list[list[str]],
                         label: str) -> tuple[frozenset[str], ...]:
        # n members that cover the n worlds repeat none and name no other
        if not ([] not in cells and sum(map(len, cells)) == len(self.worlds)
                and set().union(*cells) == self._widx.keys()):
            seen: set[str] = set()
            for cell in cells:
                if not cell:
                    raise ModelError(f"{label} partition contains an empty cell")
                for w in cell:
                    if w not in self._widx:
                        raise ModelError(f"{label} partition references unknown world {w!r}")
                    if w in seen:
                        raise ModelError(
                            f"world {w!r} appears in more than one cell of the {label} partition")
                    seen.add(w)
            for w in self.worlds:
                if w not in seen:
                    raise ModelError(f"world {w!r} not covered by the {label} partition")
        return tuple(map(frozenset, cells))

    def __repr__(self) -> str:
        return (f"KripkeModel({len(self.worlds)} worlds, "
                f"{len(self.propositions)} propositions, "
                f"{len(self.named_variables)}+{len(self.hidden_variables)} variables)")

    # -- queries ----------------------------------------------------------

    @staticmethod
    def _at(table: dict, w: str):
        """``table[w]`` for a per-world table; ``EvalError`` for an unknown world."""
        try:
            return table[w]
        except KeyError:
            raise EvalError(f"unknown world {w!r}") from None

    def _world_index(self, w: str) -> int:
        return self._at(self._widx, w)

    def _check_named(self, xs: VarSet) -> None:
        if xs <= self._named_set:
            return
        bad = min(xs - self._named_set)
        if bad in self.hidden_variables:
            raise EvalError(f"hidden variable {bad!r} cannot be mentioned")
        raise EvalError(f"undeclared variable {bad!r}")

    def _anchor(self, s: str, kind: str) -> frozenset[str] | str:
        """What an answer of ``kind`` at ``s`` depends on: the nomic class for
        the global kind; for the local kind, the representative of ``s``, the
        first world in model order with the same nomic class and the same row
        of values."""
        try:
            table = self._anchor_table[kind]
        except (KeyError, TypeError):
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}") from None
        return self._at(table, s)

    def nomic_class(self, w: str) -> frozenset[str]:
        """The nomic partition cell containing ``w``."""
        return self._at(self._nomic_cell, w)

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


def load_model(doc: str | dict) -> KripkeModel:
    """Build a validated model from a JSON string or an already-parsed dict."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ModelError(f"invalid JSON: {e}") from None
    return KripkeModel(doc)


def load_model_path(path) -> KripkeModel:
    """Load a model document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ModelError(f"cannot read model file: {e}") from None
    return load_model(text)
