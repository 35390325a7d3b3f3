"""Reference semantics for checking the program's verdicts.

This module is independent of the code under test: it has its own formula
representation, parser and renderer, and evaluates formulas on a model
*document* (the JSON dict the program loads) by applying the truth clauses
literally, bottom-up over subformulas.  It imports nothing from ``depmodal``.

Formulas are nested tuples:

    ("top",)  ("prop", name)  ("not", f)  ("and", f, g)  ("or", f, g)
    ("imp", f, g)  ("K", f)  ("A", f)  ("Dg", X, Y)  ("Dl", X, Y)

with ``X`` and ``Y`` frozensets of variable names.
"""

from __future__ import annotations

TOP = ("top",)


# -- concrete syntax ----------------------------------------------------------

def render(f: tuple) -> str:
    """Concrete syntax the program's parser accepts; binary nodes are fully
    parenthesised so precedence never matters."""
    tag = f[0]
    if tag == "top":
        return "top"
    if tag == "prop":
        return f[1]
    if tag == "not":
        return "!" + render(f[1])
    if tag in ("K", "A"):
        return tag + " " + render(f[1])
    if tag in ("Dg", "Dl"):
        return f"{tag}({_varset(f[1])};{_varset(f[2])})"
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({render(f[1])} {op} {render(f[2])})"


def _varset(s: frozenset) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _tokens(text: str) -> list[str]:
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("->", i):
            out.append("->")
            i += 2
        elif c in "(){};,&|!":
            out.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in {text!r}")
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self) -> tuple:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.formula())
        return left

    def disjunction(self) -> tuple:
        out = self.conjunction()
        while self.peek() == "|":
            self.take()
            out = ("or", out, self.conjunction())
        return out

    def conjunction(self) -> tuple:
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = ("and", out, self.unary())
        return out

    def unary(self) -> tuple:
        tok = self.peek()
        if tok == "!":
            self.take()
            return ("not", self.unary())
        if tok in ("K", "A"):
            self.take()
            return (tok, self.unary())
        return self.atom()

    def atom(self) -> tuple:
        tok = self.take()
        if tok == "(":
            inner = self.formula()
            self.take(")")
            return inner
        if tok == "top":
            return TOP
        if tok == "bot":
            return ("not", TOP)
        if tok in ("Dg", "Dl"):
            self.take("(")
            x = self.varset()
            self.take(";")
            y = self.varset()
            self.take(")")
            return (tok, x, y)
        if tok[0].isalpha() or tok[0] == "_":
            return ("prop", tok)
        raise ValueError(f"unexpected token {tok!r}")

    def varset(self) -> frozenset:
        if self.peek() != "{":
            return frozenset({self.take()})
        self.take("{")
        names = []
        while self.peek() != "}":
            names.append(self.take())
            if self.peek() == ",":
                self.take()
        self.take("}")
        return frozenset(names)


def parse(text: str) -> tuple:
    p = _Parser(text)
    out = p.formula()
    if p.peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return out


# -- evaluation ---------------------------------------------------------------

class RefModel:
    """A model document with the truth clauses applied literally.

    ``extension`` memoises per subformula, so each subformula's set of worlds
    is computed once from its children's sets."""

    def __init__(self, doc: dict):
        self.worlds = frozenset(w["id"] for w in doc["worlds"])
        self.props = {w["id"]: w["props"] for w in doc["worlds"]}
        self.vals = {w["id"]: w["vals"] for w in doc["worlds"]}
        self.variables = tuple(v["name"] for v in doc["variables"])
        self.epistemic = [frozenset(c) for c in doc["epistemic_partition"]]
        self.nomic = [frozenset(c) for c in doc["nomic_partition"]]
        self._ext: dict[tuple, frozenset] = {}

    def holds(self, world: str, f: tuple) -> bool:
        return world in self.extension(f)

    def extension(self, f: tuple) -> frozenset:
        out = self._ext.get(f)
        if out is None:
            out = self._compute(f)
            self._ext[f] = out
        return out

    def _compute(self, f: tuple) -> frozenset:
        tag = f[0]
        if tag == "top":
            return self.worlds
        if tag == "prop":
            return frozenset(w for w in self.worlds if self.props[w][f[1]] == 1)
        if tag == "not":
            return self.worlds - self.extension(f[1])
        if tag == "and":
            return self.extension(f[1]) & self.extension(f[2])
        if tag == "or":
            return self.extension(f[1]) | self.extension(f[2])
        if tag == "imp":
            return (self.worlds - self.extension(f[1])) | self.extension(f[2])
        if tag in ("K", "A"):
            # box: true at s iff the operand holds throughout s's cell
            inner = self.extension(f[1])
            cells = self.epistemic if tag == "K" else self.nomic
            return frozenset().union(*(c for c in cells if c <= inner))
        if tag == "Dg":
            # some pair in the nomic cell witnesses the atom; the witness
            # does not depend on which member of the cell is evaluated
            return frozenset().union(*(
                c for c in self.nomic
                if any(self._witness(u, v, f[1], f[2]) for u in c for v in c)))
        if tag == "Dl":
            return frozenset(
                s for c in self.nomic for s in c
                if any(self._witness(t, s, f[1], f[2]) for t in c))
        raise ValueError(f"not a formula: {f!r}")

    def _witness(self, u: str, v: str, x: frozenset, y: frozenset) -> bool:
        """``u`` and ``v`` differ somewhere in ``x``, somewhere in ``y``, and
        agree on every variable (named or hidden) outside ``x | y``."""
        a, b = self.vals[u], self.vals[v]
        return (any(a[n] != b[n] for n in x)
                and any(a[n] != b[n] for n in y)
                and all(a[n] == b[n] for n in self.variables
                        if n not in x and n not in y))
