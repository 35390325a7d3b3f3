"""Formula language: AST nodes, parser, renderer, and structural helpers.

Concrete grammar (whitespace-insensitive; reserved words: top, bot, K, A, Dg, Dl):

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("!" | "K" | "A") unary | atom
    atom    := "top" | "bot" | "Dg" "(" varset ";" varset ")"
             | "Dl" "(" varset ";" varset ")" | IDENT | "(" formula ")"
    varset  := "{" (IDENT ("," IDENT)*)? "}" | IDENT
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

A bare IDENT in varset position is the singleton shorthand: ``Dg(x;y)`` means
``Dg({x};{y})``.

"->", "|" and "bot" are surface syntax only; they desugar at parse time, so
the core AST has exactly one minimal constructor set and semantic code covers
one case set.  Formulas are immutable and hashable; sharing across threads is
safe.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError

VarSet = frozenset[str]

GLOBAL = "global"
LOCAL = "local"
KINDS = (GLOBAL, LOCAL)

RESERVED = frozenset({"top", "bot", "K", "A", "Dg", "Dl"})
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Base class for all formula AST nodes."""


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Know(Formula):
    """Box over the epistemic relation."""

    operand: Formula


@dataclass(frozen=True)
class All(Formula):
    """Box over the nomic (same-laws) relation."""

    operand: Formula


@dataclass(frozen=True)
class DepG(Formula):
    """Global dependency atom: somewhere among lawlike alternatives, the left
    block and the right block vary together while everything else stays put."""

    left: VarSet
    right: VarSet


@dataclass(frozen=True)
class DepL(Formula):
    """Local dependency atom: like DepG, but one end of the comparison is
    pinned to the evaluation world itself."""

    left: VarSet
    right: VarSet


TOP = Top()
BOT = Not(TOP)


def dep_atom(kind: str, x: VarSet, y: VarSet) -> Formula:
    """The dependency atom of the requested kind over ``x`` and ``y``."""
    _check_kind(kind)
    return DepG(x, y) if kind == GLOBAL else DepL(x, y)


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def conj_all(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; rejects an empty sequence."""
    items = list(formulas)
    if not items:
        raise ValueError("conjunction of no formulas")
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def disj_all(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        raise ValueError("disjunction of no formulas")
    out = items[0]
    for f in items[1:]:
        out = disj(out, f)
    return out


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          ";": "SEMI", ",": "COMMA", "&": "AND", "|": "OR", "!": "NOT"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
        elif c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
        elif ident := IDENT_RE.match(text, i):
            tokens.append(("IDENT", ident[0], i))
            i = ident.end()
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "EOF" else repr(tok[1])
            raise ParseError(f"expected {what}, found {found}", tok[2])
        return self.next()

    def done(self) -> None:
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])

    # formula := impl ; impl := or ("->" impl)?
    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.next()
            return implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "OR":
            self.next()
            out = disj(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "AND":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "NOT":
            self.next()
            return Not(self.unary())
        if kind == "IDENT" and text == "K":
            self.next()
            return Know(self.unary())
        if kind == "IDENT" and text == "A":
            self.next()
            return All(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if kind == "IDENT":
            if text == "top":
                self.next()
                return TOP
            if text == "bot":
                self.next()
                return BOT
            if text in ("Dg", "Dl"):
                self.next()
                self.expect("LPAREN", "'('")
                x = self.varset()
                self.expect("SEMI", "';'")
                y = self.varset()
                self.expect("RPAREN", "')'")
                return DepG(x, y) if text == "Dg" else DepL(x, y)
            if text in RESERVED:
                raise ParseError(f"reserved word {text!r} cannot be used here", pos)
            self.next()
            return Prop(text)
        found = "end of input" if kind == "EOF" else repr(text)
        raise ParseError(f"expected a formula, found {found}", pos)

    def varset(self) -> VarSet:
        kind, text, pos = self.peek()
        if kind == "IDENT":
            self.ident("variable name")
            return frozenset({text})
        self.expect("LBRACE", "'{' or a variable name")
        names: set[str] = set()
        if self.peek()[0] == "RBRACE":
            self.next()
            return frozenset()
        while True:
            _, name, npos = self.ident("variable name")
            if name in names:
                raise ParseError(f"duplicate variable {name!r} in set", npos)
            names.add(name)
            kind, _, _ = self.peek()
            if kind == "COMMA":
                self.next()
                continue
            self.expect("RBRACE", "'}' or ','")
            return frozenset(names)

    def ident(self, what: str) -> tuple[str, str, int]:
        tok = self.expect("IDENT", what)
        if tok[1] in RESERVED:
            raise ParseError(f"reserved word {tok[1]!r} cannot be used as {what}", tok[2])
        return tok


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the core AST (derived connectives desugared).
    Input nested deeper than the interpreter stack allows is a ParseError at
    the token where the stack ran out."""
    p = _Parser(text)
    try:
        out = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.peek()[2]) from None
    p.done()
    return out


def parse_varset(text: str) -> VarSet:
    """Parse a standalone variable set, e.g. ``{x,y}`` or the shorthand ``x``."""
    p = _Parser(text)
    out = p.varset()
    p.done()
    return out


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def render_formula(f: Formula) -> str:
    """Concrete syntax for ``f``; ``parse_formula`` round-trips it exactly."""
    return _render_chain(f)


def _render_chain(f: Formula) -> str:
    if isinstance(f, And):
        return _render_chain(f.left) + " & " + _render_unary(f.right)
    return _render_unary(f)


def _render_unary(f: Formula) -> str:
    match f:
        case Not(g):
            return "!" + _render_unary(g)
        case Know(g):
            return "K " + _render_unary(g)
        case All(g):
            return "A " + _render_unary(g)
        case _:
            return _render_atom(f)


def _render_atom(f: Formula) -> str:
    match f:
        case Top():
            return "top"
        case Prop(name):
            return name
        case DepG(x, y):
            return f"Dg({render_varset(x)};{render_varset(y)})"
        case DepL(x, y):
            return f"Dl({render_varset(x)};{render_varset(y)})"
        case _:
            return "(" + _render_chain(f) + ")"


def render_varset(s: VarSet) -> str:
    return "{" + ",".join(sorted(s)) + "}"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def modal_depth(f: Formula) -> int:
    """Nesting depth of K/A boxes; atoms count as depth 0.  Iterative, so any
    formula that could be built can be measured."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, depth = stack.pop()
        match g:
            case Not(h):
                stack.append((h, depth))
            case And(l, r):
                stack.extend(((l, depth), (r, depth)))
            case Know(h) | All(h):
                stack.append((h, depth + 1))
            case _:
                deepest = max(deepest, depth)
    return deepest


def collect_dep_atoms(f: Formula) -> set[tuple[str, VarSet, VarSet]]:
    """All dependency atoms occurring in ``f`` as (kind, left, right) triples.
    Dispatches on exact node type, like the evaluator's walks."""
    out: set[tuple[str, VarSet, VarSet]] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is Not or t is Know or t is All:
            stack.append(g.operand)
        elif t is DepG:
            out.add((GLOBAL, g.left, g.right))
        elif t is DepL:
            out.add((LOCAL, g.left, g.right))
    return out


def proper_subsets(w: VarSet) -> Iterator[VarSet]:
    """Nonempty proper subsets of ``w``, ordered by (size, member names)."""
    names = sorted(w)
    for size in range(1, len(names)):
        for combo in itertools.combinations(names, size):
            yield frozenset(combo)


def mutual_dependence(kind: str, w: VarSet) -> Formula:
    """Formula stating that ``w`` hangs together as one interdependent block:
    every split of ``w`` into two nonempty parts is a dependency pair.  The
    one-variable case degenerates to a self-dependency atom."""
    _check_kind(kind)
    if not w:
        raise ValueError("w must be nonempty")
    if len(w) == 1:
        return dep_atom(kind, w, w)
    return conj_all(dep_atom(kind, z, w - z) for z in proper_subsets(w))

