"""Formula language: AST nodes, parser, renderer, and structural helpers.

Concrete grammar (whitespace-insensitive; reserved words: top, bot, K, A, Dg, Dl):

    formula := or ("->" formula)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("!" | "K" | "A") unary | atom
    atom    := "top" | "bot" | "Dg" "(" varset ";" varset ")"
             | "Dl" "(" varset ";" varset ")" | IDENT | "(" formula ")"
    varset  := "{" (IDENT ("," IDENT)*)? "}" | IDENT
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

A bare IDENT in varset position is the singleton shorthand: ``Dg(x;y)`` means
``Dg({x};{y})``.  The parser reads this grammar from two tables, the prefix
connectives and the binary ones with their binding strengths, by precedence
climbing; the renderer reads the prefix table in reverse.

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
    """Left-folded conjunction of the distinct formulas, in order of first
    occurrence; rejects an empty sequence.  A lone conjunct is returned
    unhashed, since hashing recurses through the whole formula."""
    items = list(formulas)
    if not items:
        raise ValueError("conjunction of no formulas")
    if len(items) > 1:
        items = list(dict.fromkeys(items))
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

# Group 1 is a token: "->", a punctuation mark or an IDENT.  Tokens are ASCII,
# so ``str.isidentifier`` holds for IDENTs alone.  Group 2 is any other
# character outside whitespace.
_TOKEN_RE = re.compile(rf"(->|[(){{}};,&|!]|{IDENT_RE.pattern})|(\S)")

# the binary connectives: binding strength (loosest 1), whether a chain of
# them nests to the right, and the node builder
_BINARY = {"->": (1, True, implies), "|": (2, False, disj), "&": (3, False, And)}
_PREFIX = {"!": Not, "K": Know, "A": All}


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token's text and position, then ``""`` at the end of input."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m[2] is not None:
            raise ParseError(f"unexpected character {m[2]!r}", m.start())
        tokens.append((m[1], m.start()))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def fail(self, what: str):
        text, pos = self.tokens[self.at]
        found = repr(text) if text else "end of input"
        raise ParseError(f"expected {what}, found {found}", pos)

    def expect(self, tok: str) -> None:
        if self.tokens[self.at][0] != tok:
            self.fail(repr(tok))
        self.at += 1

    def done(self) -> None:
        text, pos = self.tokens[self.at]
        if text:
            raise ParseError(f"unexpected trailing input {text!r}", pos)

    def formula(self, loosest: int = 1) -> Formula:
        # precedence climbing over the connectives binding at least as tightly
        # as ``loosest``
        out = self.unary()
        while (op := _BINARY.get(self.tokens[self.at][0])) and op[0] >= loosest:
            strength, nests_right, build = op
            self.at += 1
            out = build(out, self.formula(strength if nests_right else strength + 1))
        return out

    def unary(self) -> Formula:
        wraps = []
        while (wrap := _PREFIX.get(self.tokens[self.at][0])) is not None:
            wraps.append(wrap)
            self.at += 1
        out = self.atom()
        for wrap in reversed(wraps):
            out = wrap(out)
        return out

    def atom(self) -> Formula:
        text = self.tokens[self.at][0]
        if text == "(":
            self.at += 1
            inner = self.formula()
            self.expect(")")
            return inner
        if not text.isidentifier():
            self.fail("a formula")
        self.at += 1
        if text == "top":
            return TOP
        if text == "bot":
            return BOT
        if text != "Dg" and text != "Dl":
            return Prop(text)
        self.expect("(")
        x = self.varset()
        self.expect(";")
        y = self.varset()
        self.expect(")")
        return DepG(x, y) if text == "Dg" else DepL(x, y)

    def varset(self) -> VarSet:
        text = self.tokens[self.at][0]
        if text.isidentifier():
            return frozenset({self.ident()[0]})
        if text != "{":
            self.fail("'{' or a variable name")
        self.at += 1
        names: set[str] = set()
        while self.tokens[self.at][0] != "}":
            if names:
                if self.tokens[self.at][0] != ",":
                    self.fail("'}' or ','")
                self.at += 1
            name, pos = self.ident()
            if name in names:
                raise ParseError(f"duplicate variable {name!r} in set", pos)
            names.add(name)
        self.at += 1
        return frozenset(names)

    def ident(self) -> tuple[str, int]:
        text, pos = tok = self.tokens[self.at]
        if not text.isidentifier():
            self.fail("variable name")
        if text in RESERVED:
            raise ParseError(f"reserved word {text!r} cannot be used as variable name", pos)
        self.at += 1
        return tok


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the core AST (derived connectives desugared).
    Input nested deeper than the interpreter stack allows is a ParseError at
    the token where the stack ran out."""
    p = _Parser(text)
    try:
        out = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.tokens[p.at][1]) from None
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

# the prefix table read in reverse; a space keeps K and A off a following IDENT
_PREFIX_TEXT = {node: text if text == "!" else text + " " for text, node in _PREFIX.items()}


def render_formula(f: Formula) -> str:
    """Concrete syntax for ``f``; ``parse_formula`` round-trips it exactly."""
    return _render_chain(f)


def _render_chain(f: Formula) -> str:
    """``f`` as a chain of ``&`` whose right operands are unary."""
    parts = []
    while type(f) is And:
        parts.append(_render_unary(f.right))
        f = f.left
    parts.append(_render_unary(f))
    return " & ".join(reversed(parts))


def _render_unary(f: Formula) -> str:
    prefix = ""
    while (text := _PREFIX_TEXT.get(type(f))) is not None:
        prefix += text
        f = f.operand
    t = type(f)
    if t is DepG or t is DepL:
        kind = "Dg" if t is DepG else "Dl"
        return f"{prefix}{kind}({render_varset(f.left)};{render_varset(f.right)})"
    if t is Prop:
        return prefix + f.name
    if t is Top:
        return prefix + "top"
    return prefix + "(" + _render_chain(f) + ")"


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

