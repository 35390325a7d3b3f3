import itertools
import random

import pytest

from depmodal.errors import ParseError
from depmodal.syntax import (GLOBAL, LOCAL, TOP, All, And, DepG, DepL, Know,
                             Not, Prop, modal_depth, mutual_dependence,
                             parse_formula, parse_varset, proper_subsets,
                             render_formula)


def vs(*names):
    return frozenset(names)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_modal_dep_atom(self):
        assert parse_formula("K Dg({x};{z})") == Know(DepG(vs("x"), vs("z")))

    def test_implication_desugars(self):
        got = parse_formula("(p & !q) -> A p")
        want = Not(And(And(Prop("p"), Not(Prop("q"))), Not(All(Prop("p")))))
        assert got == want

    def test_disjunction_desugars(self):
        got = parse_formula("p | q")
        assert got == Not(And(Not(Prop("p")), Not(Prop("q"))))

    def test_bot_desugars(self):
        assert parse_formula("bot") == Not(TOP)

    def test_singleton_shorthand(self):
        assert parse_formula("Dg(x;y)") == DepG(vs("x"), vs("y"))
        assert parse_formula("Dg(x;y)") == parse_formula("Dg({x};{y})")

    def test_empty_varset(self):
        assert parse_formula("Dg({};{x})") == DepG(frozenset(), vs("x"))

    def test_unbalanced_delimiter_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("Dg({x};{z}")
        assert err.value.position == len("Dg({x};{z}")

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("Dg({top};{x})")
        with pytest.raises(ParseError):
            parse_formula("K & p")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_precedence(self):
        # & binds tighter than |, | tighter than ->; -> is right-associative
        assert parse_formula("p & q | r") == parse_formula("(p & q) | r")
        assert parse_formula("p -> q -> r") == parse_formula("p -> (q -> r)")
        assert parse_formula("K p & q") == And(Know(Prop("p")), Prop("q"))

    def test_parse_varset(self):
        assert parse_varset("{a,b}") == vs("a", "b")
        assert parse_varset("x") == vs("x")
        assert parse_varset("{}") == frozenset()
        with pytest.raises(ParseError):
            parse_varset("{a,a}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class TestRender:
    def test_spec_shapes(self):
        assert render_formula(Know(DepG(vs("x"), vs("z")))) == "K Dg({x};{z})"
        assert render_formula(TOP) == "top"
        assert render_formula(DepL(vs("a", "b"), vs("c"))) == "Dl({a,b};{c})"

    def test_nested_conjunction_parens(self):
        a, b, c = Prop("a"), Prop("b"), Prop("c")
        assert render_formula(And(And(a, b), c)) == "a & b & c"
        assert render_formula(And(a, And(b, c))) == "a & (b & c)"
        assert render_formula(Not(And(a, b))) == "!(a & b)"

    @pytest.mark.parametrize("text", [
        "K Dg({bar_p};{bar_r})",
        "!(p & !q)",
        "K !Dl({x};{y}) & A top",
        "Dg({};{x})",
        "K K A !!p",
    ])
    def test_roundtrip_pinned(self, text):
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f

    def test_roundtrip_random(self):
        rng = random.Random(7)
        atoms = [TOP, Prop("p"), Prop("q"),
                 DepG(vs("x"), vs("y")), DepL(vs("x", "y"), vs("z"))]

        def build(depth):
            if depth == 0:
                return rng.choice(atoms)
            return rng.choice([
                lambda: Not(build(depth - 1)),
                lambda: And(build(depth - 1), build(depth - 1)),
                lambda: Know(build(depth - 1)),
                lambda: All(build(depth - 1)),
            ])()

        for _ in range(300):
            f = build(rng.randint(0, 5))
            assert parse_formula(render_formula(f)) == f


# ---------------------------------------------------------------------------
# Interdependent-block formulas
# ---------------------------------------------------------------------------

def conjuncts(f):
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


class TestMutualDependence:
    def test_singleton(self):
        assert mutual_dependence(GLOBAL, vs("x")) == DepG(vs("x"), vs("x"))

    def test_two_elements(self):
        got = mutual_dependence(GLOBAL, vs("x", "y"))
        assert got == And(DepG(vs("x"), vs("y")), DepG(vs("y"), vs("x")))

    def test_three_elements_against_subset_oracle(self):
        w = vs("x", "y", "z")
        got = conjuncts(mutual_dependence(LOCAL, w))
        # brute-force oracle: every nonempty proper subset, one conjunct each
        expected = {DepL(frozenset(z), w - frozenset(z))
                    for size in (1, 2)
                    for z in itertools.combinations(sorted(w), size)}
        assert len(got) == 6
        assert set(got) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conjunct_count(self, n):
        w = frozenset(f"v{i}" for i in range(n))
        assert len(conjuncts(mutual_dependence(GLOBAL, w))) == 2 ** n - 2

    def test_deterministic_order(self):
        w = vs("b", "a", "c")
        subsets = list(proper_subsets(w))
        assert subsets == [vs("a"), vs("b"), vs("c"),
                           vs("a", "b"), vs("a", "c"), vs("b", "c")]
        got = conjuncts(mutual_dependence(GLOBAL, w))
        assert got == [DepG(z, w - z) for z in subsets]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mutual_dependence(GLOBAL, frozenset())
        with pytest.raises(ValueError):
            mutual_dependence("sideways", vs("x"))


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def test_modal_depth():
    f = parse_formula("K (A p -> Dg({x};{y}))")
    assert modal_depth(f) == 2
    assert modal_depth(parse_formula("Dl({x};{y})")) == 0


def test_formulas_hashable_and_immutable():
    f = parse_formula("K Dg({x};{y})")
    assert hash(f) == hash(parse_formula("K Dg({x};{y})"))
    with pytest.raises(AttributeError):
        f.operand = TOP
