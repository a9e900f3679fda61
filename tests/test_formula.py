from __future__ import annotations

import pytest
from hypothesis import given, settings

from trivalent.formula import (
    MAX_NESTING,
    Atom,
    Compound,
    Constant,
    ParseError,
    UnknownConnectiveError,
    atoms,
    complexity,
    connectives_of,
    iter_formulas,
    parse_formula,
    render,
)
from trivalent.logics import lookup_logic

from conftest import CORE_LOGICS, formulas

K3_SIG = lookup_logic("K3").signature


def p(text, sig=K3_SIG):
    return parse_formula(text, sig)


class TestParsing:
    def test_negated_conjunction(self):
        assert p("~(p & q)") == Compound(
            "neg", (Compound("and", (Atom("p"), Atom("q"))),)
        )

    def test_implication_is_right_associative(self):
        assert p("p -> q -> r") == Compound(
            "impl", (Atom("p"), Compound("impl", (Atom("q"), Atom("r"))))
        )

    def test_conjunction_is_left_associative(self):
        assert p("p & q & r") == Compound(
            "and", (Compound("and", (Atom("p"), Atom("q"))), Atom("r"))
        )

    def test_precedence_neg_conj_disj_impl(self):
        assert p("~p & q | r -> s") == p("(((~p) & q) | r) -> s")

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            p("p &")
        assert exc.value.position == 3

    # each repetition of ``opening`` is ``levels`` nesting levels
    @pytest.mark.parametrize("opening, closing, levels", [
        ("(", ")", 1), ("~", "", 1), ("~(", ")", 2), ("p -> ", "", 1),
    ])
    def test_nesting_is_capped(self, opening, closing, levels):
        def nested(depth):
            return opening * depth + "p" + closing * depth

        deepest = MAX_NESTING // levels
        p(nested(deepest))
        with pytest.raises(ParseError) as exc:
            p(nested(deepest + 1))
        assert exc.value.message == f"formula nested more than {MAX_NESTING} levels deep"
        # far beyond the cap: a parse error, not a RecursionError
        with pytest.raises(ParseError):
            p(nested(50 * MAX_NESTING))

    def test_flat_chains_are_not_nesting(self):
        assert complexity(p(" & ".join(["p"] * (3 * MAX_NESTING)))) == 3 * MAX_NESTING - 1

    def test_unknown_connective_names_token(self):
        with pytest.raises(UnknownConnectiveError) as exc:
            p("box p")
        assert exc.value.token == "box"

    def test_modalities_need_signature(self):
        j3 = lookup_logic("J3")
        f = parse_formula("box p -> dia q", j3.signature)
        assert f.connective == "impl_j"
        assert f.args[0] == Compound("box", (Atom("p"),))

    def test_post_negation_keyword(self):
        p3 = lookup_logic("P3")
        assert parse_formula("neg_p p", p3.signature) == Compound(
            "neg_p", (Atom("p"),)
        )
        # the tilde denotes the logic's unique negation
        assert parse_formula("~p", p3.signature) == Compound("neg_p", (Atom("p"),))

    def test_additive_pair_keywords(self):
        l3 = lookup_logic("L3")
        f = parse_formula("p and_l q or_l r", l3.signature)
        assert f.connective == "or_l"
        assert f.args[0].connective == "and_l"
        # generic tokens still reach the strong pair
        assert parse_formula("p & q", l3.signature).connective == "and"

    def test_palasinska_tokens(self):
        pal = lookup_logic("Palasinska1")
        assert parse_formula("p o1 q", pal.signature).connective == "circ1"
        with pytest.raises(UnknownConnectiveError):
            parse_formula("p o2 q", pal.signature)

    def test_constants(self):
        assert p("~T") == Compound("neg", (Constant("top"),))
        assert p("F -> U") == Compound("impl", (Constant("bottom"), Constant("undef")))

    def test_reserved_words_are_not_atoms(self):
        with pytest.raises(ParseError):
            p("box")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            p("p q")

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            p("p @ q")
        assert exc.value.position == 2


class TestMeasures:
    @pytest.mark.parametrize(
        "text, expected",
        [("p & (q | p)", {"p", "q"}), ("~T", set()), ("p", {"p"})],
    )
    def test_atoms(self, text, expected):
        assert atoms(p(text)) == frozenset(expected)

    @pytest.mark.parametrize(
        "text, expected",
        [("p", 0), ("~(p & q)", 2), ("p -> (q | ~r)", 3)],
    )
    def test_complexity(self, text, expected):
        assert complexity(p(text)) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [("p", set()), ("~(p & q)", {"neg", "and"}), ("p -> (q | ~~r)", {"impl", "or", "neg"})],
    )
    def test_connectives_of(self, text, expected):
        assert connectives_of(p(text)) == frozenset(expected)

    def test_measures_walk_a_5000_deep_chain(self):
        # far deeper than the interpreter's recursion limit
        f = Compound("neg", (Atom("q"),))
        for _ in range(5000):
            f = Compound("and", (f, Atom("p")))
        assert complexity(f) == 5001
        assert connectives_of(f) == frozenset(("and", "neg"))
        assert atoms(f) == frozenset("pq")


def test_formulas_sort_in_the_documented_order():
    # atoms, then constants, then compounds; each by name, kind or
    # connective, then argument by argument
    q, r = Atom("q"), Atom("r")
    ordered = [
        Atom("p"), q, r,
        Constant("bottom"), Constant("top"), Constant("undef"),
        Compound("and", (q, q)), Compound("and", (q, r)), Compound("and", (r, q)),
        Compound("and", (Compound("neg", (q,)), q)),
        Compound("neg", (q,)), Compound("neg", (Constant("top"),)),
        Compound("or", (q, q)),
    ]
    assert sorted(reversed(ordered)) == ordered


@pytest.mark.parametrize("name", CORE_LOGICS)
def test_render_parse_roundtrip(name):
    logic = lookup_logic(name)

    @given(formulas(logic.signature))
    @settings(max_examples=120)
    def check(f):
        assert parse_formula(render(f, logic.signature), logic.signature) == f

    check()


@pytest.mark.parametrize("base, extra", [("K3", "neg_b"), ("G3", "neg_b"), ("LP", "neg_h")])
def test_roundtrip_with_two_negations(base, extra):
    # signatures with a second negation render it as its keyword; when no
    # negation is primary the tilde is unavailable and both use keywords
    sig = lookup_logic(base).extended((extra,)).signature

    @given(formulas(sig))
    @settings(max_examples=80)
    def check(f):
        assert parse_formula(render(f, sig), sig) == f

    check()


@given(formulas(lookup_logic("L3").signature))
@settings(max_examples=120)
def test_complexity_adds_up(f):
    if isinstance(f, Compound):
        assert complexity(f) == 1 + sum(complexity(a) for a in f.args)
    else:
        assert complexity(f) == 0


def test_iter_formulas_counts():
    # 1 unary + 3 binary connectives over two atoms: 2, then 14 with one
    # connective, then 182 with two
    out = list(iter_formulas(K3_SIG, ("p", "q"), 2))
    by_count = {}
    for f in out:
        by_count.setdefault(complexity(f), []).append(f)
    assert len(by_count[0]) == 2
    assert len(by_count[1]) == 14
    assert len(by_count[2]) == 182
    assert len(set(out)) == len(out)


def test_token_map_is_built_once_per_signature(monkeypatch):
    """Rendering a proof looks up one cached token map per signature, and
    prints the same bytes as rendering with a map built afresh each time."""
    import trivalent.formula as formula_module
    from trivalent.formula import _token_map
    from trivalent.prover import prove

    l3 = lookup_logic("L3")
    tree = prove(l3, "designated_1", (l3.parse("p -> q"),), l3.parse("~q -> ~p")).tree
    _token_map.cache_clear()
    text = tree.to_text(l3.signature)
    assert tree.to_text(l3.signature) == text
    assert _token_map.cache_info().misses == 1
    _token_map.cache_clear()
    tree.to_text()  # each formula's own connectives: one miss per distinct set
    assert _token_map.cache_info().misses <= 4
    monkeypatch.setattr(formula_module, "_token_map", _token_map.__wrapped__)
    assert tree.to_text(l3.signature) == text
    assert text.splitlines()[:3] == [
        "p -> q => ~q -> ~p |  =>   [impl_l.suc1]",
        "  p -> q, ~q => ~p |  =>   [neg.ant1]",
        "    p -> q => ~p |  => q   [neg.suc1]",
    ]


def test_render_uses_minimal_parentheses():
    f = p("p -> q -> r")
    assert render(f, K3_SIG) == "p -> q -> r"
    g = p("(p -> q) -> r")
    assert render(g, K3_SIG) == "(p -> q) -> r"
    h = p("p & (q | r)")
    assert render(h, K3_SIG) == "p & (q | r)"


#: malformed input per logic: the error class, message and offset
_MALFORMED = {
    "p &": {"K3": ("ParseError", "unexpected end of input", 3),
            "P3": ("UnknownConnectiveError", "connective '&' is not in the signature", 2)},
    "p @ q": {"*": ("ParseError", "unexpected character '@'", 2)},
    "(p": {"*": ("ParseError", "expected ')'", 2)},
    "p q": {"*": ("ParseError", "unexpected token 'q'", 2)},
    "box": {"K3": ("UnknownConnectiveError", "connective 'box' is not in the signature", 0),
            "J3": ("ParseError", "unexpected end of input", 3)},
    "~": {"K3": ("ParseError", "unexpected end of input", 1),
          "Palasinska1": ("UnknownConnectiveError", "connective '~' is not in the signature", 0)},
    "p ->": {"K3": ("ParseError", "unexpected end of input", 4),
             "P3": ("UnknownConnectiveError", "connective '->' is not in the signature", 2)},
    "p | | q": {"K3": ("ParseError", "unexpected token '|'", 4),
                "Palasinska1": ("UnknownConnectiveError", "connective '|' is not in the signature", 2)},
    "o1 p": {"*": ("ParseError", "unexpected token 'o1'", 0)},
    "p o2 q": {"*": ("UnknownConnectiveError", "connective 'o2' is not in the signature", 2)},
    ")": {"*": ("ParseError", "unexpected token ')'", 0)},
    "p -> (q": {"K3": ("ParseError", "expected ')'", 7),
                "P3": ("UnknownConnectiveError", "connective '->' is not in the signature", 2)},
}
#: where a logic has no entry of its own it errs as this one does
_LIKE = {"K3": "*", "J3": "K3", "P3": "K3", "Palasinska1": "P3"}


@pytest.mark.parametrize("name", ("K3", "J3", "P3", "Palasinska1"))
@pytest.mark.parametrize("text", list(_MALFORMED))
def test_malformed_input_golden(name, text):
    expected = _MALFORMED[text]
    key = name
    while key not in expected:
        key = _LIKE[key]
    kind, message, offset = expected[key]
    with pytest.raises(ParseError) as exc:
        parse_formula(text, lookup_logic(name).signature)
    assert (type(exc.value).__name__, exc.value.message, exc.value.position) == (
        kind, message, offset
    )
    assert str(exc.value) == f"{message} (at offset {offset})"


@pytest.mark.parametrize("name, tree, text", [
    ("L3", ("or_l", ("and_l", "p", "q"), "r"), "p and_l q or_l r"),
    ("L3", ("or_l", "p", ("and_l", "q", "r")), "p or_l q and_l r"),
    ("L3", ("and_l", ("or_l", "p", "q"), "r"), "(p or_l q) and_l r"),
    ("L3", ("and_l", ("and_l", "p", "q"), "r"), "p and_l q and_l r"),
    ("L3", ("and_l", "p", ("and_l", "q", "r")), "p and_l (q and_l r)"),
    ("L3", ("or_l", "p", ("or_l", "q", "r")), "p or_l (q or_l r)"),
    ("L3", ("impl_l", ("neg", ("and_l", "p", "q")), ("or_l", "r", "s")),
     "~(p and_l q) -> r or_l s"),
    ("L3", ("impl_l", "p", ("impl_l", ("impl_l", "q", "r"), "s")), "p -> (q -> r) -> s"),
    ("L3", ("and", ("and_l", ("impl_l", "p", "q"), "r"), "s"), "(p -> q) and_l r & s"),
    ("L3", ("or", ("or_l", ("and", "p", "q"), "r"), "s"), "p & q or_l r | s"),
    ("L3", ("neg", ("neg", ("or_l", "p", "q"))), "~~(p or_l q)"),
    ("L3", ("impl_l", ("and_l", "p", "q"), ("impl_l", ("and_l", "r", "s"), "t")),
     "p and_l q -> r and_l s -> t"),
    ("L3", ("and_l", ("impl_l", "p", "q"), ("or", "r", "s")), "(p -> q) and_l (r | s)"),
    ("Palasinska1", ("circ1", ("circ1", "p", "q"), "r"), "p o1 q o1 r"),
    ("Palasinska1", ("circ1", "p", ("circ1", "q", "r")), "p o1 (q o1 r)"),
    ("Palasinska1", ("circ1", ("circ1", "p", "q"), ("circ1", "r", "s")),
     "p o1 q o1 (r o1 s)"),
])
def test_render_golden(name, tree, text):
    def build(t):
        return Atom(t) if isinstance(t, str) else Compound(t[0], tuple(map(build, t[1:])))

    sig = lookup_logic(name).signature
    f = build(tree)
    assert render(f, sig) == text
    assert parse_formula(text, sig) == f
