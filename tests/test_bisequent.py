from __future__ import annotations

import pytest
from hypothesis import given, settings

from trivalent.bisequent import (
    Sequent,
    bisequent,
    clashes,
    is_atomic,
    is_axiomatic,
    parse_bisequent,
    render_bisequent,
)
from trivalent.formula import Atom, ParseError
from trivalent.logics import lookup_logic
from trivalent.semantics import bisequent_valid

from conftest import CORE_LOGICS, formulas

K3 = lookup_logic("K3")
SIG = K3.signature


def bp(text, sig=SIG):
    return parse_bisequent(text, sig)


class TestMultisetSemantics:
    def test_order_is_irrelevant(self):
        assert bp("p, q => | =>") == bp("q, p => | =>")

    def test_duplicates_are_preserved(self):
        assert bp("p, p => | =>") != bp("p => | =>")

    def test_equal_bisequents_hash_alike(self):
        assert hash(bp("p, q => r | =>")) == hash(bp("q, p => r | =>"))

    def test_sequents_compare_by_both_sides(self):
        assert Sequent((Atom("p"),), ()) != Sequent((), (Atom("p"),))


class TestIsAtomic:
    def test_atoms_are_atomic(self):
        assert is_atomic(bp("p => q | => r"))

    def test_compound_is_not(self):
        assert not is_atomic(bp("p & q => | =>"))

    def test_empty_is_vacuously_atomic(self):
        assert is_atomic(bp("=> | =>"))

    def test_constants_count_as_atomic(self):
        assert is_atomic(bp("T => | => F"))


class TestIsAxiomatic:
    def test_shared_first_sequent_formula(self):
        assert is_axiomatic(K3, bp("p => p | =>"))

    def test_shared_across_sequents(self):
        assert is_axiomatic(K3, bp("p => | => p"))

    def test_shared_second_sequent_formula(self):
        assert is_axiomatic(K3, bp("=> | p => p"))

    def test_disjoint_slots_are_open(self):
        assert not is_axiomatic(K3, bp("p => q | r => s"))

    def test_shared_ant1_ant2_is_not_an_axiom(self):
        assert not is_axiomatic(K3, bp("p => | p =>"))

    def test_compound_formulas_compare_structurally(self):
        assert is_axiomatic(K3, bp("p & q => p & q | =>"))
        assert not is_axiomatic(K3, bp("p & q => q & p | =>"))

    def test_constant_axioms(self):
        k3c = K3.with_constants()
        sig = k3c.signature
        assert is_axiomatic(k3c, parse_bisequent("=> T | =>", sig))
        assert is_axiomatic(k3c, parse_bisequent("=> | => T", sig))
        assert is_axiomatic(k3c, parse_bisequent("F => | =>", sig))
        assert is_axiomatic(k3c, parse_bisequent("=> | F =>", sig))
        assert is_axiomatic(k3c, parse_bisequent("U => | =>", sig))
        assert is_axiomatic(k3c, parse_bisequent("=> | => U", sig))
        # without the opt-in these are plain open leaves
        assert not is_axiomatic(K3, parse_bisequent("=> T | =>", sig))

    def test_one_clash_test_for_formulas_and_atom_names(self):
        # the same predicate closes formula slots and glued atom-name sets
        assert clashes({"p"}, set(), set(), {"p"})
        assert not clashes({"p"}, set(), {"p"}, set())
        t = parse_bisequent("=> T | =>", SIG)
        assert clashes(set(), set(t.first.suc), set(), set())
        assert not clashes(set(), set(t.first.suc), set(), set(), constants=False)

    def test_palasinska_schema(self):
        pal = lookup_logic("Palasinska1")
        b = parse_bisequent("=> | => p o1 q", pal.signature)
        assert is_axiomatic(pal, b)
        assert not is_axiomatic(pal, parse_bisequent("p o1 q => | =>", pal.signature))

    def test_axioms_survive_weakening_and_reordering(self):
        b = bp("p => p | =>")
        weakened = b.add("ant2", Atom("r")).add("suc1", Atom("s"))
        assert is_axiomatic(K3, weakened)


from conftest import ALL_LOGICS


@pytest.mark.parametrize("name", ALL_LOGICS)
def test_axiomatic_bisequents_are_valid(name):
    logic = lookup_logic(name)

    @given(
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=3),
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=3),
    )
    @settings(max_examples=25)
    def check(shared, other):
        for b in (
            bisequent(ant1=(shared, other), suc1=(shared,)),
            bisequent(ant1=(shared,), suc2=(other, shared)),
            bisequent(ant2=(shared,), suc2=(shared,), suc1=(other,)),
        ):
            assert is_axiomatic(logic, b)
            assert bisequent_valid(logic, b)

    check()


class TestTextFormat:
    def test_plain_roundtrip(self):
        texts = [
            "p, q => r | s => t",
            "=> | =>",
            "p & q => p | =>",
            "=> p | ~p | =>",
        ]
        for text in texts:
            b = bp(text)
            assert bp(render_bisequent(b, SIG)) == b

    def test_empty_sides_render(self):
        assert bp(render_bisequent(bisequent(), SIG)) == bisequent()

    def test_formula_bars_do_not_confuse_the_split(self):
        b = bp("p | q => | => r | s")
        assert b.slot("ant1")[0].connective == "or"
        assert b.slot("suc2")[0].connective == "or"

    def test_missing_arrow_is_an_error(self):
        with pytest.raises(ParseError):
            bp("p | q")

    def test_error_position_is_global(self):
        with pytest.raises(ParseError) as exc:
            bp("p => q | r => s &")
        assert exc.value.position == 17
