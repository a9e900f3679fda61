from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent.bisequent import (
    Bisequent,
    bisequent,
    clashes,
    is_atomic,
    is_axiomatic,
    parse_bisequent,
    parse_formula_list,
    render_bisequent,
)
from trivalent.calculus import apply_rule, catalog
from trivalent.formula import (
    Atom,
    Compound,
    Constant,
    ParseError,
    UnknownConnectiveError,
)
from trivalent.logics import lookup_logic
from trivalent.prover import complete_search, prove_bisequent
from trivalent.semantics import bisequent_valid, falsifies

from conftest import ALL_LOGICS, CORE_LOGICS, formulas, random_formula, with_constants
import structural
from structural import add

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
        assert bisequent(ant1=(Atom("p"),)) != bisequent(suc1=(Atom("p"),))
        assert bisequent(ant2=(Atom("p"),)) != bisequent(ant1=(Atom("p"),))


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
        assert is_axiomatic(k3c, parse_bisequent("U => U | =>", sig))
        # without the opt-in these are plain open leaves
        assert not is_axiomatic(K3, parse_bisequent("=> T | =>", sig))

    def test_one_clash_test_for_formulas_and_atom_names(self):
        # the same predicate closes formula slots and glued atom-name sets
        assert clashes({"p"}, set(), set(), {"p"})
        assert not clashes({"p"}, set(), {"p"}, set())
        t = parse_bisequent("=> T | =>", SIG)
        assert clashes(set(), set(t.suc1), set(), set())
        assert not clashes(set(), set(t.suc1), set(), set(), constants=False)

    def test_palasinska_schema(self):
        pal = lookup_logic("Palasinska1")
        b = parse_bisequent("=> | => p o1 q", pal.signature)
        assert is_axiomatic(pal, b)
        assert not is_axiomatic(pal, parse_bisequent("p o1 q => | =>", pal.signature))

    def test_axioms_survive_weakening_and_reordering(self):
        b = bp("p => p | =>")
        weakened = add(add(b, "ant2", Atom("r")), "suc1", Atom("s"))
        assert is_axiomatic(K3, weakened)


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

    @pytest.mark.parametrize(
        "parse, offset",
        (
            (lambda: bp("p => | q, box r =>"), 10),
            (lambda: parse_formula_list("q, box p", SIG), 3),
        ),
        ids=("slot", "list"),
    )
    def test_an_item_error_keeps_its_class(self, parse, offset):
        with pytest.raises(UnknownConnectiveError) as exc:
            parse()
        assert exc.value.token == "box"
        assert exc.value.position == offset
        assert str(exc.value) == (
            f"connective 'box' is not in the signature (at offset {offset})"
        )


def _reference_axiomatic(logic, b):
    """``is_axiomatic`` spelled out on sets of formulas."""
    ant1, suc1, ant2, suc2 = (set(fs) for fs in (b.ant1, b.suc1, b.ant2, b.suc2))
    if ant1 & suc1 or ant1 & suc2 or ant2 & suc2:
        return True
    top, bottom, undef = Constant("top"), Constant("bottom"), Constant("undef")
    if logic.constants_enabled and (
        top in suc1 | suc2 or bottom in ant1 | ant2 or undef in ant1 | suc2
    ):
        return True
    return any(
        isinstance(f, Compound) and f.connective == cid
        for cid, slot in logic.extra_axiom_schemata
        for f in b.slot(slot)
    )


@pytest.mark.parametrize("form", ("plain", "constants", "extended"))
@pytest.mark.parametrize("name", ALL_LOGICS)
def test_premisses_inherit_the_keys_of_a_fresh_build(name, form, monkeypatch):
    """Every premiss a complete search gets from ``apply_rule`` carries the
    canonical key and hash that building it from its formulas gives, and
    its axiom test agrees with a reference test on formula sets.  The
    extended form adds the Bochvar and Heyting negations, whose rules can
    move their argument into a slot of the other sequent."""
    logic = lookup_logic(name)
    constants = form == "constants"
    if constants:
        logic = logic.with_constants()
    elif form == "extended":
        logic = logic.extended(("neg_b", "neg_h"))
    premisses = []

    def recording(rule, b, occurrence):
        out = apply_rule(rule, b, occurrence)
        premisses.extend(out)
        return out

    monkeypatch.setattr(structural, "apply_rule", recording)
    seed = form if form == "extended" else constants  # the seeds of the first two forms
    rng = random.Random(f"keys:{name}:{seed}")
    for _ in range(20):
        sides = [
            random_formula(rng, logic.signature, ("p", "q", "r"), rng.randint(1, 5))
            for _ in range(2)
        ]
        if constants:
            sides = [with_constants(rng, f) for f in sides]
        slots = rng.sample(("ant1", "suc1", "ant2", "suc2"), 2)
        structural.complete_tree(logic, bisequent(**dict(zip(slots, [[f] for f in sides]))))
    assert len(premisses) > 50
    for premiss in premisses:
        fresh = bisequent(**premiss.slots())
        assert premiss._key == fresh._key and hash(premiss) == hash(fresh)
        assert premiss == fresh
        assert is_axiomatic(logic, premiss) == _reference_axiomatic(logic, premiss)


def test_a_slot_in_sorted_order_is_its_own_sorted_form():
    p, q = Atom("p"), Atom("q")
    b = bisequent(ant1=(p, q), suc1=(q,), ant2=(q, p), suc2=())
    ant1, suc1, ant2, suc2 = b._key
    assert ant1 == b.ant1 and suc1 is b.suc1 and suc2 is b.suc2
    assert ant2 == (p, q) and b.ant2 == (q, p)
    assert b == bisequent(ant1=(q, p), suc1=(q,), ant2=(p, q))


def test_a_premiss_shares_its_parents_tuples_in_untouched_slots():
    """An untouched slot of a premiss is the parent's insertion-order
    tuple, so it has the parent's sorted form too."""
    b = bp("p & q => r, s | ~t, t => u")
    rule = catalog(K3).rule_for("and", "ant1")
    (premiss,) = apply_rule(rule, b, ("ant1", 0))
    for i, slot in enumerate(("suc1", "ant2", "suc2"), start=1):
        assert premiss.slot(slot) is b.slot(slot)
        assert premiss._key[i] == b._key[i]
    assert premiss._key[1] == b.suc1 and premiss._key[3] is b.suc2
    assert premiss._key[2] is not b.ant2  # atoms sort before compounds
    assert premiss.ant1 == (Atom("p"), Atom("q"))


def test_a_list_slot_is_copied_so_premisses_cannot_share_it():
    """A list given as a slot is stored as a tuple: the premisses of a
    rule cannot extend it in place through one another, so an invalid
    root is refuted and the root keeps its slots."""
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    ant1 = [Compound("or", (p, q)), r]
    root = Bisequent(ant1=ant1, suc1=(p,))
    before = root.slots()
    assert not bisequent_valid(K3, root)
    result = prove_bisequent(K3, root)
    assert not result.proved
    assert falsifies(K3, result.countermodel, root)
    assert root.slots() == before and ant1 == [Compound("or", (p, q)), r]


def test_list_tuple_and_generator_slots_give_one_bisequent():
    p, q = Atom("p"), Atom("q")
    built = [
        Bisequent(ant1=[p, q], suc2=[q]),
        Bisequent(ant1=(p, q), suc2=(q,)),
        Bisequent(ant1=(f for f in (p, q)), suc2=iter([q])),
        bisequent(ant1=[p, q], suc2=iter((q,))),
    ]
    for b in built:
        assert b.ant1 == (p, q) and b.suc2 == (q,) and b.suc1 == b.ant2 == ()
        assert b == built[0] and hash(b) == hash(built[0])


@st.composite
def _multisets(draw):
    """Four slots of atoms and small compounds, with repeats, and the same
    slots with each one's formulas permuted."""
    pool = draw(st.lists(formulas(SIG, max_leaves=3), min_size=1, max_size=4, unique=True))
    slots = [tuple(draw(st.lists(st.sampled_from(pool), max_size=5))) for _ in range(4)]
    permuted = [tuple(draw(st.permutations(fs))) for fs in slots]
    return slots, permuted


@settings(max_examples=200, deadline=None)
@given(_multisets(), st.data())
def test_a_bisequent_is_its_slots_as_multisets(case, data):
    """Permuting a slot keeps the bisequent; changing one formula's
    multiplicity, or moving a formula to another slot, does not."""
    slots, permuted = case
    b = Bisequent(*slots)
    assert b == Bisequent(*permuted) and hash(b) == hash(Bisequent(*permuted))
    i = data.draw(st.integers(0, 3))
    f = data.draw(st.sampled_from([*slots[i], Atom("p")]))
    more = slots.copy()
    more[i] += (f,)
    assert b != Bisequent(*more)
    if f in slots[i]:
        fewer = slots.copy()
        at = slots[i].index(f)
        fewer[i] = slots[i][:at] + slots[i][at + 1 :]
        assert b != Bisequent(*fewer)
        j = data.draw(st.sampled_from([k for k in range(4) if k != i]))
        fewer[j] += (f,)
        assert b != Bisequent(*fewer)


def test_records_have_no_instance_dict():
    b = bp("p => q | =>")
    tree = complete_search(K3, b)
    formulas = (Atom("p"), Constant("top"), Compound("neg", (Atom("p"),)))
    for record in (b, tree, *formulas):
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("build", (bisequent, Bisequent), ids=("bisequent", "Bisequent"))
@pytest.mark.parametrize("slot", ("ant1", "suc1", "ant2", "suc2"))
def test_a_bare_formula_is_not_a_slot(build, slot):
    # a formula is a tuple, but not a sequence of formulas
    for f in (Atom("p"), Constant("top"), Compound("neg", (Atom("p"),))):
        with pytest.raises(TypeError):
            build(**{slot: f})
