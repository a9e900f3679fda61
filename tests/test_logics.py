from __future__ import annotations


import pytest
from hypothesis import given, settings

from trivalent.logics import (
    CatalogFileError,
    UnknownLogicError,
    Value,
    VALUES,
    available_logics,
    evaluate,
    load_logics,
    load_tables,
    lookup_logic,
    slot_admits,
    tables,
)
from trivalent.semantics import assignments_over

from conftest import formulas

REQUIRED_LOGICS = {
    "K3", "LP", "K3w", "PWK", "K3_arrow", "K3_backarrow", "L3", "GM3",
    "G3", "G3prime", "P3", "S3", "RM3", "J3", "P1", "P2", "I1", "I2",
    "Palasinska1", "Palasinska2", "Rescher", "Tomova",
}


def test_registry_contains_required_logics():
    assert REQUIRED_LOGICS <= set(available_logics())


def test_designated_sets():
    assert lookup_logic("K3").designated == frozenset((Value.ONE,))
    assert lookup_logic("LP").designated == frozenset((Value.ONE, Value.UNDEF))
    assert lookup_logic("K3").goal_mode == 1
    assert lookup_logic("LP").goal_mode == 2


def test_unknown_logic_lists_names():
    with pytest.raises(UnknownLogicError) as exc:
        lookup_logic("B4")
    assert "K3" in str(exc.value)


def test_logics_share_table_objects():
    assert lookup_logic("K3").table("neg") is lookup_logic("LP").table("neg")
    assert lookup_logic("K3").table("and") is lookup_logic("L3").table("and")


def test_signature_is_computed_once():
    k3 = lookup_logic("K3")
    assert k3.signature is k3.signature == frozenset(k3.connectives)


@pytest.mark.parametrize(
    "header, message",
    (("table neg_x unary", "table 'neg_x' is not a known connective"),
     ("table neg binary", "table 'neg' contradicts its declared arity 1")),
)
def test_table_file_must_match_the_declared_connectives(tmp_path, header, message):
    path = tmp_path / "tables.txt"
    path.write_text(f"# one table\n\n{header}\n  1 : 0\n")
    with pytest.raises(CatalogFileError, match=f"tables.txt:3: {message}"):
        load_tables(path)


_NEG = "table neg unary\n  1 : 0\n  u : u\n  0 : 1\n"
_K9 = "logic K9\n  designated 1\n  connectives neg and\n"


@pytest.mark.parametrize(
    "load, text, lineno, message",
    (
        (load_tables, _NEG + _NEG, 5, "table 'neg' defined twice"),
        (load_tables, "table neg unary\n  1 : 0\n  u : u\n  1 : 1\n  0 : 1\n", 4,
         "row '1' given twice"),
        (load_logics, _K9 + "\n" + _K9, 5, "logic 'K9' defined twice"),
        (load_logics, _K9 + "  designated 1 u\n", 4, "'designated' given twice"),
        (load_logics, _K9 + "  connectives neg or\n", 4, "'connectives' given twice"),
    ),
    ids=("table", "row", "logic", "designated", "connectives"),
)
def test_a_catalog_file_gives_each_entry_once(tmp_path, load, text, lineno, message):
    path = tmp_path / "catalog.txt"
    path.write_text(text)
    with pytest.raises(CatalogFileError, match=f"catalog.txt:{lineno}: {message}"):
        load(path)


@pytest.mark.parametrize(
    "load, text, message",
    (
        (load_tables, "table neg\n", "catalog.txt:1: bad table header"),
        (load_tables, "table neg ternary\n", "catalog.txt:1: bad table header"),
        (load_logics, "logic K9 extra\n", "catalog.txt:1: bad logic header"),
        (load_tables, "# c\n  1 : 0\n", "catalog.txt:2: unrecognised line"),
        (load_logics, "\n  designated 1\n", "catalog.txt:2: unrecognised line"),
        (load_tables, "table neg unary\n  1 0\n", "catalog.txt:2: unrecognised line"),
        (load_logics, "logic K9\n  designate 1\n", "catalog.txt:2: unrecognised line"),
        (load_tables, "table neg unary\n  1 : x\n", "catalog.txt:2: bad value"),
        (load_tables, "table neg unary\n  2 : 0\n", "catalog.txt:2: bad value"),
        (load_tables, "table neg unary\n  1 : 0 1\n", "catalog.txt:2: wrong row width"),
        (load_tables, "table and binary\n  1 : 1 u\n", "catalog.txt:2: wrong row width"),
        (load_tables, "table neg unary\n  1 : 0\n  u : u\n\ntable and binary\n",
         "table 'neg': expected 3 rows"),
        (load_logics, "logic K9\n  connectives neg\nlogic K8\n",
         "logic 'K9': missing ['designated']"),
        (load_logics, "logic K9\n", "logic 'K9': missing ['connectives', 'designated']"),
        (load_tables, _NEG + "# again\n" + _NEG, "catalog.txt:6: table 'neg' defined twice"),
        (load_tables, "table neg unary\n  1 : 0\n  u : u\n  1 : 1\n",
         "catalog.txt:4: row '1' given twice"),
        (load_logics, _K9 + _K9, "catalog.txt:4: logic 'K9' defined twice"),
        (load_logics, _K9 + "  designated 1 u\n", "catalog.txt:4: 'designated' given twice"),
        (load_logics, _K9 + "  connectives or\n", "catalog.txt:4: 'connectives' given twice"),
        (load_logics, "logic K9\n  designated 2\n  connectives neg\n",
         "catalog.txt:1: logic 'K9': designated set must be 1 or 1,u"),
        (load_logics, "logic K9\n  designated 0\n  connectives neg\n",
         "catalog.txt:1: logic 'K9': designated set must be 1 or 1,u"),
        (load_logics, "logic K9\n  designated 1\n  connectives neg nope\n",
         "catalog.txt:1: logic 'K9': no table for 'nope'"),
    ),
)
def test_catalog_file_errors_are_golden(tmp_path, load, text, message):
    """Every error either loader reports, with its exact message and line."""
    path = tmp_path / "catalog.txt"
    path.write_text(text)
    with pytest.raises(CatalogFileError) as exc:
        load(path)
    assert str(exc.value) == message


def test_values_survive_copy_and_pickle():
    """Values hash by identity, so a copied or unpickled assignment must
    hold the same members: table lookups and ``falsifies`` still work."""
    import copy
    import pickle

    from trivalent.bisequent import parse_bisequent
    from trivalent.semantics import falsifies

    l3 = lookup_logic("L3")
    h = {"p": Value.ONE, "q": Value.UNDEF}
    root = parse_bisequent("p => p -> q | =>", l3.signature)
    for got in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert all(got[a] is h[a] for a in h)
        assert l3.table("impl_l")(got["p"], got["q"]) is Value.UNDEF
        assert evaluate(l3, got, l3.parse("p -> q")) is Value.UNDEF
        assert falsifies(l3, got, root)
    assert {copy.deepcopy(v) for v in VALUES} == set(VALUES)


def test_tables_are_total():
    for table in tables().values():
        assert len(table.entries) == 3 ** table.arity


class TestEvaluate:
    def test_strong_conjunction_with_undefined(self, k3):
        h = {"p": Value.ONE, "q": Value.UNDEF}
        assert evaluate(k3, h, k3.parse("p & q")) is Value.UNDEF

    def test_lukasiewicz_implication_undefined_twice(self):
        l3 = lookup_logic("L3")
        h = {"p": Value.UNDEF, "q": Value.UNDEF}
        assert evaluate(l3, h, l3.parse("p -> q")) is Value.ONE

    def test_post_negation_cycles_one_to_undefined(self):
        p3 = lookup_logic("P3")
        assert evaluate(p3, {"p": Value.ONE}, p3.parse("neg_p p")) is Value.UNDEF

    def test_missing_atom(self, k3):
        from trivalent.logics import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate(k3, {}, k3.parse("p"))

    def test_constants_need_opt_in(self, k3):
        from trivalent.logics import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate(k3, {}, k3.parse("T"))
        k3c = k3.with_constants()
        assert evaluate(k3c, {}, k3c.parse("T")) is Value.ONE
        assert evaluate(k3c, {}, k3c.parse("F")) is Value.ZERO
        assert evaluate(k3c, {}, k3c.parse("U")) is Value.UNDEF


class TestLukasiewiczDefinability:
    """The additive and multiplicative pairs are interdefinable; checking
    the defining equations on all assignments pins the four tables to the
    implication and negation tables."""

    def all_pairs(self):
        return assignments_over(("p", "q"))

    def test_disjunction_from_implication(self):
        l3 = lookup_logic("L3")
        lhs, rhs = l3.parse("p | q"), l3.parse("(p -> q) -> q")
        for h in self.all_pairs():
            assert evaluate(l3, h, lhs) is evaluate(l3, h, rhs)

    def test_conjunction_by_de_morgan(self):
        l3 = lookup_logic("L3")
        lhs, rhs = l3.parse("p & q"), l3.parse("~(~p | ~q)")
        for h in self.all_pairs():
            assert evaluate(l3, h, lhs) is evaluate(l3, h, rhs)

    def test_additive_conjunction(self):
        l3 = lookup_logic("L3")
        lhs, rhs = l3.parse("p and_l q"), l3.parse("~(p -> ~q)")
        for h in self.all_pairs():
            assert evaluate(l3, h, lhs) is evaluate(l3, h, rhs)

    def test_additive_disjunction(self):
        l3 = lookup_logic("L3")
        lhs, rhs = l3.parse("p or_l q"), l3.parse("~p -> q")
        for h in self.all_pairs():
            assert evaluate(l3, h, lhs) is evaluate(l3, h, rhs)


@given(formulas(lookup_logic("J3").signature, atom_names=("p", "q")))
@settings(max_examples=80)
def test_evaluation_ignores_irrelevant_atoms(f):
    j3 = lookup_logic("J3")
    for h in assignments_over(("p", "q")):
        extended = dict(h)
        extended["zzz"] = Value.ZERO
        assert evaluate(j3, h, f) is evaluate(j3, extended, f)


def test_slot_constraints_partition_as_expected():
    # ant1 and suc1 complement each other, as do ant2 and suc2
    for v in VALUES:
        assert slot_admits("ant1", v) != slot_admits("suc1", v)
        assert slot_admits("ant2", v) != slot_admits("suc2", v)
    assert [v for v in VALUES if slot_admits("ant1", v)] == [Value.ONE]
    assert [v for v in VALUES if slot_admits("suc2", v)] == [Value.ZERO]


def test_extra_axiom_schemata_only_for_palasinska():
    with_schemata = {
        name: lookup_logic(name).extra_axiom_schemata
        for name in available_logics()
        if lookup_logic(name).extra_axiom_schemata
    }
    assert with_schemata == {
        "Palasinska1": (("circ1", "suc2"),),
        "Palasinska2": (("circ2", "suc2"),),
    }
