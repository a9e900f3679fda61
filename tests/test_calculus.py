from __future__ import annotations

import pytest
from hypothesis import given, settings

from trivalent.bisequent import bisequent, parse_bisequent
from trivalent.calculus import (
    CatalogError,
    OccurrenceError,
    Placement,
    PremissSchema,
    RuleSchema,
    apply_rule,
    catalog,
    synthesize_rules,
    verify_rule_schema,
)
from trivalent.formula import CONNECTIVES, Compound
from trivalent.logics import SLOTS, Value, available_logics, lookup_logic, tables

from conftest import formulas
from structural import add, replace
from transcription import load_rules

K3 = lookup_logic("K3")
L3 = lookup_logic("L3")
PAL = lookup_logic("Palasinska1")


class TestCatalog:
    def test_kleene_negation_rule_shape(self):
        rule = catalog(K3).rule_for("neg", "ant1")
        assert rule.premisses == (PremissSchema((Placement("suc2", 0),)),)

    def test_lukasiewicz_implication_has_three_premisses(self):
        rule = catalog(L3).rule_for("impl_l", "ant1")
        assert len(rule.premisses) == 3

    def test_palasinska_axiom_schema(self):
        cat = catalog(PAL)
        assert RuleSchema("circ1.suc2", "circ1", "suc2", ()) in cat.rules
        assert cat.rule_for("circ1", "suc2") is None
        assert cat.rule_for("circ1", "ant1") is not None

    def test_every_logic_is_fully_covered(self):
        for name in available_logics():
            logic = lookup_logic(name)
            cat = catalog(logic)
            covered = {(r.connective, r.principal_slot) for r in cat.rules}
            for cid in logic.connectives:
                for slot in SLOTS:
                    assert (cid, slot) in covered, (name, cid, slot)

    def test_rules_without_premisses_are_the_axiom_test_schemata(self):
        # the axiom test reads ``LogicDef.extra_axiom_schemata``, since
        # ``bisequent`` cannot import ``calculus``: both must name the
        # same (connective, slot) pairs, and the search must find no rule
        # to apply at exactly those pairs
        for name in available_logics():
            base = lookup_logic(name)
            for logic in (base, base.with_constants(), base.extended(("neg_b", "neg_h"))):
                cat = catalog(logic)
                assert len(cat.rules) == 4 * len(logic.connectives), logic.name
                axioms = {
                    (r.connective, r.principal_slot) for r in cat.rules if not r.premisses
                }
                assert axioms == set(logic.extra_axiom_schemata), logic.name
                found = {
                    (cid, slot): cat.rule_for(cid, slot)
                    for cid in logic.connectives
                    for slot in SLOTS
                }
                assert {key for key, rule in found.items() if rule is None} == axioms

    def test_shared_rules_are_links_not_copies(self):
        # logics sharing a table see the identical synthesised rule object
        lp = lookup_logic("LP")
        assert catalog(K3).rule_for("neg", "ant1") is catalog(lp).rule_for("neg", "ant1")
        # connectives whose tables agree on a slot get the same premisses
        assert (
            catalog(lookup_logic("GM3")).rule_for("impl_sl", "ant2").premisses
            == catalog(K3).rule_for("impl", "ant2").premisses
        )


class TestRuleFileLoader:
    def write(self, tmp_path, text):
        path = tmp_path / "rules.txt"
        path.write_text(text)
        return path

    def test_bad_placement(self, tmp_path):
        with pytest.raises(CatalogError, match="placement"):
            load_rules(self.write(tmp_path, "rule x neg ant1 : 0-ant1\n"))

    def test_duplicate_rule_name(self, tmp_path):
        text = "rule x neg ant1 : 0@suc2\nrule x neg suc1 : 0@ant2\n"
        with pytest.raises(CatalogError, match="duplicate"):
            load_rules(self.write(tmp_path, text))

    def test_dangling_reference(self, tmp_path):
        with pytest.raises(CatalogError, match="unknown reference"):
            load_rules(self.write(tmp_path, "rule x neg ant1 = nowhere\n"))

    def test_links_resolve_forward(self, tmp_path):
        text = "rule a neg ant1 = b\nrule b neg_h ant1 : 0@suc2\n"
        by_key, _ = load_rules(self.write(tmp_path, text))
        assert by_key[("neg", "ant1")].premisses == by_key[("neg_h", "ant1")].premisses


class TestApplyRule:
    def test_negation_moves_argument_across_sequents(self):
        b = parse_bisequent("~p, q => | =>", K3.signature)
        rule = catalog(K3).rule_for("neg", "ant1")
        out = apply_rule(rule, b, ("ant1", 0))
        assert out == [parse_bisequent("q => | => p", K3.signature)]

    def test_branching_conjunction(self):
        b = parse_bisequent("=> p & q | r =>", K3.signature)
        rule = catalog(K3).rule_for("and", "suc1")
        out = apply_rule(rule, b, ("suc1", 0))
        assert out == [
            parse_bisequent("=> p | r =>", K3.signature),
            parse_bisequent("=> q | r =>", K3.signature),
        ]

    def test_post_negation_places_one_argument_twice(self):
        p3 = lookup_logic("P3")
        b = parse_bisequent("=> | => neg_p p", p3.signature)
        rule = catalog(p3).rule_for("neg_p", "suc2")
        out = apply_rule(rule, b, ("suc2", 0))
        assert out == [parse_bisequent("=> p | p =>", p3.signature)]

    def test_occurrence_must_match_rule(self):
        b = parse_bisequent("p & q => | =>", K3.signature)
        with pytest.raises(OccurrenceError):
            apply_rule(catalog(K3).rule_for("neg", "ant1"), b, ("ant1", 0))
        with pytest.raises(OccurrenceError):
            apply_rule(catalog(K3).rule_for("and", "suc1"), b, ("suc1", 0))
        with pytest.raises(OccurrenceError):
            apply_rule(catalog(K3).rule_for("and", "ant1"), b, ("ant1", 3))

    def test_contexts_are_inherited_unchanged(self):
        b = parse_bisequent("p -> q, r => s | t => v", K3.signature)
        rule = catalog(K3).rule_for("impl", "ant1")
        out = apply_rule(rule, b, ("ant1", 0))
        for premiss in out:
            assert premiss.slot("suc1").count(b.slot("suc1")[0]) == 1
            assert premiss.slot("ant1").count(b.slot("ant1")[1]) == 1
        assert _slot_texts(out) == [("r q", "s", "t", "v"), ("r", "s", "t", "v p")]

    @pytest.mark.parametrize(
        "text, connective, occurrence, expected",
        (
            ("r, p & q, s => t | =>", "and", ("ant1", 1), ("r s p q", "t", "", "")),
            ("u => p -> q, s | t => v", "impl", ("suc1", 0), ("u", "s q", "t p", "v")),
        ),
    )
    def test_placements_append_in_order(self, text, connective, occurrence, expected):
        # the principal occurrence leaves its place; each placement appends
        # its subformula to its slot, in placement order
        b = parse_bisequent(text, K3.signature)
        out = apply_rule(catalog(K3).rule_for(connective, occurrence[0]), b, occurrence)
        assert _slot_texts(out) == [expected]


def _slot_texts(premisses):
    """Each premiss's slots in stored order, one space-joined string each."""
    return [
        tuple(" ".join(map(K3.render, p.slot(s))) for s in SLOTS) for p in premisses
    ]


class TestVerifyRuleSchema:
    def test_whole_catalog_verifies(self):
        for name in available_logics():
            logic = lookup_logic(name)
            cat = catalog(logic)
            for rule in cat.rules:
                verdict = verify_rule_schema(logic, rule)
                assert verdict.ok, (name, rule.name, verdict)

    def test_broken_rule_yields_counterexample(self):
        # dropping the second side formula from the strong-conjunction
        # left rule leaves the pair (1, u) uncovered
        broken = RuleSchema(
            "broken", "and", "ant1", (PremissSchema((Placement("ant1", 0),)),)
        )
        verdict = verify_rule_schema(K3, broken)
        assert not verdict.ok
        # the returned tuple genuinely violates the equivalence: the first
        # argument is 1 (so the premiss fires) but the conjunction is not
        args = verdict.counterexample
        assert args[0] is Value.ONE
        assert tables()["and"](*args) is not Value.ONE
        assert args in ((Value.ONE, Value.ZERO), (Value.ONE, Value.UNDEF))

    def test_axiom_on_a_reachable_slot_value_yields_counterexample(self):
        # strong conjunction takes 1 at (1, 1), so no premiss-free rule
        # can close a conjunction in ant1
        verdict = verify_rule_schema(K3, RuleSchema("and.ant1", "and", "ant1", ()))
        assert not verdict.ok
        assert verdict.counterexample == (Value.ONE, Value.ONE)
        assert verify_rule_schema(PAL, RuleSchema("circ1.suc2", "circ1", "suc2", ())).ok

    def test_second_sobocinski_implication(self):
        s3p = lookup_logic("S3prime")
        assert verify_rule_schema(s3p, catalog(s3p).rule_for("impl_sp", "suc1")).ok

    def test_subformula_property(self):
        # premisses only ever mention immediate subformulas
        for name in available_logics():
            for rule in catalog(lookup_logic(name)).rules:
                arity = CONNECTIVES[rule.connective]
                for premiss in rule.premisses:
                    for pl in premiss.placements:
                        assert 0 <= pl.arg_index < arity


@pytest.mark.parametrize("name", ("K3", "L3", "K3w", "I1", "P1", "P3", "J3"))
def test_apply_rule_roundtrip(name):
    """Removing the placements and restoring the principal occurrence
    reconstructs the conclusion from any premiss."""
    logic = lookup_logic(name)

    @given(formulas(logic.signature, max_leaves=4))
    @settings(max_examples=40)
    def check(f):
        if not isinstance(f, Compound):
            return
        for slot in SLOTS:
            rule = catalog(logic).rule_for(f.connective, slot)
            if rule is None:
                continue
            b = add(add(bisequent(), slot, f), "suc1", logic.parse("ctx"))
            premisses = apply_rule(rule, b, (slot, b.slot(slot).index(f)))
            for premiss, schema in zip(premisses, rule.premisses):
                back = premiss
                for pl in schema.placements:
                    fs = list(back.slot(pl.slot))
                    fs.remove(f.args[pl.arg_index])
                    back = replace(back, pl.slot, fs)
                assert add(back, slot, f) == b

    check()


class TestSynthesis:
    def test_negation_rule_is_recovered(self):
        schema = synthesize_rules(tables()["neg"], "ant1")
        assert isinstance(schema, RuleSchema)
        assert schema.premisses == (PremissSchema((Placement("suc2", 0),)),)

    def test_never_false_operation_gives_axiom(self):
        assert synthesize_rules(tables()["circ1"], "suc2") == RuleSchema(
            "circ1.suc2", "circ1", "suc2", ()
        )

    def test_branching_conjunction_shape(self):
        schema = synthesize_rules(tables()["and"], "suc1")
        assert isinstance(schema, RuleSchema)
        shapes = sorted(
            tuple((pl.slot, pl.arg_index) for pl in p.placements)
            for p in schema.premisses
        )
        assert shapes == [(("suc1", 0),), (("suc1", 1),)]

    def test_all_tables_all_slots_self_certify(self):
        host = {}
        for name in available_logics():
            logic = lookup_logic(name)
            for cid in logic.connectives:
                host.setdefault(cid, logic)
        for cid, table in sorted(tables().items()):
            logic = host[cid]
            for slot in SLOTS:
                schema = synthesize_rules(table, slot)
                assert verify_rule_schema(logic, schema).ok, (cid, slot)

    def test_full_region_splits_into_two_premisses(self):
        # an operation that never takes the slot's complement value gets a
        # trivially-true rule: synthesis expresses it as a value split
        schema = synthesize_rules(tables()["circ1"], "ant2")
        assert isinstance(schema, RuleSchema)
        assert len(schema.premisses) == 2
        assert sum(len(p.placements) for p in schema.premisses) == 2
