"""Acceptance suite.

Each test covers one release criterion and prints a one-line verdict, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance
report.  The oracle-prover sweep is shared: criterion 3 computes it,
criteria 5 and 8 reuse its proved pools and refutations.
"""
from __future__ import annotations

import random

import pytest

from trivalent.calculus import (
    AxiomSchema,
    apply_rule,
    catalog,
    synthesize_rules,
    verify_axiom_schema,
    verify_rule_schema,
)
from trivalent.formula import Compound, atoms
from trivalent.interpolation import (
    NotContingentError,
    interpolate,
    verify_interpolant,
)
from trivalent.logics import (
    SLOTS,
    available_logics,
    lookup_logic,
    tables,
)
from trivalent.prover import (
    admissible_cut,
    admissible_weaken,
    designated_mode,
    prove,
    prove_bisequent,
)
from trivalent.semantics import falsifies, matrix_consequence

from conftest import DATA_DIR, random_formula, run_sweep
from transcription import load_rules

ALL_LOGICS = available_logics()


def _report(number: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: table audit

def test_criterion_1_table_audit():
    """Every stored truth table matches the independent transcription
    cell by cell."""
    audit: dict[tuple, str] = {}
    for raw in (DATA_DIR / "tables_audit.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *rest = line.split()
        audit[(name, tuple(rest[:-1]))] = rest[-1]

    cells = 0
    for name, table in tables().items():
        for args, value in table.entries.items():
            key = (name, tuple(a.value for a in args))
            assert key in audit, f"audit file misses {key}"
            assert audit[key] == value.value, f"cell mismatch at {key}"
            cells += 1
    assert cells == len(audit), "audit file has extra cells"
    _report(1, "table audit", f"{cells} cells over {len(tables())} tables agree")


# ---------------------------------------------------------------------------
# Criterion 2: rule verification sweep

def test_criterion_2_rule_verification():
    """Every catalogued rule of every logic is sound and invertible, and
    every declared axiom schema covers an impossible slot value."""
    checked = 0
    for name in ALL_LOGICS:
        logic = lookup_logic(name)
        cat = catalog(logic)
        for rule in cat.rules:
            verdict = verify_rule_schema(logic, rule)
            assert verdict.ok, (name, rule.name, str(verdict))
            checked += 1
        for schema in cat.axiom_schemata:
            assert verify_axiom_schema(logic, schema).ok, (name, schema)
            checked += 1
    _report(2, "rule verification", f"{checked} schemata across {len(ALL_LOGICS)} logics")


# ---------------------------------------------------------------------------
# Criterion 3: oracle-prover equivalence sweep (shared with 5 and 8)

@pytest.fixture(scope="session")
def sweep():
    return {name: run_sweep(lookup_logic(name)) for name in ALL_LOGICS}


def test_criterion_3_oracle_prover_equivalence(sweep):
    """Proof search and the matrix oracle decide every sweep goal alike."""
    goals = 0
    for name, data in sweep.items():
        assert not data.disagreements, (name, data.disagreements[:3])
        goals += data.n_goals
    _report(
        3,
        "oracle-prover equivalence",
        f"{goals} goals over {{p,q}} across {len(sweep)} logics, 0 disagreements "
        f"(every conclusion with <=3 connectives alone, every premiss with <=1 "
        f"against every conclusion with <=2)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: known-fact spot checks

def _fact(logic_name, premiss_texts, conclusion_text, holds):
    logic = lookup_logic(logic_name)
    premisses = tuple(logic.parse(t) for t in premiss_texts)
    conclusion = logic.parse(conclusion_text)
    assert matrix_consequence(logic, premisses, conclusion) is holds, (
        logic_name, premiss_texts, conclusion_text,
    )
    result = prove(logic, designated_mode(logic), premisses, conclusion)
    assert result.proved is holds


def test_criterion_4_known_facts():
    """Textbook separations, each decided by the oracle over at most nine
    assignments and cross-checked by the prover.  Note the weak-Kleene
    pair: adding a disjunct with an undefined leg fails in K3w (one
    designated value), while PWK instead invalidates dropping to a
    conjunct; {p} |= p|q actually holds in PWK since the contaminated
    disjunction stays designated."""
    _fact("K3", (), "p | ~p", False)
    _fact("LP", (), "p | ~p", True)
    _fact("LP", ("p", "p -> q"), "q", False)
    _fact("K3", ("p", "p -> q"), "q", True)
    _fact("L3", (), "p -> p", True)
    _fact("K3w", ("p",), "p | q", False)
    _fact("PWK", ("p",), "p | q", True)
    _fact("PWK", ("p & q",), "p", False)
    _fact("P1", ("p", "~p"), "q", False)
    _report(4, "known-fact spot checks", "9 separations hold under oracle and prover")


# ---------------------------------------------------------------------------
# Criterion 5: structural admissibility

N_STRUCTURAL = 1000
N_CUTS = 500


def test_criterion_5_structural_admissibility(sweep):
    """Weakening, duplication followed by contraction, invertibility of
    every rule instance, and both cut rules keep provability, checked by
    re-proof on bisequents sampled from the equivalence sweep."""
    weakenings = contractions = inversions = cuts = 0
    for name, data in sweep.items():
        logic = data.logic
        cat = catalog(logic)
        rng = random.Random(f"structural:{name}")
        pool = data.proved
        extras = data.formula_pool
        assert pool, f"{name} has no provable sweep goals"
        sample = [rng.choice(pool) for _ in range(N_STRUCTURAL)]
        for b in sample:
            slot = rng.choice(SLOTS)
            extra = rng.choice(extras)
            assert admissible_weaken(
                logic, b, {slot: (extra,)}
            ).proved, (name, "weakening", b, slot, extra)
            weakenings += 1

            occurrences = list(b.formulas())
            oslot, _, f = rng.choice(occurrences)
            duplicated = b.add(oslot, f)
            assert prove_bisequent(logic, duplicated, memo=data.memo).proved
            assert prove_bisequent(logic, b, memo=data.memo).proved
            contractions += 1

            for pslot, index, g in b.formulas():
                if not isinstance(g, Compound):
                    continue
                rule = cat.rule_for(g.connective, pslot)
                if rule is None:
                    continue
                for premiss in apply_rule(rule, b, (pslot, index)):
                    assert prove_bisequent(
                        logic, premiss, memo=data.memo
                    ).proved, (name, "invertibility", b, rule.name)
                    inversions += 1

        for i in range(N_CUTS):
            variant = "cut1" if i % 2 == 0 else "cut2"
            left_slot, right_slot = (
                ("suc1", "ant1") if variant == "cut1" else ("suc2", "ant2")
            )
            left, right = rng.choice(pool), rng.choice(pool)
            chi = rng.choice(extras)
            result = admissible_cut(
                logic,
                left.add(left_slot, chi),
                right.add(right_slot, chi),
                chi,
                variant,
            )
            assert result.proved, (name, variant, left, right, chi)
            cuts += 1
    _report(
        5,
        "structural admissibility",
        f"per logic: {N_STRUCTURAL} weakenings, {N_STRUCTURAL} contractions, "
        f"{N_CUTS} cuts; {inversions} rule inversions total; 0 failures",
    )


# ---------------------------------------------------------------------------
# Criterion 6: finite characterisation of the Palasinska operators

def test_criterion_6_palasinska_agreement():
    """The three-rules-plus-axiom-schema systems for the two operators
    that resist finite axiomatisation by plain inference rules agree with
    their matrix oracles on every goal over {p,q} with at most three
    connectives and at most one premiss."""
    goals = 0
    for name in ("Palasinska1", "Palasinska2"):
        data = run_sweep(
            lookup_logic(name), premiss_budget=3, conclusion_budget=3, solo_budget=3
        )
        assert not data.disagreements, (name, data.disagreements[:3])
        goals += data.n_goals
    _report(6, "Palasinska characterisation", f"{goals} goals, exact agreement")


# ---------------------------------------------------------------------------
# Criterion 7: interpolation

N_INTERPOLATION = 100


@pytest.mark.parametrize("name", ("I1", "I2", "P1", "P2"))
def test_criterion_7_interpolation(name):
    """Sampled entailments between contingent, atom-sharing formulas all
    yield interpolants that verify under both the oracle and the prover."""
    logic = lookup_logic(name)
    rng = random.Random(f"interpolation:{name}")
    sig = logic.signature
    done = attempts = 0
    while done < N_INTERPOLATION:
        attempts += 1
        assert attempts < 40000, f"sampling for {name} stalled"
        phi = random_formula(rng, sig, ("p", "q", "r"), rng.randint(1, 5))
        psi = random_formula(rng, sig, ("p", "q", "r"), rng.randint(1, 5))
        if not atoms(phi) & atoms(psi):
            continue
        if not matrix_consequence(logic, (phi,), psi):
            continue
        try:
            candidate = interpolate(logic, phi, psi)
        except NotContingentError:
            continue
        assert atoms(candidate) <= atoms(phi) & atoms(psi)
        assert verify_interpolant(logic, phi, psi, candidate), (
            logic.render(phi), logic.render(psi), logic.render(candidate),
        )
        done += 1
    _report(
        7,
        f"interpolation in {name}",
        f"{done}/{done} sampled entailments interpolated and verified "
        f"({attempts} candidates drawn)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: countermodel integrity

def test_criterion_8_countermodel_integrity(sweep):
    """Every refutation produced by the sweep carries an assignment that
    falsifies its root bisequent."""
    checked = 0
    for name, data in sweep.items():
        logic = data.logic
        for root, countermodel in data.refuted:
            assert falsifies(logic, countermodel, root), (name, root, countermodel)
            checked += 1
    _report(8, "countermodel integrity", f"{checked} refutations all falsify their roots")


# ---------------------------------------------------------------------------
# Criterion 9: synthesis against the paper's transcription

#: transcribed rules whose premisses cover the same region of the table as
#: the synthesised rule, but with a different choice of premisses
DIFFERENT_COVERS = (
    "and_k.ant2", "and_l.suc2", "and_mc.ant2", "and_s.suc1",
    "and_w.ant2", "impl_mc.suc1", "impl_w.suc1", "or_s.ant2",
)


def _premiss_set(rule) -> set:
    return {
        tuple(sorted((pl.arg_index, pl.slot) for pl in p.placements))
        for p in rule.premisses
    }


def test_criterion_9_synthesis_self_certification():
    """The calculus synthesised from the tables verifies at every table
    and slot, and so does every rule and axiom line of the paper's
    transcription in ``tests/data/rules.txt``.  The two cover the same
    slots; their premisses agree as sets except at the known different
    covers."""
    host: dict[str, object] = {}
    for name in ALL_LOGICS:
        logic = lookup_logic(name)
        for cid in logic.connectives:
            host.setdefault(cid, logic)
    transcribed, axiom_lines = load_rules()
    transcribed_axioms = {(a.connective, a.slot) for a in axiom_lines}
    for schema in axiom_lines:
        assert verify_axiom_schema(host[schema.connective], schema).ok, schema
    same = reordered = 0
    different = []
    for cid, table in sorted(tables().items()):
        logic = host[cid]
        for slot in SLOTS:
            schema = synthesize_rules(table, slot)
            if isinstance(schema, AxiomSchema):
                assert verify_axiom_schema(logic, schema).ok, (cid, slot)
                assert (cid, slot) in transcribed_axioms, (cid, slot)
                assert (cid, slot) not in transcribed, (cid, slot)
                continue
            assert verify_rule_schema(logic, schema).ok, (cid, slot)
            rule = transcribed.get((cid, slot))
            assert rule is not None, f"transcription misses {cid}.{slot}"
            assert verify_rule_schema(logic, rule).ok, rule.name
            if _premiss_set(rule) == _premiss_set(schema):
                same += 1
                reordered += rule.premisses != schema.premisses
            else:
                different.append(rule.name)
    assert len(transcribed) + len(transcribed_axioms) == 4 * len(tables())
    assert sorted(different) == sorted(DIFFERENT_COVERS)
    _report(
        9,
        "synthesis self-certification",
        f"{same + len(different)} rules + {len(transcribed_axioms)} axiom schemata "
        f"synthesised and transcribed, all verified; premisses agree as sets on "
        f"{same} ({reordered} listed in another order), different covers: "
        + ", ".join(sorted(different)),
    )
