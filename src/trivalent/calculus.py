"""Bisequent rules: synthesis from truth tables, the per-logic catalog,
rule application and verification.

A rule is identified by its principal slot and a list of premisses; a
premiss is a multiset of placements sending immediate subformulas of the
principal formula into slots.  Contexts are always copied unchanged, so a
rule is fully described by this data.

Verification reduces to a finite check: under falsification each slot
pins its formulas to a set of values (ant1: 1, suc1: not 1, ant2: not 0,
suc2: 0), so a rule is sound and invertible exactly when, for every tuple
of argument values, the principal formula meets its slot constraint iff
some premiss has all placements satisfied.  The tables therefore
determine the calculus: ``synthesize_rules`` covers that region of a
table with premisses, and ``catalog`` builds every logic's rules that way.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bisequent import Bisequent, bisequent
from .formula import CONNECTIVES, Compound
from .logics import (
    SLOTS,
    LogicDef,
    TruthTable,
    Value,
    VALUES,
    _tuples,
    slot_admits,
    tables,
)

__all__ = [
    "AxiomSchema",
    "Catalog",
    "CatalogError",
    "OccurrenceError",
    "Placement",
    "PremissSchema",
    "RuleSchema",
    "RuleVerdict",
    "apply_rule",
    "catalog",
    "rule_for",
    "synthesize_rules",
    "verify_rule_schema",
]


class CatalogError(ValueError):
    pass


class OccurrenceError(ValueError):
    pass


@dataclass(frozen=True)
class Placement:
    slot: str
    arg_index: int


@dataclass(frozen=True)
class PremissSchema:
    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        if not self.placements:
            raise CatalogError("a premiss must place at least one side formula")


@dataclass(frozen=True)
class RuleSchema:
    name: str
    connective: str
    principal_slot: str
    premisses: tuple[PremissSchema, ...]

    def __post_init__(self) -> None:
        n = CONNECTIVES[self.connective]
        for p in self.premisses:
            for pl in p.placements:
                if pl.arg_index >= n:
                    raise CatalogError(
                        f"rule {self.name}: placement index {pl.arg_index} "
                        f"out of range for {self.connective!r}"
                    )


@dataclass(frozen=True)
class AxiomSchema:
    """Any bisequent with a ``connective`` formula in ``slot`` is axiomatic."""

    connective: str
    slot: str


@dataclass(frozen=True)
class RuleVerdict:
    ok: bool
    counterexample: tuple[Value, ...] | None = None

    def __str__(self) -> str:
        if self.ok:
            return "sound_and_invertible"
        vals = ",".join(v.value for v in self.counterexample)
        return f"counterexample({vals})"


# ---------------------------------------------------------------------------
# Catalog

class Catalog:
    """A logic's rules and axiom schemata.  Each rule is synthesised from
    its table on first lookup and shared by every logic using the table."""

    def __init__(self, logic: LogicDef) -> None:
        self.logic = logic
        self._rules: dict[tuple[str, str], RuleSchema | None] = {}

    def rule_for(self, connective: str, slot: str) -> RuleSchema | None:
        try:
            return self._rules[connective, slot]
        except KeyError:
            pass
        rule = None
        if connective in self.logic.signature:
            derived = _synthesized(connective, slot)
            if isinstance(derived, RuleSchema):
                rule = derived
        self._rules[connective, slot] = rule
        return rule

    @property
    def rules(self) -> tuple[RuleSchema, ...]:
        found = (
            self.rule_for(cid, slot)
            for cid in self.logic.connectives
            for slot in SLOTS
        )
        return tuple(rule for rule in found if rule is not None)

    @property
    def axiom_schemata(self) -> tuple[AxiomSchema, ...]:
        return tuple(
            AxiomSchema(cid, slot) for cid, slot in self.logic.extra_axiom_schemata
        )


@lru_cache(maxsize=None)
def _synthesized(connective: str, slot: str) -> RuleSchema | AxiomSchema:
    return synthesize_rules(tables()[connective], slot)


@lru_cache(maxsize=None)
def catalog(logic: LogicDef) -> Catalog:
    """The logic's calculus: every connective is covered on all four slots
    by a rule synthesised from its table or, where the table never meets
    the slot constraint, by an axiom schema."""
    return Catalog(logic)


def rule_for(logic: LogicDef, connective: str, slot: str) -> RuleSchema | None:
    return catalog(logic).rule_for(connective, slot)


# ---------------------------------------------------------------------------
# Rule application

def apply_rule(
    rule: RuleSchema, b: Bisequent, occurrence: tuple[str, int]
) -> list[Bisequent]:
    """One premiss bisequent per premiss schema: the principal occurrence
    is removed, each placement appends its immediate subformula to its
    slot in placement order, contexts are copied unchanged."""
    slot, index = occurrence
    if slot != rule.principal_slot:
        raise OccurrenceError(
            f"rule {rule.name} expects its principal formula in "
            f"{rule.principal_slot}, not {slot}"
        )
    fs = b.slot(slot)
    if not 0 <= index < len(fs):
        raise OccurrenceError(f"no formula at {slot}[{index}]")
    principal = fs[index]
    if not isinstance(principal, Compound) or principal.connective != rule.connective:
        raise OccurrenceError(
            f"formula at {slot}[{index}] is not a {rule.connective!r} compound"
        )
    context = b.slots()
    context[slot] = fs[:index] + fs[index + 1 :]
    out = []
    for premiss in rule.premisses:
        parts = dict(context)
        for pl in premiss.placements:
            parts[pl.slot] += (principal.args[pl.arg_index],)
        out.append(bisequent(**parts))
    return out


# ---------------------------------------------------------------------------
# Verification (finite, table-level)

def _premiss_admits(premiss: PremissSchema, args: tuple[Value, ...]) -> bool:
    return all(slot_admits(pl.slot, args[pl.arg_index]) for pl in premiss.placements)


def verify_rule_schema(logic: LogicDef, rule: RuleSchema) -> RuleVerdict:
    """Check, over all argument tuples, that the principal formula meets
    its slot constraint iff some premiss is fully satisfied.  This makes
    the rule validity-preserving and invertible at once: a falsifying
    homomorphism of the conclusion falsifies some premiss and conversely."""
    table = logic.table(rule.connective)
    for args in _tuples(table.arity):
        lhs = slot_admits(rule.principal_slot, table(*args))
        rhs = any(_premiss_admits(p, args) for p in rule.premisses)
        if lhs != rhs:
            return RuleVerdict(False, args)
    return RuleVerdict(True)


def verify_axiom_schema(logic: LogicDef, schema: AxiomSchema) -> RuleVerdict:
    """An axiom schema is correct iff no argument tuple lets the operation
    meet the slot constraint (the slot's falsification value is never taken)."""
    table = logic.table(schema.connective)
    for args in _tuples(table.arity):
        if slot_admits(schema.slot, table(*args)):
            return RuleVerdict(False, args)
    return RuleVerdict(True)


# ---------------------------------------------------------------------------
# Synthesis from tables

# per-argument constraints a premiss can express, with the placements
# realising them; {u} needs the double placement suc1+ant2
_ARG_CONSTRAINTS: tuple[tuple[tuple[str, ...], frozenset[Value]], ...] = (
    ((), frozenset(VALUES)),
    (("ant1",), frozenset((Value.ONE,))),
    (("suc1",), frozenset((Value.ZERO, Value.UNDEF))),
    (("ant2",), frozenset((Value.UNDEF, Value.ONE))),
    (("suc2",), frozenset((Value.ZERO,))),
    (("suc1", "ant2"), frozenset((Value.UNDEF,))),
)


def _cell_mask(arity: int, holds) -> int:
    """Bit i is set iff ``holds`` accepts the i-th argument tuple."""
    return sum(1 << i for i, args in enumerate(_tuples(arity)) if holds(args))


@lru_cache(maxsize=None)
def _rectangles(arity: int) -> tuple[tuple[tuple[Placement, ...], int], ...]:
    """Candidate premisses as (placements, cell mask), smallest first."""
    out = []
    for combo in itertools.product(_ARG_CONSTRAINTS, repeat=arity):
        placements = tuple(
            Placement(slot, i)
            for i, (slots, _) in enumerate(combo)
            for slot in slots
        )
        if not placements:
            continue  # a premiss must be nonempty
        cells = _cell_mask(
            arity,
            lambda args: all(args[i] in vs for i, (_, vs) in enumerate(combo)),
        )
        out.append((placements, cells))
    out.sort(key=lambda rc: (len(rc[0]), [(p.slot, p.arg_index) for p in rc[0]]))
    return tuple(out)


def synthesize_rules(table: TruthTable, slot: str) -> RuleSchema | AxiomSchema:
    """Build a rule for the given table and principal slot by covering the
    satisfying region of the slot constraint with premiss-expressible
    rectangles (an axiom schema when the region is empty).  The cover is
    exact, so the result passes verification by construction; among covers
    it minimises the premiss count, then the total placement count, and
    keeps the first such cover in candidate order."""
    region = _cell_mask(table.arity, lambda args: slot_admits(slot, table(*args)))
    if not region:
        return AxiomSchema(table.name, slot)
    candidates = [
        (placements, cells)
        for placements, cells in _rectangles(table.arity)
        if cells and not cells & ~region
    ]
    best_weight: int | None = None
    best_combo = None
    for k in range(1, region.bit_count() + 1):
        for combo in itertools.combinations(candidates, k):
            union = 0
            for _, cells in combo:
                union |= cells
            if union != region:
                continue
            weight = sum(len(p) for p, _ in combo)
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_combo = combo
        if best_combo is not None:
            break
    if best_combo is None:  # unreachable: singletons always cover
        raise CatalogError(f"no premiss cover for {table.name} at {slot}")
    premisses = tuple(PremissSchema(p) for p, _ in best_combo)
    return RuleSchema(f"{table.name}.{slot}", table.name, slot, premisses)
