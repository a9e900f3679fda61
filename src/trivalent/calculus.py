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
Where the region is empty the rule has no premisses: it is an axiom.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .bisequent import HASH_MODULUS, HASH_WEIGHTS, Bisequent
from .formula import CONNECTIVES, Compound, InputError
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
from .record import Record, _set

__all__ = [
    "Catalog",
    "CatalogError",
    "OccurrenceError",
    "Placement",
    "PremissSchema",
    "RuleSchema",
    "RuleVerdict",
    "apply_rule",
    "catalog",
    "synthesize_rules",
    "verify_rule_schema",
]


class CatalogError(InputError, ValueError):
    pass


class OccurrenceError(InputError, ValueError):
    pass


class Placement(Record):
    __slots__ = _fields = ("slot", "arg_index")

    def __init__(self, slot: str, arg_index: int) -> None:
        _set(self, "slot", slot)
        _set(self, "arg_index", arg_index)


class PremissSchema(Record):
    _fields = ("placements",)
    #: beside the field, ``moves``: the placements resolved for
    #: ``apply_rule``, (slot index, argument index) pairs in placement order
    __slots__ = (*_fields, "moves")

    def __init__(self, placements: tuple[Placement, ...]) -> None:
        if not placements:
            raise CatalogError("a premiss must place at least one side formula")
        if any(pl.slot not in SLOTS for pl in placements):
            raise CatalogError("a placement names an unknown slot")
        _set(self, "placements", placements)
        _set(self, "moves", tuple((SLOTS.index(pl.slot), pl.arg_index) for pl in placements))


class RuleSchema(Record):
    __slots__ = _fields = ("name", "connective", "principal_slot", "premisses")

    def __init__(
        self,
        name: str,
        connective: str,
        principal_slot: str,
        premisses: tuple[PremissSchema, ...],
    ) -> None:
        n = CONNECTIVES[connective]
        for p in premisses:
            for pl in p.placements:
                if pl.arg_index >= n:
                    raise CatalogError(
                        f"rule {name}: placement index {pl.arg_index} "
                        f"out of range for {connective!r}"
                    )
        _set(self, "name", name)
        _set(self, "connective", connective)
        _set(self, "principal_slot", principal_slot)
        _set(self, "premisses", premisses)


class RuleVerdict(Record):
    __slots__ = _fields = ("ok", "counterexample")

    def __init__(self, ok: bool, counterexample: tuple[Value, ...] | None = None) -> None:
        _set(self, "ok", ok)
        _set(self, "counterexample", counterexample)

    def __str__(self) -> str:
        if self.ok:
            return "sound_and_invertible"
        vals = ",".join(v.value for v in self.counterexample)
        return f"counterexample({vals})"


# ---------------------------------------------------------------------------
# Catalog

class Catalog:
    """A logic's rules.  Each rule is synthesised from its table on first
    lookup and shared by every logic using the table."""

    def __init__(self, logic: LogicDef) -> None:
        self.logic = logic
        #: ``rule_for``'s answers by ``(connective, slot)``, filled on first
        #: lookup; the prover's occurrence scan reads it directly
        self._rules: dict[tuple[str, str], RuleSchema | None] = {}

    def rule_for(self, connective: str, slot: str) -> RuleSchema | None:
        """The rule that decomposes a ``connective`` formula in ``slot``,
        or None when there is none to apply: the connective is not in the
        logic, or its rule has no premisses (an axiom, which the axiom
        test ``is_axiomatic`` applies instead)."""
        try:
            return self._rules[connective, slot]
        except KeyError:
            pass
        rule = None
        if connective in self.logic.signature:
            rule = _synthesized(connective, slot)
            if not rule.premisses:
                rule = None
        self._rules[connective, slot] = rule
        return rule

    @property
    def rules(self) -> tuple[RuleSchema, ...]:
        """Every connective's rule at every slot: the rules with premisses
        first, then the axioms, each in connective and slot order."""
        found = [
            _synthesized(cid, slot) for cid in self.logic.connectives for slot in SLOTS
        ]
        return tuple(sorted(found, key=lambda rule: not rule.premisses))


@lru_cache(maxsize=None)
def _synthesized(connective: str, slot: str) -> RuleSchema:
    return synthesize_rules(tables()[connective], slot)


@lru_cache(maxsize=None)
def catalog(logic: LogicDef) -> Catalog:
    """The logic's calculus: every connective has a rule synthesised from
    its table on each of the four slots.  Where the table never meets the
    slot constraint, the rule has no premisses and is an axiom."""
    return Catalog(logic)


# ---------------------------------------------------------------------------
# Rule application

_SLOT_INDEX = {slot: k for k, slot in enumerate(SLOTS)}


def apply_rule(
    rule: RuleSchema, b: Bisequent, occurrence: tuple[str, int]
) -> list[Bisequent]:
    """One premiss bisequent per premiss schema: the principal occurrence
    is removed, each placement appends its immediate subformula to its
    slot in placement order, contexts are copied unchanged.  Each premiss
    is built unchecked by ``Bisequent.derive`` and keeps the parent's own
    tuple in every slot the premiss does not change.  Its multiset hash
    is the parent's, less the principal's term and plus one term per
    placement (the argument's hash times its slot's weight), so no
    formula of the context is hashed again."""
    slot, index = occurrence
    if slot != rule.principal_slot:
        raise OccurrenceError(
            f"rule {rule.name} expects its principal formula in "
            f"{rule.principal_slot}, not {slot}"
        )
    k = _SLOT_INDEX.get(slot)
    if k is None:
        raise ValueError(f"unknown slot {slot!r}")
    formulas = [b.ant1, b.suc1, b.ant2, b.suc2]
    fs = formulas[k]
    if not 0 <= index < len(fs):
        raise OccurrenceError(f"no formula at {slot}[{index}]")
    principal = fs[index]
    if not isinstance(principal, Compound) or principal.connective != rule.connective:
        raise OccurrenceError(
            f"formula at {slot}[{index}] is not a {rule.connective!r} compound"
        )
    args = principal.args
    formulas[k] = fs[:index] + fs[index + 1 :]
    h = b._hash - hash(principal) * HASH_WEIGHTS[k]
    derive = b.derive
    out = []
    for premiss in rule.premisses:
        pf = formulas.copy()
        ph = h
        for k, a in premiss.moves:
            arg = args[a]
            pf[k] += (arg,)
            ph += hash(arg) * HASH_WEIGHTS[k]
        out.append(derive(pf, ph % HASH_MODULUS))
    return out


# ---------------------------------------------------------------------------
# Verification (finite, table-level)

def _premiss_admits(premiss: PremissSchema, args: tuple[Value, ...]) -> bool:
    return all(slot_admits(pl.slot, args[pl.arg_index]) for pl in premiss.placements)


def verify_rule_schema(logic: LogicDef, rule: RuleSchema) -> RuleVerdict:
    """Check, over all argument tuples, that the principal formula meets
    its slot constraint iff some premiss is fully satisfied.  This makes
    the rule validity-preserving and invertible at once: a falsifying
    homomorphism of the conclusion falsifies some premiss and conversely.
    A rule with no premisses (an axiom) passes iff no tuple meets it."""
    table = logic.table(rule.connective)
    for args in _tuples(table.arity):
        lhs = slot_admits(rule.principal_slot, table(*args))
        rhs = any(_premiss_admits(p, args) for p in rule.premisses)
        if lhs != rhs:
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


def synthesize_rules(table: TruthTable, slot: str) -> RuleSchema:
    """Build a rule for the given table and principal slot by covering the
    satisfying region of the slot constraint with premiss-expressible
    rectangles.  An empty region gets the empty cover: a rule with no
    premisses, which is an axiom.  The cover is exact, so the result
    passes verification by construction; among covers it minimises the
    premiss count, then the total placement count, and keeps the first
    such cover in candidate order."""
    region = _cell_mask(table.arity, lambda args: slot_admits(slot, table(*args)))
    candidates = [
        (placements, cells)
        for placements, cells in _rectangles(table.arity)
        if cells and not cells & ~region
    ]
    best_weight: int | None = None
    best_combo = None
    for k in range(region.bit_count() + 1):
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
