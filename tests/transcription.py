"""Loader for ``data/rules.txt``, the paper's rules transcribed by hand.

The calculus itself is synthesised from the truth tables; this file is
kept as test data, and the acceptance suite checks every transcribed
rule and axiom line against the tables and against synthesis.
"""
from __future__ import annotations

from pathlib import Path

from trivalent.calculus import CatalogError, Placement, PremissSchema, RuleSchema
from trivalent.logics import SLOTS

RULES_FILE = Path(__file__).parent / "data" / "rules.txt"


def _parse_premiss(text: str, rule_name: str) -> PremissSchema:
    placements = []
    for token in text.split():
        try:
            idx, slot = token.split("@")
            placement = Placement(slot, int(idx))
        except ValueError:
            raise CatalogError(f"rule {rule_name}: bad placement {token!r}")
        if placement.slot not in SLOTS:
            raise CatalogError(f"rule {rule_name}: bad slot {placement.slot!r}")
        placements.append(placement)
    return PremissSchema(tuple(placements))


def load_rules(
    path: Path = RULES_FILE,
) -> tuple[dict[tuple[str, str], RuleSchema], tuple[RuleSchema, ...]]:
    """Parse a rule file, resolving ``=`` links to another rule's premisses.

    Lines are ``rule <name> <connective> <slot> : <premiss> | ...``,
    ``rule <name> <connective> <slot> = <other rule name>`` and
    ``axiom <connective> <slot>``; a premiss lists placements ``i@slot``.
    Returns the rules by (connective, slot), and the axioms as rules with
    no premisses named ``<connective>.<slot>``, in file order.
    """
    parsed: dict[str, tuple[str, str, str]] = {}  # name -> (conn, slot, rhs)
    axioms: list[RuleSchema] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] == "axiom":
            fields = parts[1].split()
            if len(fields) != 2 or fields[1] not in SLOTS:
                raise CatalogError(f"{path.name}:{lineno}: bad axiom line")
            cid, slot = fields
            axioms.append(RuleSchema(f"{cid}.{slot}", cid, slot, ()))
            continue
        if parts[0] != "rule" or len(parts) < 2:
            raise CatalogError(f"{path.name}:{lineno}: unrecognised line")
        rest = parts[1]
        for sep in (" : ", " = "):
            if sep in rest:
                head, rhs = rest.split(sep, 1)
                break
        else:
            raise CatalogError(f"{path.name}:{lineno}: missing ':' or '='")
        fields = head.split()
        if len(fields) != 3 or fields[2] not in SLOTS:
            raise CatalogError(f"{path.name}:{lineno}: bad rule header")
        name = fields[0]
        if name in parsed:
            raise CatalogError(f"{path.name}:{lineno}: duplicate rule {name!r}")
        parsed[name] = (fields[1], fields[2], sep.strip() + rhs)

    rules: dict[str, RuleSchema] = {}

    def build(name: str, seen: tuple[str, ...] = ()) -> RuleSchema:
        if name in rules:
            return rules[name]
        if name in seen:
            raise CatalogError(f"rule {name}: circular '=' reference")
        conn, slot, rhs = parsed[name]
        if rhs.startswith("="):
            target = rhs[1:].strip()
            if target not in parsed:
                raise CatalogError(f"rule {name}: unknown reference {target!r}")
            premisses = build(target, seen + (name,)).premisses
        else:
            premisses = tuple(
                _parse_premiss(p, name) for p in rhs[1:].strip().split("|")
            )
        rules[name] = RuleSchema(name, conn, slot, premisses)
        return rules[name]

    by_key: dict[tuple[str, str], RuleSchema] = {}
    for name in parsed:
        rule = build(name)
        key = (rule.connective, rule.principal_slot)
        if key in by_key:
            raise CatalogError(f"two rules for {key}")
        by_key[key] = rule
    return by_key, tuple(axioms)
