"""Bisequents: ordered pairs of two-sided sequents, and the axiom test.

A bisequent has four slots ("ant1", "suc1", "ant2", "suc2").  Slot
contents are multisets: order never matters for equality, duplicates do.
Text format: ``G1 => D1 | G2 => D2`` with comma-separated formula lists,
empty lists allowed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator

from .formula import (
    Compound,
    Constant,
    Formula,
    ParseError,
    atoms,
    parse_formula,
    render,
    structural_key,
)
from .logics import SLOTS, LogicDef

__all__ = [
    "Sequent",
    "Bisequent",
    "SLOTS",
    "bisequent",
    "bisequent_atoms",
    "clashes",
    "is_atomic",
    "is_axiomatic",
    "parse_bisequent",
    "render_bisequent",
]


@dataclass(frozen=True, eq=False)
class Sequent:
    """A pair of formula multisets (antecedent, succedent)."""

    ant: tuple[Formula, ...]
    suc: tuple[Formula, ...]

    def __post_init__(self) -> None:
        key = (
            tuple(sorted(map(structural_key, self.ant))),
            tuple(sorted(map(structural_key, self.suc))),
        )
        object.__setattr__(self, "_key", key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass(frozen=True)
class Bisequent:
    first: Sequent
    second: Sequent

    def slot(self, slot: str) -> tuple[Formula, ...]:
        if slot == "ant1":
            return self.first.ant
        if slot == "suc1":
            return self.first.suc
        if slot == "ant2":
            return self.second.ant
        if slot == "suc2":
            return self.second.suc
        raise ValueError(f"unknown slot {slot!r}")

    def replace(self, slot: str, formulas: Iterable[Formula]) -> "Bisequent":
        parts = {s: self.slot(s) for s in SLOTS}
        parts[slot] = tuple(formulas)
        return bisequent(**parts)

    def add(self, slot: str, *formulas: Formula) -> "Bisequent":
        return self.replace(slot, self.slot(slot) + formulas)

    def remove_at(self, slot: str, index: int) -> "Bisequent":
        fs = self.slot(slot)
        return self.replace(slot, fs[:index] + fs[index + 1 :])

    def formulas(self) -> Iterator[tuple[str, int, Formula]]:
        for s in SLOTS:
            for i, f in enumerate(self.slot(s)):
                yield s, i, f


def bisequent(
    ant1: Iterable[Formula] = (),
    suc1: Iterable[Formula] = (),
    ant2: Iterable[Formula] = (),
    suc2: Iterable[Formula] = (),
) -> Bisequent:
    return Bisequent(
        Sequent(tuple(ant1), tuple(suc1)), Sequent(tuple(ant2), tuple(suc2))
    )


def bisequent_atoms(b: Bisequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for _, _, f in b.formulas():
        out |= atoms(f)
    return out


def is_atomic(b: Bisequent) -> bool:
    """True iff every formula in all four slots is an atom or a constant."""
    return all(not isinstance(f, Compound) for _, _, f in b.formulas())


_TOP, _BOTTOM, _UNDEF = Constant("top"), Constant("bottom"), Constant("undef")


def clashes(
    ant1: AbstractSet, suc1: AbstractSet, ant2: AbstractSet, suc2: AbstractSet,
    constants: bool = True,
) -> bool:
    """True iff no assignment can meet the four slot constraints on sight:
    a member shared by ant1 and suc1, ant1 and suc2, or ant2 and suc2, or
    (with ``constants``) T in a succedent, F in an antecedent, or U in
    ant1 or suc2.  The slots may hold formulas or atom names."""
    if not (ant1.isdisjoint(suc1) and ant1.isdisjoint(suc2) and ant2.isdisjoint(suc2)):
        return True
    return constants and (
        _TOP in suc1 or _TOP in suc2 or _BOTTOM in ant1 or _BOTTOM in ant2
        or _UNDEF in ant1 or _UNDEF in suc2
    )


def is_axiomatic(logic: LogicDef, b: Bisequent) -> bool:
    """Axiom test: a clash among the four slots (the constant clashes
    count only when the logic enables constants), or a formula that the
    logic's never-true/never-false connective schemata close."""
    if clashes(set(b.first.ant), set(b.first.suc), set(b.second.ant),
               set(b.second.suc), logic.constants_enabled):
        return True
    for cid, slot in logic.extra_axiom_schemata:
        if any(
            isinstance(f, Compound) and f.connective == cid for f in b.slot(slot)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Text format

def render_bisequent(b: Bisequent, signature=None) -> str:
    def side(fs: tuple[Formula, ...]) -> str:
        return ", ".join(render(f, signature) for f in fs)

    return (
        f"{side(b.first.ant)} => {side(b.first.suc)}"
        f" | {side(b.second.ant)} => {side(b.second.suc)}"
    ).strip()


def _top_level_positions(text: str, needle: str) -> list[int]:
    out = []
    depth = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(needle, i):
            # '|' must not be part of '->'; '=>' detection is exact
            out.append(i)
            i += len(needle)
            continue
        i += 1
    return out


def _parse_side(text: str, signature, offset: int) -> tuple[Formula, ...]:
    if not text.strip():
        return ()
    parts: list[Formula] = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(_parse_field(text[start:i], signature, offset + start))
            start = i + 1
    parts.append(_parse_field(text[start:], signature, offset + start))
    return tuple(parts)


def _parse_field(text: str, signature, offset: int) -> Formula:
    if not text.strip():
        raise ParseError("empty formula in sequent", offset)
    try:
        return parse_formula(text, signature)
    except ParseError as exc:
        raise ParseError(exc.message, offset + exc.position) from None


def _parse_sequent(text: str, signature, offset: int) -> Sequent | None:
    arrows = _top_level_positions(text, "=>")
    if len(arrows) != 1:
        return None
    at = arrows[0]
    return Sequent(
        _parse_side(text[:at], signature, offset),
        _parse_side(text[at + 2 :], signature, offset + at + 2),
    )


def parse_bisequent(text: str, signature) -> Bisequent:
    """Parse ``G1 => D1 | G2 => D2``.  The separating bar is the unique
    top-level ``|`` leaving exactly one ``=>`` on each side and parseable
    formula lists (so formulas may themselves contain disjunction bars)."""
    candidates = []
    last_error: ParseError | None = None
    for at in _top_level_positions(text, "|"):
        try:
            left = _parse_sequent(text[:at], signature, 0)
            right = _parse_sequent(text[at + 1 :], signature, at + 1)
        except ParseError as exc:
            last_error = exc
            continue
        if left is not None and right is not None:
            candidates.append(Bisequent(left, right))
    if not candidates:
        if last_error is not None:
            raise last_error
        raise ParseError("expected 'G1 => D1 | G2 => D2'", 0)
    if len(candidates) > 1 and any(c != candidates[0] for c in candidates):
        raise ParseError("ambiguous bisequent; add parentheses", 0)
    return candidates[0]
