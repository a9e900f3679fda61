"""Bisequents and the axiom test.

A bisequent ``G1 => D1 | G2 => D2`` is one record with four slots,
"ant1", "suc1", "ant2" and "suc2".  Slot contents are multisets: order
never matters for equality, duplicates do.  In the text format each slot
is a comma-separated formula list, empty lists allowed.  One splitter
finds the bar, the arrows and the commas outside parentheses, and
``parse_formula_list`` serves the slots and the command line's premiss
lists alike, so an empty item is an error in both.  An error inside an
item keeps its class (``UnknownConnectiveError`` keeps its ``.token``),
shifted to its offset in the whole text.

A formula is a tuple (see ``formula``), so it is its own canonical key:
a bisequent's key is each slot's formulas sorted, and the axiom test
compares sets of formulas.  Sorting, comparing and hashing all run in C.
The record stores the four insertion-order slots and one multiset hash;
the key is computed from the slots whenever two bisequents with equal
hashes are compared.  The hash is a sum of one term per formula
occurrence, the formula's hash times its slot's weight, modulo the
Mersenne prime 2**61 - 1, so it ignores order within a slot and counts
duplicates.  This module is the only one that knows that layout.  A
bisequent built from formulas (``bisequent()``, ``Bisequent(...)``, the
parser) takes any iterable per slot, stores it as a tuple, checks that
it holds formulas and sums its hash.  A rule's premisses come from
``Bisequent.premisses``, which ``calculus.apply_rule`` calls once it has
checked the occurrence: each premiss keeps its parent's tuple in every
slot the rule leaves alone, and its hash is its parent's with the
principal's term taken out and the placed arguments' terms added, so no
context formula is checked or hashed again.

A proof goal ``premisses |- conclusion`` becomes its root bisequent here
too (``goal_bisequent``), placed by ``logics.GOAL_SLOTS``, so that the
command line can build a goal without importing the prover.
"""
from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from .formula import (
    Atom,
    Compound,
    Constant,
    Formula,
    InputError,
    ParseError,
    _atom_names_in,
    parse_formula,
    render,
)
from .logics import GOAL_SLOTS, SLOTS, LogicDef
from .record import Record, _set

__all__ = [
    "Bisequent",
    "ModeMismatchError",
    "SLOTS",
    "bisequent",
    "bisequent_atoms",
    "clashes",
    "designated_mode",
    "goal_bisequent",
    "is_atomic",
    "is_axiomatic",
    "parse_bisequent",
    "parse_formula_list",
    "render_bisequent",
]


#: the modulus of a bisequent's multiset hash: the Mersenne prime by
#: which CPython reduces an int's hash, so the stored hash is its own hash
_HASH_MODULUS = (1 << 61) - 1
#: each slot's weight in the multiset hash, in slot order: a formula
#: occurrence adds its own hash times its slot's weight
_HASH_WEIGHTS = (0x0F1BBCDCBFA53E0B, 0x1B873593A3C6EF35, 0x0D2A98B1C0E6F4A5, 0x165667B19E3779F9)


class Bisequent(Record):
    """``ant1 => suc1 | ant2 => suc2``: one formula tuple per slot, in
    insertion order, and the multiset hash of the four slots, stored
    beside them.  Equality goes through each slot's formulas sorted,
    after the stored hashes."""

    _fields = SLOTS
    __slots__ = (*SLOTS, "_hash")

    def __init__(
        self,
        ant1: Iterable[Formula] = (),
        suc1: Iterable[Formula] = (),
        ant2: Iterable[Formula] = (),
        suc2: Iterable[Formula] = (),
    ) -> None:
        h = 0
        for name, weight, fs in zip(SLOTS, _HASH_WEIGHTS, (ant1, suc1, ant2, suc2)):
            fs = tuple(fs)  # a list would be shared, and extended, by the premisses
            # a formula is a tuple too, so a bare formula given as a slot
            # would otherwise pass for a slot holding its tag and fields
            if not all(isinstance(f, (Atom, Constant, Compound)) for f in fs):
                raise TypeError("a bisequent slot must be a sequence of formulas")
            _set(self, name, fs)
            h += sum(map(hash, fs)) * weight
        _set(self, "_hash", h % _HASH_MODULUS)

    @property
    def _key(self) -> tuple[tuple[Formula, ...], ...]:
        """The canonical key: each slot's formulas sorted, computed on each
        use.  A slot of fewer than two formulas is its own sorted form."""
        ant1, suc1, ant2, suc2 = self.ant1, self.suc1, self.ant2, self.suc2
        return (
            ant1 if len(ant1) < 2 else tuple(sorted(ant1)),
            suc1 if len(suc1) < 2 else tuple(sorted(suc1)),
            ant2 if len(ant2) < 2 else tuple(sorted(ant2)),
            suc2 if len(suc2) < 2 else tuple(sorted(suc2)),
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not Bisequent:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def slot(self, slot: str) -> tuple[Formula, ...]:
        if slot not in SLOTS:
            raise ValueError(f"unknown slot {slot!r}")
        return getattr(self, slot)

    def slots(self) -> dict[str, tuple[Formula, ...]]:
        return {s: getattr(self, s) for s in SLOTS}

    def premisses(self, k: int, index: int, schemata: Iterable) -> list["Bisequent"]:
        """A rule's premisses, one per ``calculus.PremissSchema``, built
        unchecked for the compound at ``index`` of slot number ``k``: that
        occurrence is removed, and each of the schema's ``moves``, a (slot
        number, argument index) pair, appends that argument to that slot.
        A premiss shares this bisequent's tuple in every slot it leaves
        alone.  Its hash is this one's, less the principal's term and plus
        one term per placed argument."""
        formulas = [self.ant1, self.suc1, self.ant2, self.suc2]
        fs = formulas[k]
        principal = fs[index]
        formulas[k] = fs[:index] + fs[index + 1 :]
        h = self._hash - hash(principal) * _HASH_WEIGHTS[k]
        out = []
        for schema in schemata:
            pf = formulas.copy()
            ph = h
            for k, a in schema.moves:
                arg = principal[a + 2]  # argument a of (tag, connective, *args)
                pf[k] += (arg,)
                ph += hash(arg) * _HASH_WEIGHTS[k]
            b = object.__new__(Bisequent)
            _set_ant1(b, pf[0])
            _set_suc1(b, pf[1])
            _set_ant2(b, pf[2])
            _set_suc2(b, pf[3])
            _set_hash(b, ph % _HASH_MODULUS)
            out.append(b)
        return out

    def formulas(self) -> Iterator[tuple[str, int, Formula]]:
        for s in SLOTS:
            for i, f in enumerate(getattr(self, s)):
                yield s, i, f


#: each slot's own setter and the hash's, which ``premisses`` calls
#: without a name lookup
_set_ant1, _set_suc1, _set_ant2, _set_suc2, _set_hash = (
    Bisequent.__dict__[s].__set__ for s in Bisequent.__slots__
)


def bisequent(
    ant1: Iterable[Formula] = (),
    suc1: Iterable[Formula] = (),
    ant2: Iterable[Formula] = (),
    suc2: Iterable[Formula] = (),
) -> Bisequent:
    return Bisequent(ant1, suc1, ant2, suc2)


# ---------------------------------------------------------------------------
# Proof goals

class ModeMismatchError(InputError, ValueError):
    pass


def designated_mode(logic: LogicDef) -> str:
    return "designated_1" if logic.goal_mode == 1 else "designated_2"


def goal_bisequent(
    logic: LogicDef,
    mode: str,
    premisses: Iterable[Formula],
    conclusion: Formula,
) -> Bisequent:
    """The root bisequent of the goal ``premisses |- conclusion`` in goal
    mode ``mode`` (a key of ``GOAL_SLOTS``)."""
    if mode not in GOAL_SLOTS:
        raise ModeMismatchError(f"unknown goal mode {mode!r}")
    expected = designated_mode(logic)
    if mode != expected and mode.startswith("designated_"):
        values = "one designated value" if logic.goal_mode == 1 else "two designated values"
        sequent = "first" if logic.goal_mode == 1 else "second"
        raise ModeMismatchError(
            f"{logic.name} has {values}; its consequence goals live in the "
            f"{sequent} sequent ({expected})"
        )
    ant, suc = GOAL_SLOTS[mode]
    return bisequent(**{ant: premisses, suc: (conclusion,)})


def bisequent_atoms(b: Bisequent) -> frozenset[str]:
    return frozenset(_atom_names_in((*b.ant1, *b.suc1, *b.ant2, *b.suc2)))


def is_atomic(b: Bisequent) -> bool:
    """True iff every formula in all four slots is an atom or a constant."""
    return not any(
        f.__class__ is Compound for fs in (b.ant1, b.suc1, b.ant2, b.suc2) for f in fs
    )


_TOP, _BOTTOM, _UNDEF = map(Constant, ("top", "bottom", "undef"))


def clashes(
    ant1: AbstractSet, suc1: AbstractSet, ant2: AbstractSet, suc2: AbstractSet,
    constants: bool = True,
) -> bool:
    """True iff no assignment can meet the four slot constraints on sight:
    a member shared by ant1 and suc1, ant1 and suc2, or ant2 and suc2, or
    (with ``constants``) T in a succedent, F in an antecedent, or U in
    ant1 or suc2.  The slots may hold formulas or atom names; ant1 and
    suc2 must be sets, suc1 and ant2 may be any collection."""
    if not (ant1.isdisjoint(suc1) and ant1.isdisjoint(suc2) and suc2.isdisjoint(ant2)):
        return True
    return constants and (
        _TOP in suc1 or _TOP in suc2
        or _BOTTOM in ant1 or _BOTTOM in ant2
        or _UNDEF in ant1 or _UNDEF in suc2
    )


def is_axiomatic(logic: LogicDef, b: Bisequent) -> bool:
    """Axiom test: a clash among the four slots' formulas (the constant
    clashes count only when the logic enables constants), or a formula
    that the logic's never-true/never-false connective schemata close.

    Precondition: ``b`` holds no constant unless the logic enables
    constants (``complete_search`` rejects such a root); otherwise a
    constant counts as an opaque formula, so ``U => U | =>`` is axiomatic
    and ``U => | =>`` is not."""
    if clashes(set(b.ant1), b.suc1, b.ant2, set(b.suc2), logic.constants_enabled):
        return True
    for cid, slot in logic.extra_axiom_schemata:
        for f in getattr(b, slot):
            if f.__class__ is Compound and f[1] == cid:  # f[1]: its connective
                return True
    return False


# ---------------------------------------------------------------------------
# Text format

def render_bisequent(b: Bisequent, signature=None) -> str:
    def side(fs: tuple[Formula, ...]) -> str:
        return ", ".join(render(f, signature) for f in fs)

    return (
        f"{side(b.ant1)} => {side(b.suc1)} | {side(b.ant2)} => {side(b.suc2)}"
    ).strip()


def _top_level_positions(text: str, needle: str) -> list[int]:
    """The offsets of ``needle`` in ``text`` outside parentheses."""
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


def parse_formula_list(text: str, signature, offset: int = 0) -> tuple[Formula, ...]:
    """The formulas of a list cut at its top-level commas (blank text is
    the empty list); error offsets count from ``offset``."""
    if not text.strip():
        return ()
    out = []
    cuts = [-1, *_top_level_positions(text, ","), len(text)]
    for start, end in zip(cuts, cuts[1:]):
        item, at = text[start + 1 : end], offset + start + 1
        if not item.strip():
            raise ParseError("empty formula in list", at)
        try:
            out.append(parse_formula(item, signature))
        except ParseError as exc:
            raise exc.shifted(at) from None
    return tuple(out)


def _parse_sequent(text: str, signature, offset: int) -> tuple | None:
    """The (antecedent, succedent) pair of ``G => D``."""
    arrows = _top_level_positions(text, "=>")
    if len(arrows) != 1:
        return None
    at = arrows[0]
    return (
        parse_formula_list(text[:at], signature, offset),
        parse_formula_list(text[at + 2 :], signature, offset + at + 2),
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
            candidates.append(Bisequent(*left, *right))
    if not candidates:
        if last_error is not None:
            raise last_error
        raise ParseError("expected 'G1 => D1 | G2 => D2'", 0)
    if len(candidates) > 1 and any(c != candidates[0] for c in candidates):
        raise ParseError("ambiguous bisequent; add parentheses", 0)
    return candidates[0]
