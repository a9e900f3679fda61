"""Exhaustive, bit-parallel matrix-semantics oracle.

The oracle decides by brute force over all 3^n assignments to the
relevant atoms, so it is obviously correct, and the proof-search
machinery is checked against it.  It evaluates every assignment at once
(bit-slicing): bit *i* of a mask stands for the *i*-th assignment in
``assignments_over`` order, and each subformula gets one mask per truth
value.  A connective's 1 and 0 masks are unions, over the cells of its
truth table that give that value, of intersections of its arguments'
masks; its u mask is what remains.  ``falsifying_assignments``,
``bisequent_valid`` and ``matrix_consequence`` all reduce to one such
evaluation of ``(slot, formulas)`` pairs, which evaluates every formula:
a constant in a logic without constants raises ``EvaluationError``
whatever the other formulas evaluate to.

``falsifying_assignments`` lists the mask's assignments without a Python
step per assignment.  One ``bytes.translate`` of the mask's binary digits
gives a 0/1 selector that ``itertools.compress`` reads in C.  The sorted
atoms are split into a high and a low half, and the half-assignments of
each are built once per call; the assignments under one high half are a
block of consecutive bits, so each selected assignment is one merge
``high | low``.  Each high half already holds every name, in sorted
order, so the merge keeps ``assignments_over``'s key order and never
resizes.  A block with no selected bit is skipped, and an empty mask
builds nothing.  Every returned dict is new; nothing is kept between
calls.

``evaluate`` (from ``logics``), ``falsifies`` and ``assignments_over``
stay as the per-assignment reference; countermodel checks use them.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .bisequent import Bisequent
from .formula import Atom, Constant, Formula, InputError, _atom_names_in
from .logics import VALUES, LogicDef, Value, evaluate, slot_admits, tables

__all__ = [
    "DEFAULT_ATOM_CAP",
    "AtomLimitError",
    "assignments_over",
    "bisequent_valid",
    "falsifies",
    "falsifying_assignments",
    "matrix_consequence",
]

#: 3^12 assignments is the default exhaustive-search budget
DEFAULT_ATOM_CAP = 12


class AtomLimitError(InputError, ValueError):
    def __init__(self, n_atoms: int, cap: int):
        super().__init__(
            f"{n_atoms} atoms exceed the exhaustive-search cap of {cap}; "
            f"raise max_atoms to override"
        )


def _atom_names(names: Iterable[str], max_atoms: int) -> list[str]:
    out = sorted(set(names))
    if len(out) > max_atoms:
        raise AtomLimitError(len(out), max_atoms)
    return out


def assignments_over(
    atom_names: Iterable[str], max_atoms: int = DEFAULT_ATOM_CAP
) -> Iterator[dict[str, Value]]:
    """All assignments over the given atoms, atoms in sorted name order,
    values enumerated 0 < u < 1 (lexicographic, deterministic)."""
    names = _atom_names(atom_names, max_atoms)
    for combo in itertools.product(VALUES, repeat=len(names)):
        yield dict(zip(names, combo))


def falsifies(logic: LogicDef, assignment: Mapping[str, Value], b: Bisequent) -> bool:
    """True iff the assignment makes every ant1 formula 1, every suc1
    formula not 1, every ant2 formula not 0 and every suc2 formula 0."""
    return all(
        slot_admits(slot, evaluate(logic, assignment, f))
        for slot, _, f in b.formulas()
    )


# ---------------------------------------------------------------------------
# Mask evaluation

@lru_cache(maxsize=None)
def _logic_cells(logic: LogicDef) -> dict[str, tuple[tuple[tuple[int, ...], ...], ...]]:
    """For each connective in the logic's signature, and no other, the
    argument cells of its table that give 1, then those that give 0, each
    cell as indices into ``VALUES``."""
    cells = {}
    for cid in logic.connectives:
        entries = tables()[cid].entries
        cells[cid] = tuple(
            tuple(
                tuple(VALUES.index(a) for a in args)
                for args, result in entries.items()
                if result is value
            )
            for value in (Value.ONE, Value.ZERO)
        )
    return cells


@lru_cache(maxsize=None)
def _admitted(slot: str) -> tuple[int, ...]:
    """Indices into ``VALUES`` of the values a slot admits."""
    return tuple(i for i, v in enumerate(VALUES) if slot_admits(slot, v))


def _masks(
    logic: LogicDef,
    cells: Mapping[str, tuple[tuple[tuple[int, ...], ...], ...]],
    f: Formula,
    atom_masks: Mapping[str, tuple[int, ...]],
    full: int,
) -> tuple[int, ...]:
    """The assignments where ``f`` takes each value, indexed like ``VALUES``;
    ``cells`` is ``_logic_cells(logic)``.  The 1 and 0 masks are unions,
    over the table cells giving that value, of intersections of the
    arguments' masks; the u mask is the rest of ``full``."""
    if f.__class__ is Atom:
        return atom_masks[f[1]]
    if f.__class__ is Constant:
        v = evaluate(logic, {}, f)  # rejects constants the logic lacks
        return tuple(full if w is v else 0 for w in VALUES)
    try:
        one_cells, zero_cells = cells[f[1]]
    except KeyError:
        logic.table(f[1])  # not in the signature: raises EvaluationError
        raise
    one = zero = 0
    if len(f) == 3:  # unary: ("2comp", connective, arg)
        x = _masks(logic, cells, f[2], atom_masks, full)
        for (i,) in one_cells:
            one |= x[i]
        for (i,) in zero_cells:
            zero |= x[i]
    else:
        x = _masks(logic, cells, f[2], atom_masks, full)
        y = _masks(logic, cells, f[3], atom_masks, full)
        for i, j in one_cells:
            one |= x[i] & y[j]
        for i, j in zero_cells:
            zero |= x[i] & y[j]
    return zero, full ^ (one | zero), one


def _falsifying_mask(
    logic: LogicDef,
    slots: Sequence[tuple[str, Sequence[Formula]]],
    max_atoms: int,
) -> tuple[list[str], int]:
    """The sorted atom names and the mask of the assignments over them that
    give every formula of each ``(slot, formulas)`` pair a value its slot
    admits."""
    names = _atom_names(_atom_names_in([f for _, fs in slots for f in fs]), max_atoms)
    run = 3 ** len(names)
    full = (1 << run) - 1
    # atom k takes each value on runs of 3^(n-1-k) consecutive assignments;
    # ``rep`` has one bit at the start of each of its runs of 0s
    atom_masks: dict[str, tuple[int, ...]] = {}
    rep = 1
    for name in names:
        run //= 3
        zero = (rep << run) - rep  # a block of ``run`` ones at each bit of rep
        atom_masks[name] = (zero, zero << run, zero << 2 * run)
        rep |= (rep << run) | (rep << 2 * run)
    cells = _logic_cells(logic)
    out = full
    for slot, fs in slots:
        admits = _admitted(slot)
        for f in fs:
            masks = _masks(logic, cells, f, atom_masks, full)
            admitted = 0
            for k in admits:
                admitted |= masks[k]
            out &= admitted
    return names, out


#: maps the digits of ``bin`` to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _slot_formulas(b: Bisequent) -> tuple[tuple[str, tuple[Formula, ...]], ...]:
    return ("ant1", b.ant1), ("suc1", b.suc1), ("ant2", b.ant2), ("suc2", b.suc2)


def falsifying_assignments(
    logic: LogicDef, b: Bisequent, max_atoms: int = DEFAULT_ATOM_CAP
) -> list[dict[str, Value]]:
    """Every assignment that falsifies ``b``, in ``assignments_over`` order."""
    names, mask = _falsifying_mask(logic, _slot_formulas(b), max_atoms)
    if not mask:
        return []
    split = len(names) // 2
    low_names = names[split:]
    # every high half carries all the names, so ``high | low`` keeps the
    # sorted key order and only overwrites the low names' placeholders
    padding = (None,) * len(low_names)
    highs = [
        dict(zip(names, combo + padding))
        for combo in itertools.product(VALUES, repeat=split)
    ]
    lows = [
        dict(zip(low_names, combo))
        for combo in itertools.product(VALUES, repeat=len(low_names))
    ]
    selector = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)  # bit i first
    width = len(lows)
    out: list[dict[str, Value]] = []
    for start, high in zip(range(0, len(selector), width), highs):
        block = selector[start : start + width]
        if 1 in block:
            out.extend(map(high.__or__, itertools.compress(lows, block)))
    return out


def bisequent_valid(
    logic: LogicDef, b: Bisequent, max_atoms: int = DEFAULT_ATOM_CAP
) -> bool:
    return not _falsifying_mask(logic, _slot_formulas(b), max_atoms)[1]


def matrix_consequence(
    logic: LogicDef,
    premisses: Iterable[Formula],
    conclusion: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff every assignment making all premisses designated makes the
    conclusion designated.  For one designated value this coincides with
    validity of ``premisses => conclusion | =>``, for two with validity of
    ``=> | premisses => conclusion``."""
    ant, suc = logic.goal_slots
    slots = ((ant, tuple(premisses)), (suc, (conclusion,)))
    return not _falsifying_mask(logic, slots, max_atoms)[1]
