"""Structural rules realised by re-proof, the proof check and the
bisequent edits the tests use: weakening and cut are admissible in the
bisequent calculus, so a weakened or cut conclusion of provable
bisequents must be provable again.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from trivalent.bisequent import SLOTS, Bisequent, bisequent, render_bisequent
from trivalent.formula import Formula
from trivalent.logics import LogicDef
from trivalent.prover import ProofTree, SearchResult, prove_bisequent


class CutShapeError(ValueError):
    pass


def replace(b: Bisequent, slot: str, formulas: Iterable[Formula]) -> Bisequent:
    """``b`` with ``slot`` holding ``formulas``."""
    b.slot(slot)  # rejects an unknown slot name
    return bisequent(**{**b.slots(), slot: formulas})


def add(b: Bisequent, slot: str, *formulas: Formula) -> Bisequent:
    """``b`` with ``formulas`` appended to ``slot``."""
    return replace(b, slot, b.slot(slot) + formulas)


def remove_at(b: Bisequent, slot: str, index: int) -> Bisequent:
    """``b`` without the formula at ``slot[index]``."""
    fs = b.slot(slot)
    return replace(b, slot, fs[:index] + fs[index + 1 :])


def is_proof(tree: ProofTree) -> bool:
    """True iff every leaf of ``tree`` is axiomatic."""
    return all(leaf.leaf_status == "axiomatic" for leaf in tree.leaves())


def admissible_weaken(
    logic: LogicDef,
    proved: Bisequent,
    additions: Mapping[str, Iterable[Formula]],
) -> SearchResult:
    """Re-prove a proved bisequent with extra formulas in any slots."""
    weakened = proved
    for slot, formulas in additions.items():
        weakened = add(weakened, slot, *formulas)
    return prove_bisequent(logic, weakened)


def _remove_one(b: Bisequent, slot: str, f: Formula) -> Bisequent:
    fs = b.slot(slot)
    try:
        index = fs.index(f)
    except ValueError:
        raise CutShapeError(
            f"cut formula not found in {slot}: {render_bisequent(b)}"
        ) from None
    return remove_at(b, slot, index)


def admissible_cut(
    logic: LogicDef,
    left: Bisequent,
    right: Bisequent,
    cut_formula: Formula,
    variant: str,
) -> SearchResult:
    """Form the cut conclusion and re-prove it.

    ``cut1`` cuts a formula sitting in the first-sequent succedent of the
    left premiss and the first-sequent antecedent of the right premiss;
    ``cut2`` does the same on the second sequent.  Contexts are joined by
    multiset union.  With both premisses provable the conclusion must be
    provable again (cut admissibility).
    """
    if variant == "cut1":
        left_slot, right_slot = "suc1", "ant1"
    elif variant == "cut2":
        left_slot, right_slot = "suc2", "ant2"
    else:
        raise CutShapeError(f"unknown cut variant {variant!r}")
    l = _remove_one(left, left_slot, cut_formula)
    r = _remove_one(right, right_slot, cut_formula)
    conclusion = bisequent(**{s: l.slot(s) + r.slot(s) for s in SLOTS})
    return prove_bisequent(logic, conclusion)
