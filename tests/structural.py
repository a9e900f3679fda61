"""Structural rules realised by re-proof, the proof check, the bisequent
edits and the complete-search reference the tests use: weakening and cut
are admissible in the bisequent calculus, so a weakened or cut conclusion
of provable bisequents must be provable again.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from trivalent.bisequent import SLOTS, Bisequent, bisequent, is_axiomatic, render_bisequent
from trivalent.calculus import apply_rule, catalog
from trivalent.formula import Formula
from trivalent.logics import LogicDef
from trivalent.prover import ProofTree, SearchResult, _select_occurrence, prove_bisequent


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


def complete_tree(
    logic: LogicDef, b: Bisequent, memo: dict[Bisequent, ProofTree] | None = None
) -> ProofTree:
    """``b``'s search run to completion, a reference for the prover and
    for interpolation's leaf walk: axiomatic nodes close at once, as in the
    prover, but every premiss of every decomposed node is explored, so the
    tree holds every open leaf.  Equal sub-bisequents share one subtree
    through ``memo``.  An inner node carries its last leaf's status, as
    the prover's nodes do, though here that is not its verdict."""
    return _complete(logic, catalog(logic), {} if memo is None else memo, b)


def _complete(logic, cat, memo, node: Bisequent) -> ProofTree:
    if (tree := memo.get(node)) is not None:
        return tree
    if is_axiomatic(logic, node):
        tree = ProofTree(node, None, None, (), "axiomatic")
    elif (picked := _select_occurrence(cat, node, "leftmost")) is None:
        tree = ProofTree(node, None, None, (), "open")
    else:
        slot, index, rule = picked
        children = [_complete(logic, cat, memo, p) for p in apply_rule(rule, node, (slot, index))]
        tree = ProofTree(node, rule.name, (slot, index), children, children[-1].leaf_status)
    memo[node] = tree
    return tree


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
