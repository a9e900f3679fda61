"""Backward proof search over bisequents.

The search runs until the verdict is settled.  A node with a clash (an
axiomatic node) is a closed leaf at once, before any rule decomposes it;
every other node is decomposed at one occurrence, and its premisses are
searched in order until the first one whose subtree is open.  Both
shortcuts keep the verdict because every rule is invertible: no
assignment falsifies an axiomatic node, so its full subtree would have
only axiomatic leaves, and the premisses after the first open one cannot
close the node again.  The
first open leaf is therefore the one a complete search would list
first, and it sits at the end of the explored tree's rightmost path.
Every rule trades a formula occurrence for proper subformula
occurrences, so the search terminates.  The verdict does not depend on
the order of rule applications; the principal occurrence is nevertheless
chosen deterministically to keep proof objects and countermodels
reproducible.  An open leaf yields a countermodel that falsifies the
whole branch down to the root.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .bisequent import (
    Bisequent,
    SLOTS,
    bisequent,
    bisequent_atoms,
    clashes,
    is_atomic,
    is_axiomatic,
    render_bisequent,
)
from .calculus import Catalog, apply_rule, catalog
from .formula import Atom, Compound, Constant, Formula
from .logics import EvaluationError, LogicDef, Value

__all__ = [
    "GOAL_MODES",
    "CutShapeError",
    "LeafError",
    "ModeMismatchError",
    "ProofTree",
    "Proved",
    "Refuted",
    "SearchResult",
    "admissible_cut",
    "admissible_weaken",
    "complete_search",
    "countermodel_from_leaf",
    "designated_mode",
    "goal_bisequent",
    "prove",
    "prove_bisequent",
]

#: proof goal shapes: the designated modes host matrix consequence, the
#: other two change only where premisses and conclusion sit in the root
GOAL_MODES = ("designated_1", "designated_2", "no_counterexample", "liberal")


class ModeMismatchError(ValueError):
    pass


class LeafError(ValueError):
    pass


class CutShapeError(ValueError):
    pass


@dataclass(frozen=True)
class ProofTree:
    node: Bisequent
    rule: str | None
    occurrence: tuple[str, int] | None
    children: tuple["ProofTree", ...]
    leaf_status: str | None  # "axiomatic" | "open" at leaves, None inside

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_proof(self) -> bool:
        return all(leaf.leaf_status == "axiomatic" for leaf in self.leaves())

    def leaves(self) -> Iterator["ProofTree"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def open_leaves(self) -> list["ProofTree"]:
        return [leaf for leaf in self.leaves() if leaf.leaf_status == "open"]

    def to_text(self, signature=None, indent: str = "") -> str:
        tag = f"[{self.rule}]" if self.rule else f"[{self.leaf_status}]"
        lines = [f"{indent}{render_bisequent(self.node, signature)}   {tag}"]
        for child in self.children:
            lines.append(child.to_text(signature, indent + "  "))
        return "\n".join(lines)

    def to_dict(self, signature=None) -> dict:
        out: dict = {"bisequent": render_bisequent(self.node, signature)}
        if self.rule is not None:
            out["rule"] = self.rule
            out["children"] = [c.to_dict(signature) for c in self.children]
        else:
            out["status"] = self.leaf_status
        return out


@dataclass(frozen=True)
class Proved:
    tree: ProofTree

    @property
    def proved(self) -> bool:
        return True


@dataclass(frozen=True)
class Refuted:
    tree: ProofTree
    countermodel: Mapping[str, Value]

    @property
    def proved(self) -> bool:
        return False


SearchResult = Union[Proved, Refuted]


# ---------------------------------------------------------------------------
# Search

def _select_occurrence(
    cat: Catalog, b: Bisequent, strategy: str
) -> tuple[str, int, object] | None:
    """First decomposable occurrence: a compound whose connective has a
    rule at its slot.  Compounds covered only by an axiom schema (never a
    rule) stay put; they make the bisequent axiomatic."""
    slots: Sequence[str] = SLOTS if strategy == "leftmost" else tuple(reversed(SLOTS))
    for slot in slots:
        fs = b.slot(slot)
        indices = range(len(fs)) if strategy == "leftmost" else range(len(fs) - 1, -1, -1)
        for i in indices:
            f = fs[i]
            if isinstance(f, Compound):
                rule = cat.rule_for(f.connective, slot)
                if rule is not None:
                    return slot, i, rule
    return None


def complete_search(
    logic: LogicDef,
    b: Bisequent,
    strategy: str = "leftmost",
    use_memo: bool = True,
    memo: dict[Bisequent, ProofTree] | None = None,
) -> ProofTree:
    """Search ``b`` until its verdict is settled.

    A provable ``b`` gets a proof: every leaf is axiomatic.  Otherwise the
    tree is the search explored up to the first open leaf, which ends its
    rightmost path; premisses after the first open one are left out.  The
    name dates from when the search built every branch, and it stays so
    that callers that reach the search by name, the benchmark's tracing
    wrapper among them, keep working.

    Identical sub-bisequents share one subtree (multiset equality), which
    cannot change the verdict because the rules are context independent.
    A caller running many searches in one logic may pass a shared ``memo``
    dictionary to keep the sharing across calls.  Raises
    ``EvaluationError``, as the oracle does, when ``b`` holds a constant
    and the logic does not enable constants.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _reject_undeclared_constants(logic, b)
    if memo is None:
        memo = {}
    return _search(logic, catalog(logic), strategy, memo if use_memo else None, b)


def _complete_tree(
    logic: LogicDef, b: Bisequent, memo: dict[Bisequent, ProofTree]
) -> ProofTree:
    """``b``'s search run to completion: every premiss of every decomposed
    node is explored, so the tree holds every open leaf.  Interpolation
    needs them all.  ``memo`` must not be shared with ``complete_search``,
    whose trees stop at the first open leaf."""
    _reject_undeclared_constants(logic, b)
    return _search(logic, catalog(logic), "leftmost", memo, b, to_completion=True)


def _reject_undeclared_constants(logic: LogicDef, b: Bisequent) -> None:
    if logic.constants_enabled:
        return
    todo = [f for _, _, f in b.formulas()]
    while todo:
        f = todo.pop()
        if isinstance(f, Constant):
            raise EvaluationError(f"constants are not enabled in logic {logic.name}")
        if isinstance(f, Compound):
            todo.extend(f.args)


def _last_leaf(tree: ProofTree) -> ProofTree:
    """The leaf at the end of the rightmost path.  In a tree that stopped
    at its first open leaf, this is that leaf if the tree is open, and an
    axiomatic leaf otherwise."""
    while tree.children:
        tree = tree.children[-1]
    return tree


def _search(
    logic: LogicDef,
    cat: Catalog,
    strategy: str,
    memo: dict[Bisequent, ProofTree] | None,
    node: Bisequent,
    to_completion: bool = False,
) -> ProofTree:
    # a module-level function rather than a closure over itself, so that no
    # reference cycle keeps the memo alive after the search returns
    if memo is not None and node in memo:
        return memo[node]
    if is_axiomatic(logic, node):
        tree = ProofTree(node, None, None, (), "axiomatic")
    elif (picked := _select_occurrence(cat, node, strategy)) is None:
        tree = ProofTree(node, None, None, (), "open")
    else:
        slot, index, rule = picked
        children = []
        for premiss in apply_rule(rule, node, (slot, index)):
            child = _search(logic, cat, strategy, memo, premiss, to_completion)
            children.append(child)
            if not to_completion and _last_leaf(child).leaf_status == "open":
                break
        tree = ProofTree(node, rule.name, (slot, index), tuple(children), None)
    if memo is not None:
        memo[node] = tree
    return tree


def countermodel_from_leaf(leaf: Bisequent) -> dict[str, Value]:
    """Falsifying assignment for an atomic, nonaxiomatic leaf.

    Priority: ant1 atoms get 1 and suc2 atoms 0 (forced); atoms only in
    both suc1 and ant2 get u; atoms only in suc1 get 0, only in ant2 get
    1; anything else u.  Nonaxiomaticity rules out every clash, so the
    result meets all four slot constraints.
    """
    if not is_atomic(leaf):
        raise LeafError("leaf is not atomic")
    ant1, suc1, ant2, suc2 = map(set, leaf.slots().values())
    if clashes(ant1, suc1, ant2, suc2):
        raise LeafError("leaf is axiomatic")

    def names(fs: set) -> set[str]:
        return {f.name for f in fs if isinstance(f, Atom)}

    n_ant1, n_suc1, n_ant2, n_suc2 = names(ant1), names(suc1), names(ant2), names(suc2)
    assignment: dict[str, Value] = {}
    for a in sorted(n_ant1 | n_suc1 | n_ant2 | n_suc2):
        if a in n_ant1:
            assignment[a] = Value.ONE
        elif a in n_suc2:
            assignment[a] = Value.ZERO
        elif a in n_suc1 and a in n_ant2:
            assignment[a] = Value.UNDEF
        elif a in n_suc1:
            assignment[a] = Value.ZERO
        else:
            assignment[a] = Value.ONE
    return assignment


# ---------------------------------------------------------------------------
# Proof goals and the decision procedure

def designated_mode(logic: LogicDef) -> str:
    return "designated_1" if logic.goal_mode == 1 else "designated_2"


def goal_bisequent(
    logic: LogicDef,
    mode: str,
    premisses: Iterable[Formula],
    conclusion: Formula,
) -> Bisequent:
    premisses = tuple(premisses)
    if mode not in GOAL_MODES:
        raise ModeMismatchError(f"unknown goal mode {mode!r}")
    if mode == "designated_1":
        if logic.goal_mode != 1:
            raise ModeMismatchError(
                f"{logic.name} has two designated values; its consequence goals "
                f"live in the second sequent (designated_2)"
            )
        return bisequent(ant1=premisses, suc1=(conclusion,))
    if mode == "designated_2":
        if logic.goal_mode != 2:
            raise ModeMismatchError(
                f"{logic.name} has one designated value; its consequence goals "
                f"live in the first sequent (designated_1)"
            )
        return bisequent(ant2=premisses, suc2=(conclusion,))
    if mode == "no_counterexample":
        return bisequent(ant1=premisses, suc2=(conclusion,))
    return bisequent(suc1=(conclusion,), ant2=premisses)  # liberal


def prove_bisequent(
    logic: LogicDef,
    root: Bisequent,
    strategy: str = "leftmost",
    memo: dict[Bisequent, ProofTree] | None = None,
) -> SearchResult:
    """Decision procedure on a root bisequent: proved iff the search
    closes every branch, otherwise refuted with an assignment read off the
    first open leaf (atoms absent from that branch get u).  Raises
    ``EvaluationError`` as ``complete_search`` does."""
    tree = complete_search(logic, root, strategy, memo=memo)
    leaf = _last_leaf(tree)
    if leaf.leaf_status == "axiomatic":
        return Proved(tree)
    assignment = countermodel_from_leaf(leaf.node)
    for name in sorted(bisequent_atoms(root)):
        assignment.setdefault(name, Value.UNDEF)
    return Refuted(tree, dict(sorted(assignment.items())))


def prove(
    logic: LogicDef,
    mode: str,
    premisses: Iterable[Formula],
    conclusion: Formula,
    strategy: str = "leftmost",
) -> SearchResult:
    return prove_bisequent(
        logic, goal_bisequent(logic, mode, premisses, conclusion), strategy
    )


# ---------------------------------------------------------------------------
# Structural-rule helpers (admissibility realised by re-proof)

def admissible_weaken(
    logic: LogicDef,
    proved: Bisequent,
    additions: Mapping[str, Iterable[Formula]],
) -> SearchResult:
    """Re-prove a proved bisequent with extra formulas in any slots."""
    weakened = proved
    for slot, formulas in additions.items():
        weakened = weakened.add(slot, *tuple(formulas))
    return prove_bisequent(logic, weakened)


def _remove_one(b: Bisequent, slot: str, f: Formula) -> Bisequent:
    fs = b.slot(slot)
    try:
        index = fs.index(f)
    except ValueError:
        raise CutShapeError(
            f"cut formula not found in {slot}: {render_bisequent(b)}"
        ) from None
    return b.remove_at(slot, index)


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
