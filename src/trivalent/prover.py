"""Backward proof search over bisequents.

The search runs until the verdict is settled.  A node with a clash (an
axiomatic node) is a closed leaf at once, before any rule decomposes it;
every other node is decomposed at one occurrence, and its premisses are
searched in order until the first one whose subtree is open.  Both
shortcuts keep the verdict because every rule is invertible: no
assignment falsifies an axiomatic node, so its full subtree would have
only axiomatic leaves, and the premisses after the first open one cannot
close the node again.  So a subtree's verdict is the status of its last
leaf, which each node keeps, and that leaf, if open, is the first open
leaf a complete search would list.  Interpolation, which needs every
open leaf, walks the full decomposition itself.  Every rule trades a
formula occurrence for proper subformula occurrences, so the search
terminates.  The verdict does not depend on the order of rule
applications, but the size of the search does: a node is decomposed at
the occurrence whose rule has the fewest premisses, so one-premiss (α)
rules go before branching (β) rules and are not repeated in every
branch, with ties broken in scan order.  The choice is deterministic,
which keeps proof objects and countermodels reproducible.  An open leaf
yields a countermodel that falsifies the whole branch down to the root.

A ``ProofTree`` node is one flat tuple, ``(node, rule, occurrence,
leaf_status, *children)``, read through named properties, and nodes
decomposed at equal ``(slot, index)`` occurrences share one occurrence
tuple.  A memo keeps every node it has seen alive, so each node holds no
record beyond its own tuple and its bisequent.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

# ``ModeMismatchError``, ``designated_mode`` and ``goal_bisequent`` live
# beside ``Bisequent`` and are re-exported here
from .bisequent import (
    SLOTS,
    Bisequent,
    ModeMismatchError,
    bisequent_atoms,
    clashes,
    designated_mode,
    goal_bisequent,
    is_atomic,
    is_axiomatic,
    render_bisequent,
)
from .calculus import Catalog, apply_rule, catalog
from .formula import Atom, Compound, Constant, Formula
from .logics import EvaluationError, LogicDef, Value
from .record import Record, _set

__all__ = [
    "LeafError",
    "ModeMismatchError",
    "ProofTree",
    "Proved",
    "Refuted",
    "SearchResult",
    "complete_search",
    "countermodel_from_leaf",
    "designated_mode",
    "goal_bisequent",
    "prove",
    "prove_bisequent",
]

class LeafError(ValueError):
    pass


class ProofTree(tuple):
    """A search node, the tuple ``(node, rule, occurrence, leaf_status,
    *children)``: the bisequent, the rule name and the ``(slot, index)``
    occurrence it was decomposed at (both None at a leaf), the status
    ("axiomatic" or "open") of the subtree's last leaf, which is its
    verdict, and the premiss subtrees.  One flat tuple per node, so a
    memoised node keeps no separate children tuple; equality and hashing
    are the tuple's."""

    __slots__ = ()
    node = property(itemgetter(0))
    rule = property(itemgetter(1))
    occurrence = property(itemgetter(2))
    leaf_status = property(itemgetter(3))
    children = property(itemgetter(slice(4, None)))

    def __new__(
        cls,
        node: Bisequent,
        rule: str | None,
        occurrence: tuple[str, int] | None,
        children: Iterable["ProofTree"],
        leaf_status: str | None,
    ) -> "ProofTree":
        return tuple.__new__(cls, (node, rule, occurrence, leaf_status, *children))

    def __getnewargs__(self) -> tuple:
        return self[0], self[1], self[2], self[4:], self[3]

    @property
    def is_leaf(self) -> bool:
        return len(self) == 4

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


class Proved(Record):
    __slots__ = _fields = ("tree",)

    def __init__(self, tree: ProofTree) -> None:
        _set(self, "tree", tree)

    @property
    def proved(self) -> bool:
        return True


class Refuted(Record):
    __slots__ = _fields = ("tree", "countermodel")

    def __init__(self, tree: ProofTree, countermodel: Mapping[str, Value]) -> None:
        _set(self, "tree", tree)
        _set(self, "countermodel", countermodel)

    @property
    def proved(self) -> bool:
        return False


SearchResult = Union[Proved, Refuted]


# ---------------------------------------------------------------------------
# Search

def _select_occurrence(
    cat: Catalog, b: Bisequent, strategy: str
) -> tuple[str, int, object] | None:
    """The decomposable occurrence with the fewest premisses, ties broken
    in scan order: the first one whose rule has a single premiss (an
    α-rule), else the first among those whose rule has the fewest.  A
    decomposable occurrence is a compound whose connective has a rule
    with premisses at its slot; a compound whose rule there has none (an
    axiom) stays put, it makes the bisequent axiomatic.  ``strategy``
    sets the scan: "leftmost" reads the slots ant1, suc1, ant2, suc2 and
    each slot front to back, "rightmost" the reverse.

    Applying α-rules before branching (β-) rules keeps a branching step
    from copying the pending one-premiss steps into each of its branches.
    Every rule is invertible, so the order cannot change a verdict."""
    leftmost = strategy == "leftmost"
    slots = zip(SLOTS, (b.ant1, b.suc1, b.ant2, b.suc2))
    best = None
    fewest = 0
    for slot, fs in slots if leftmost else reversed(tuple(slots)):
        for i in range(len(fs)) if leftmost else range(len(fs) - 1, -1, -1):
            f = fs[i]
            if isinstance(f, Compound):
                rule = cat.rule_for(f.connective, slot)
                if rule is None:
                    continue
                n = len(rule.premisses)
                if n == 1:
                    return slot, i, rule
                if best is None or n < fewest:
                    best, fewest = (slot, i, rule), n
    return best


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
    root's ``leaf_status`` is the verdict either way.  The name dates from
    when the search built every branch, and it stays so that callers that
    reach the search by name, the benchmark's tracing wrapper among them,
    keep working.

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
    """The leaf at the end of the rightmost path: the first open leaf of a
    refutation, whose countermodel ``prove_bisequent`` reads off."""
    while len(tree) > 4:
        tree = tree[-1]
    return tree


#: one shared ``(slot, index)`` tuple per occurrence, so that the nodes
#: decomposed at equal occurrences do not each keep their own pair
_OCCURRENCES: dict[tuple[str, int], tuple[str, int]] = {}


def _search(
    logic: LogicDef,
    cat: Catalog,
    strategy: str,
    memo: dict[Bisequent, ProofTree] | None,
    node: Bisequent,
) -> ProofTree:
    # a module-level function rather than a closure over itself, so that no
    # reference cycle keeps the memo alive after the search returns
    if memo is not None and (tree := memo.get(node)) is not None:
        return tree
    if is_axiomatic(logic, node):
        tree = ProofTree(node, None, None, (), "axiomatic")
    elif (picked := _select_occurrence(cat, node, strategy)) is None:
        tree = ProofTree(node, None, None, (), "open")
    else:
        slot, index, rule = picked
        occurrence = (slot, index)
        occurrence = _OCCURRENCES.setdefault(occurrence, occurrence)
        children = []
        for premiss in apply_rule(rule, node, occurrence):
            child = _search(logic, cat, strategy, memo, premiss)
            children.append(child)
            if child[3] == "open":
                break
        tree = ProofTree(node, rule.name, occurrence, children, child[3])
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
# The decision procedure

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
    if tree.leaf_status == "axiomatic":
        return Proved(tree)
    assignment = countermodel_from_leaf(_last_leaf(tree).node)
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
